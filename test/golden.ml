(** Golden-file comparison shared by the suites that pin generated
    text to a committed file under [golden/]. *)

(* Line by line, so a mismatch names the first differing loop or
   program. *)
let check path got =
  let ic = open_in_bin path in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if not (String.equal expected got) then begin
    let lines s = Array.of_list (String.split_on_char '\n' s) in
    let e = lines expected and g = lines got in
    let line i = if i < Array.length g then g.(i) else "<missing>" in
    let i = ref 0 in
    while !i < Array.length e && String.equal e.(!i) (line !i) do
      incr i
    done;
    Alcotest.(check string)
      (Printf.sprintf "%s, line %d" path (!i + 1))
      (if !i < Array.length e then e.(!i) else "<end>")
      (line !i)
  end

(** MD5 of a final state's observable part: every segment of [p] in
    order, then both output channels. *)
let state_md5 (p : Sp_ir.Program.t) st =
  let module S = Sp_ir.Machine_state in
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Sp_ir.Memseg.t) ->
      match s.Sp_ir.Memseg.elt with
      | Sp_ir.Memseg.Float_elt ->
        Array.iter (Printf.bprintf b "%h ") (S.get_farray st s)
      | Sp_ir.Memseg.Int_elt ->
        Array.iter (Printf.bprintf b "%d ") (S.get_iarray st s))
    p.Sp_ir.Program.segs;
  for ch = 0 to 1 do
    Buffer.add_char b '|';
    List.iter (Printf.bprintf b "%h ") (S.outputs st ch)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

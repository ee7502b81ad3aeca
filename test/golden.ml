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

(** Architectural state shared by the reference interpreter and the
    VLIW simulator: register file, data memory (one array per segment),
    and the communication queues. Final states are comparable, which is
    how every scheduled program is validated against the sequential
    semantics. *)

open Semantics

type segdata = SF of float array | SI of int array

type t = {
  regs : value array;                    (* indexed by vreg id *)
  mem : segdata option array;            (* indexed by segment id *)
  mutable input : float list array;      (* per input channel *)
  out_vals : float list ref array;       (* per output channel, reversed *)
}

let create ?(channels = 2) ~regs (p : Program.t) =
  let regs = Array.make (max 1 regs) (VI 0) in
  let nsegs =
    List.fold_left (fun n (s : Memseg.t) -> max n (s.sid + 1)) 0 p.segs
  in
  let mem = Array.make nsegs None in
  List.iter
    (fun (s : Memseg.t) ->
      let data =
        match s.elt with
        | Memseg.Float_elt -> SF (Array.make s.size 0.0)
        | Memseg.Int_elt -> SI (Array.make s.size 0)
      in
      mem.(s.sid) <- Some data)
    p.segs;
  {
    regs;
    mem;
    input = Array.make channels [];
    out_vals = Array.init channels (fun _ -> ref []);
  }

let set_input t ch xs =
  if ch < 0 || ch >= Array.length t.input then
    invalid_arg "Machine_state.set_input: bad channel";
  t.input.(ch) <- xs

let outputs t ch = List.rev !(t.out_vals.(ch))

let read t (v : Vreg.t) = t.regs.(v.id)
let write t (v : Vreg.t) x = t.regs.(v.id) <- x

let find t sid =
  if sid >= 0 && sid < Array.length t.mem then t.mem.(sid) else None

let seg_data t (s : Memseg.t) =
  match find t s.sid with
  | Some d -> d
  | None ->
    invalid_arg
      (Printf.sprintf "Machine_state: unknown segment %s" s.sname)

exception Out_of_bounds of string

let check_bounds (s : Memseg.t) i =
  if i < 0 || i >= s.size then
    raise
      (Out_of_bounds
         (Printf.sprintf "%s[%d] (size %d)" s.sname i s.size))

let load t s i =
  check_bounds s i;
  match seg_data t s with
  | SF a -> VF a.(i)
  | SI a -> VI a.(i)

let store t s i v =
  check_bounds s i;
  match (seg_data t s, v) with
  | SF a, VF x -> a.(i) <- x
  | SI a, VI x -> a.(i) <- x
  | SF _, VI _ -> raise (Type_error "int store to float segment")
  | SI _, VF _ -> raise (Type_error "float store to int segment")

exception Channel_empty of int

let recv t ch =
  match t.input.(ch) with
  | [] -> raise (Channel_empty ch)
  | x :: rest ->
    t.input.(ch) <- rest;
    x

let send t ch x = t.out_vals.(ch) := x :: !(t.out_vals.(ch))

(** Initialize a float segment from a generator (for test fixtures and
    the benchmark workloads). *)
let init_farray t (s : Memseg.t) f =
  match seg_data t s with
  | SF a -> Array.iteri (fun i _ -> a.(i) <- f i) a
  | SI _ -> invalid_arg "init_farray: int segment"

let init_iarray t (s : Memseg.t) f =
  match seg_data t s with
  | SI a -> Array.iteri (fun i _ -> a.(i) <- f i) a
  | SF _ -> invalid_arg "init_iarray: float segment"

let get_farray t (s : Memseg.t) =
  match seg_data t s with
  | SF a -> Array.copy a
  | SI _ -> invalid_arg "get_farray: int segment"

let get_iarray t (s : Memseg.t) =
  match seg_data t s with
  | SI a -> Array.copy a
  | SF _ -> invalid_arg "get_iarray: float segment"

(** Structural equality of two final states: registers are {e not}
    compared (schedules legitimately leave different garbage in
    temporaries); memory and channel outputs are. *)
let observably_equal a b =
  let seg_eq sid = function
    | None -> true
    | Some d -> (
      match (d, find b sid) with
      | SF x, Some (SF y) ->
        Array.length x = Array.length y && Array.for_all2 Float.equal x y
      | SI x, Some (SI y) -> x = y
      | _ -> false)
  in
  Seq.for_all (fun (sid, d) -> seg_eq sid d) (Array.to_seqi a.mem)
  && Array.for_all2
       (fun x y -> List.equal Float.equal (List.rev !x) (List.rev !y))
       a.out_vals b.out_vals

let ctx ?st:store_f ?recv:recv_f ?send:send_f t : Semantics.ctx =
  {
    rd = (fun v -> t.regs.(v.Vreg.id));
    ld = (fun s i -> load t s i);
    st = Option.value store_f ~default:(fun s i v -> store t s i v);
    recv = Option.value recv_f ~default:(fun ch -> recv t ch);
    send = Option.value send_f ~default:(fun ch x -> send t ch x);
  }

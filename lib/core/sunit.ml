(* Scheduling units and code fragments: the interface documents each
   field and value. *)

open Sp_ir
module Machine = Sp_machine.Machine

type mem_eff = {
  seg : Memseg.t;
  write : bool;
  sub : Subscript.t option;
  at : int;
  summary : bool;
}

type t = {
  sid : int;
  len : int;
  uses : (Vreg.t * int) list;
  defs : (Vreg.t * int) list;
  mems : mem_eff list;
  resv : (int * int) list;
  payload : payload;
  no_wrap : bool;
}

and payload =
  | P_op of Op.t
  | P_if of ifpayload
  | P_loop of looppayload

and ifpayload = { cond : Vreg.t; then_ : frag; else_ : frag }

and looppayload = { prolog : frag; epilog : frag; mid : mid_emit }

and mid_emit = {
  emit_mid :
    rename:(Vreg.t -> Vreg.t) -> depth:int -> Sp_vliw.Prog.Asm.asm -> unit;
}

and frag = slot array

and slot = { mutable sops : Op.t list; mutable sctl : payload option }

let empty_slot () = { sops = []; sctl = None }

(* Fragments are made from this long-lived slot: a fresh one then
   replaces it in every position, and a fragment that is only read (a
   branch padded at emission) keeps it. *)
let blank = empty_slot ()

let empty_frag n =
  let f = Array.make n blank in
  for i = 0 to n - 1 do
    f.(i) <- empty_slot ()
  done;
  f

(* ---------------------------------------------------------------- *)

let rec expands_payload = function
  | P_op _ -> false
  | P_loop _ -> true
  | P_if { then_; else_; _ } -> frag_expands then_ || frag_expands else_

and frag_expands f =
  Array.exists
    (fun s ->
      match s.sctl with Some p -> expands_payload p | None -> false)
    f

let expands u = expands_payload u.payload

let of_op (m : Machine.t) ~sid (op : Op.t) : t =
  let uses = List.map (fun r -> (r, 0)) (Op.reads op) in
  let defs =
    match op.dst with
    | None -> []
    | Some d -> [ (d, Machine.latency m op.kind) ]
  in
  let mems =
    match op.addr with
    | None -> []
    | Some a ->
      [ { seg = a.Op.seg; write = Op.is_store op; sub = a.Op.sub; at = 0;
          summary = false } ]
  in
  let resv = Machine.reservation m op.kind in
  { sid; len = 1; uses; defs; mems; resv; payload = P_op op; no_wrap = false }

let union_resv (a : (int * int) list) (b : (int * int) list) =
  let count l =
    let h = Hashtbl.create ~random:false 16 in
    List.iter
      (fun key ->
        Hashtbl.replace h key (1 + Option.value ~default:0 (Hashtbl.find_opt h key)))
      l;
    h
  in
  let ca = count a and cb = count b in
  let keys = Hashtbl.create ~random:false 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) ca;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) cb;
  Hashtbl.fold
    (fun key () acc ->
      let n =
        max
          (Option.value ~default:0 (Hashtbl.find_opt ca key))
          (Option.value ~default:0 (Hashtbl.find_opt cb key))
      in
      List.init n (fun _ -> key) @ acc)
    keys []

(* ---------------------------------------------------------------- *)

let rec subst_payload f = function
  | P_op op -> P_op (Op.map_regs f op)
  | P_if { cond; then_; else_ } ->
    P_if { cond = f cond; then_ = subst_frag f then_; else_ = subst_frag f else_ }
  | P_loop { prolog; epilog; mid } ->
    let emit_mid ~rename ~depth asm =
      mid.emit_mid ~rename:(fun r -> rename (f r)) ~depth asm
    in
    P_loop
      { prolog = subst_frag f prolog;
        epilog = subst_frag f epilog;
        mid = { emit_mid } }

and subst_frag f frag =
  Array.map
    (fun s ->
      { sops = List.map (Op.map_regs f) s.sops;
        sctl = Option.map (subst_payload f) s.sctl })
    frag

(* ---------------------------------------------------------------- *)

let pp ppf u =
  let tag =
    match u.payload with
    | P_op op -> Op.to_string op
    | P_if _ -> "if-node"
    | P_loop _ -> "loop-node"
  in
  Fmt.pf ppf "u%d[len=%d] %s" u.sid u.len tag

(** Scheduling units and code fragments.

    A {e unit} is what the scheduler places: either a single
    micro-operation or an already-scheduled control construct that
    hierarchical reduction has collapsed into "an object similar to an
    operation in a basic block" (paper, abstract). A unit carries
    every scheduling-relevant fact about its contents:

    - the registers it reads and writes, with relative times;
    - its memory effects, with subscript descriptors where known;
    - its resource reservation (for a reduced conditional, the
      {e union} — per-slot maximum — of the two branches, Section 3.1);
    - its length in instructions.

    A {e fragment} is scheduled code that is still mergeable: an array
    of slots each holding simple operations and possibly one reduced
    control construct starting there. Operations that the parent
    schedule placed in parallel with a conditional are merged into both
    branches at emission time (Section 3.1: "any code scheduled in
    parallel with the conditional statement is duplicated in both
    branches"). *)

open Sp_ir
module Opkind = Sp_machine.Opkind
module Machine = Sp_machine.Machine

type mem_eff = {
  seg : Memseg.t;
  write : bool;
  sub : Subscript.t option;
  at : int;  (** time relative to unit start *)
  summary : bool;
      (** whole-construct summary effect (reduced loop): ordered even
          against segments carrying the [independent] directive, which
          only disambiguates individual references *)
}

type t = {
  sid : int;
  len : int;                   (** instructions occupied, >= 1 *)
  uses : (Vreg.t * int) list;  (** register read at relative time *)
  defs : (Vreg.t * int) list;  (** register readable from relative time *)
  mems : mem_eff list;
  resv : (int * int) list;     (** (relative time, resource id) pairs *)
  payload : payload;
  no_wrap : bool;
      (** must not straddle the steady-state boundary when pipelined *)
  barrier : bool;
      (** cannot overlap anything (unknown-length inner loop) *)
}

and payload =
  | P_op of Op.t
  | P_if of ifpayload
  | P_loop of looppayload

and ifpayload = { cond : Vreg.t; then_ : frag; else_ : frag }

and looppayload = {
  prolog : frag;   (** mergeable prolog slots *)
  epilog : frag;   (** mergeable epilog slots *)
  mid : mid_emit;  (** sealed middle: kernel or whole fallback loop *)
}

(** Emitter for the sealed middle of a reduced loop. Receives the
    register substitution accumulated by enclosing unrolls and the
    hardware-loop-counter nesting depth. *)
and mid_emit = {
  emit_mid :
    rename:(Vreg.t -> Vreg.t) -> depth:int -> Sp_vliw.Prog.Asm.asm -> unit;
}

and frag = slot array

and slot = { mutable sops : Op.t list; mutable sctl : payload option }

let empty_slot () = { sops = []; sctl = None }
let empty_frag n = Array.init n (fun _ -> empty_slot ())

(* ---------------------------------------------------------------- *)

(** Does this unit expand at emission time beyond its static length —
    i.e. does it contain a loop anywhere? Static operand times inside
    such a unit under-approximate dynamic ones, so its reduction must
    pin live-ins and memory effects to the unit's end (see
    {!Sp_core.Compile}). *)
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

let is_op u = match u.payload with P_op _ -> true | _ -> false

let op_exn u =
  match u.payload with
  | P_op op -> op
  | _ -> invalid_arg "Sunit.op_exn: not a simple operation"

(** Unit for a single micro-operation on machine [m]. *)
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
  { sid; len = 1; uses; defs; mems; resv; payload = P_op op;
    no_wrap = false; barrier = false }

(** Per-slot maximum of two reservations: the resource requirement of a
    node that will execute one of two alternatives (Section 3.1: "the
    value of each entry in the resource reservation table is the
    maximum of the corresponding entries in the tables of the two
    branches"). Reservations are multisets of (time, resource) pairs. *)
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

(** Merge two (reg, time) association lists keeping, per register, the
    given extremum of the times. *)
let merge_times pick a b =
  let h = Hashtbl.create ~random:false 16 in
  List.iter
    (fun ((r : Vreg.t), t) ->
      let t =
        match Hashtbl.find_opt h r.Vreg.id with
        | None -> t
        | Some (_, t') -> pick t t'
      in
      Hashtbl.replace h r.Vreg.id (r, t))
    (a @ b);
  Hashtbl.fold (fun _ rt acc -> rt :: acc) h []

(* ---------------------------------------------------------------- *)
(* Register substitution, applied when unrolled kernel copies rename
   modulo-expanded variables. *)

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

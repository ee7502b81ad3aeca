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

val blank : slot
(** An empty slot that nothing writes. OCaml 5 forces a minor
    collection to make an array of more than 256 words from a young
    element, so arrays of slots are made from this long-lived one and
    then filled. *)

val empty_frag : int -> frag
(** [n] fresh empty slots. *)

val expands : t -> bool
(** Does this unit expand at emission time beyond its static length —
    i.e. does it contain a loop anywhere? Static operand times inside
    such a unit under-approximate dynamic ones, so its reduction must
    pin live-ins and memory effects to the unit's end (see
    {!Compile}). *)

val of_op : Sp_machine.Machine.t -> sid:int -> Op.t -> t
(** Unit for a single micro-operation on the machine. *)

val union_resv : (int * int) list -> (int * int) list -> (int * int) list
(** Per-slot maximum of two reservations: the resource requirement of a
    node that will execute one of two alternatives (Section 3.1: "the
    value of each entry in the resource reservation table is the
    maximum of the corresponding entries in the tables of the two
    branches"). Reservations are multisets of (time, resource) pairs. *)

val subst_payload : (Vreg.t -> Vreg.t) -> payload -> payload
(** Register substitution, applied when unrolled kernel copies rename
    modulo-expanded variables. *)

val pp : Format.formatter -> t -> unit

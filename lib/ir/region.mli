(** Hierarchical program regions — the block-structured constructs the
    paper's hierarchical reduction schedules from the inside out. *)

(** Trip count: a compile-time constant, or a register read once at
    loop entry (the run-time case that triggers the Section 2.4
    two-version scheme). *)
type bound = Const of int | Reg of Vreg.t

type t =
  | Ops of Op.t list        (** straight-line code *)
  | Seq of t list
  | If of { cond : Vreg.t; then_ : t; else_ : t }
      (** two-way conditional on an integer register ([<> 0] = then) *)
  | For of { iv : Vreg.t; n : bound; body : t }
      (** [for iv = 0 to n-1]; front ends normalize loops to base 0,
          step 1 *)

val iter_ops : (Op.t -> unit) -> t -> unit
val ops_count : t -> int

val innermost_loops : t -> t list
(** The [For] regions containing no other loop. *)

val contains_loop : t -> bool

val pp : Format.formatter -> t -> unit

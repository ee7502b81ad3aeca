(** Very long instruction words: any number of micro-operations per
    word (capacity enforced by {!Check}) plus one sequencer control
    field. Hardware loop counters model Warp's sequencer-side looping
    support, so loop control never competes with the datapath. *)

type label = int
(** Symbolic until {!Prog.Asm.finish}; instruction index afterwards. *)

type ctl =
  | Next
  | Halt
  | Jump of label
  | CJump of { cond : Sp_ir.Vreg.t; if_zero : bool; target : label }
      (** branch when [cond <> 0] (or [= 0] when [if_zero]); the
          register is read at issue *)
  | CtrSet of { ctr : int; value : int }
  | CtrSetR of { ctr : int; reg : Sp_ir.Vreg.t }
  | CtrLoop of { ctr : int; target : label }
      (** decrement; jump while still positive *)
  | CtrJumpLt of { ctr : int; bound : int; target : label }

type t = { ops : Sp_ir.Op.t list; ctl : ctl }

val empty : t
val to_buffer : Buffer.t -> t -> unit
(** Appends the listing form [\[op; op\] control], e.g.
    [\[%i4 <- aadd %i4 #1\] ctrloop0 L3]. *)

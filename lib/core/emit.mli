(** Code emission.

    Turns scheduled fragments into VLIW instructions:

    - straight-line slots become instruction words;
    - a reduced conditional expands into a diamond — one shared
      instruction holding the test plus everything co-scheduled at its
      first slot, then the two branch bodies, {e each also containing a
      copy of every operation the parent scheduled in parallel with the
      construct} (paper Section 3.1), padded to a common length so the
      surrounding schedule's timing holds on both paths;
    - a reduced loop expands into (peel +) prolog + unrolled kernel +
      epilog, with the two-version scheme of Section 2.4 when the trip
      count is a run-time value.

    The pipelined loop layout follows the schedule exactly: operation
    [x] of iteration [i] issues at time [sigma(x) + i*s]; the prolog
    covers times [0, (SC-1)*s), each kernel copy one [s]-window of the
    steady state ([u] copies, [u] = the modulo-variable-expansion
    unrolling degree), and the epilog drains the last [SC-1]
    iterations. *)

open Sp_ir

val no_extras : Op.t list array
(** No parent-level operations to merge into a fragment. *)

val emit_slots :
  Sp_vliw.Prog.Asm.asm ->
  rename:(Vreg.t -> Vreg.t) ->
  depth:int ->
  Sunit.frag ->
  extras:Op.t list array ->
  unit
(** Emit a fragment with hardware counter nesting [depth], merging
    [extras.(k)] (operations the parent scheduled at relative slot [k])
    into slot [k] and into every branch of a construct that spans it. *)

val identity_rename : Vreg.t -> Vreg.t

val seq_frag : Sunit.t array -> Listsched.placement -> r_len:int -> Sunit.frag
(** The sequentially executed body: every unit at its compacted time,
    padded to the restart interval [r_len]. *)

val seq_resv : Sunit.t array -> Listsched.placement -> (int * int) list
(** The reservation of {!seq_frag}'s body: every unit's entries at its
    compacted time, the last unit's last entry first. *)

type pipe_frags = {
  f_prolog : Sunit.frag;
  f_kernel : Sunit.frag;
  f_epilog : Sunit.frag;
  prolog_resv : (int * int) list;
  epilog_resv : (int * int) list;
  sc : int;  (** stage count *)
  unroll : int;
}

val pipe_frags : Sunit.t array -> Modsched.schedule -> Mve.t -> pipe_frags
(** Expand a modulo schedule into prolog / unrolled-kernel / epilog
    fragments with modulo-variable-expansion renaming per iteration.
    Fault site [emit.kernel]. *)

val emit_op_chain :
  Sp_vliw.Prog.Asm.asm ->
  Sp_machine.Machine.t ->
  rename:(Vreg.t -> Vreg.t) ->
  Op.t list ->
  unit
(** Emit a chain of scalar setup operations, one per instruction, each
    followed by enough empty words for its result to be readable. *)

type count = Known of int | Runtime of Vreg.t

val emit_counted_loop :
  Sp_vliw.Prog.Asm.asm ->
  rename:(Vreg.t -> Vreg.t) ->
  depth:int ->
  count:count ->
  Sunit.frag ->
  unit
(** Emit a counted loop over a fragment, using hardware counter
    [depth]. A loop node is charged one slot of its parent's schedule
    for the loop proper, so even a statically zero-trip loop emits one
    (empty) word — dropping it would land every parent operation after
    the construct a cycle early, breaking latencies of parent values in
    flight across it. *)

val preset_counter :
  Sp_vliw.Prog.Asm.asm ->
  rename:(Vreg.t -> Vreg.t) ->
  depth:int ->
  passes:count ->
  unit
(** Load the kernel pass counter. The word between the prolog's last
    instruction and the kernel's first is part of the modulo timeline —
    inserting anything there shifts every in-flight prolog value by a
    cycle. An immediate counter set piggybacks on the previous word; a
    register-read counter set cannot (the register may land later), so
    run-time pass counts must be preset {e before} the prolog, and the
    kernel emitted with [~preset:true]. *)

val emit_kernel :
  ?preset:bool ->
  Sp_vliw.Prog.Asm.asm ->
  rename:(Vreg.t -> Vreg.t) ->
  depth:int ->
  passes:count ->
  Sunit.frag ->
  unit
(** Emit kernel passes: counter-driven repetition of the unrolled
    steady state (see {!preset_counter}). *)

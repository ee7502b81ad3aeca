(** Cycle-accurate VLIW simulator.

    Timing contract (shared with the scheduler's dependence model):
    one instruction per cycle; operations read sources at issue;
    results land exactly [latency] cycles later; stores become visible
    the following cycle; control takes effect on the next instruction;
    channel operations act at issue. See DESIGN.md Section 6. *)

open Sp_ir

exception Write_conflict of string
(** Two in-flight writes landing on one register in the same cycle — a
    scheduling bug, never legal output of the compiler. *)

exception Cycle_limit of int

type result = {
  state : Machine_state.t;
  cycles : int;
  flops : int;
  dyn_ops : int;
  res_busy : int array;
      (** issue-slot uses per resource id over the whole execution —
          each issued operation contributes one use per entry of its
          reservation. Feed to {!Stats.utilization}. *)
}

val run :
  ?channels:int ->
  ?inputs:float list list ->
  ?max_cycles:int ->
  ?ctrs:int ->
  ?init:(Machine_state.t -> unit) ->
  Sp_machine.Machine.t ->
  Program.t ->
  Prog.t ->
  result
(** [run m p code] executes [code] on machine [m] against a fresh state
    for program [p] (which supplies the memory segments; the register
    file holds the registers [code] names). [inputs] feeds the input
    channels; [init] fills memory
    before execution; [ctrs] is the number of hardware loop counters. *)

val mflops : Sp_machine.Machine.t -> result -> float

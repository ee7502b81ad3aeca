(** Co-simulation of a linear array of cells — the Warp machine proper:
    cell [k]'s channel 0/1 outputs feed cell [k+1]'s channel 0/1 inputs
    through bounded FIFO queues, and a cell stalls for the cycle when
    any receive of its word finds its queue empty or any send finds it
    full. *)

open Sp_ir

exception Write_conflict of string
exception Cycle_limit of int

type result = {
  cycles : int;  (** cycles until every cell halted *)
  flops : int;  (** total over the array *)
  per_cell_stalls : int array;
  states : Machine_state.t array;
  outputs : float list array;
      (** what the last cell's output queues received, per channel *)
}

val run :
  ?cells:int ->
  ?queue_capacity:int ->
  ?feed:float list list ->
  ?max_cycles:int ->
  ?ctrs:int ->
  ?init:(int -> Machine_state.t -> unit) ->
  Sp_machine.Machine.t ->
  Program.t ->
  Prog.t array ->
  result
(** Run [cells] copies of a (homogeneous) compiled program, or distinct
    programs per cell via [codes] (cell [k] runs [codes.(k mod n)]).
    [feed] supplies the first cell's input streams; the last cell's
    outputs drain into an unbounded sink. [queue_capacity] defaults to
    Warp's 512 words. *)

val mflops : Sp_machine.Machine.t -> result -> float

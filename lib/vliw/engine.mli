(** The decoded cell engine: one VLIW cell's issue loop, shared by the
    single-cell simulator {!Sim} and the array co-simulator
    {!Array_sim}. It keeps the timing contract of DESIGN.md Section 6:
    operations read at issue, a write lands at issue + [max 1 latency],
    stores commit at the end of the cycle in issue order, and control
    takes effect on the next cycle. *)

open Sp_ir

exception Write_conflict of string
(** Two writes to one register fall due in the same cycle, whatever
    cycles they were issued in. *)

type program
(** A program decoded against a machine: per word, the operations with
    their latencies, reserved resource ids, flop count and channels.
    The ring of pending writes is sized from its largest latency. *)

val decode : Sp_machine.Machine.t -> Prog.t -> program
(** Raises [Invalid_argument] when the machine has no description for
    an operation of the program, reachable or not. *)

val regs : program -> int
(** One above the highest register id the code names: the register
    file a cell running it needs. *)

(** How a cell reaches its channels. A word whose channels are not all
    ready stalls for the cycle, with no effect. *)
type io = {
  recv : int -> float;
  send : int -> float -> unit;
  can_recv : int -> bool;
  can_send : int -> bool;
}

type t

val create :
  ?ctrs:int -> ?label:string -> ?io:io -> program -> Machine_state.t -> t
(** A cell at pc 0 with [ctrs] zeroed loop counters. [io] defaults to
    the state's own channels, which never stall; [label] prefixes
    {!Write_conflict} messages. *)

val step : t -> int -> bool
(** [step e cycle] lands the writes due at [cycle], then issues (or
    stalls) the word at pc. [false] when there was no word: the cell
    has halted, or just did by leaving the program. *)

val drain : t -> int -> unit
(** [drain e cycle] lands every write still in flight at [cycle]. *)

val halted : t -> bool
val stalls : t -> int
val state : t -> Machine_state.t

val flops : t -> int
val dyn_ops : t -> int
val res_busy : t -> int array
(** Issue-slot uses per resource id over the run so far. *)

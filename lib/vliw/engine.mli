(** The decoded cell engine: one VLIW cell's issue loop, shared by the
    single-cell simulator {!Sim} and the array co-simulator
    {!Array_sim}. It keeps the timing contract of DESIGN.md Section 6:
    operations read at issue, a write lands at issue + [max 1 latency],
    stores commit at the end of the cycle in issue order, and control
    takes effect on the next cycle. Operations run through
    {!Semantics.exec}, the interpreter's executor. *)

open Sp_ir

exception Write_conflict of string
(** Two writes to one register fall due in the same cycle, whatever
    cycles they were issued in. *)

exception Cycle_limit of int
(** {!run} passed its limit; carries the cycle reached. *)

type program
(** A program decoded against a machine: its operations, decoded, with
    their latencies, word by word. The ring of pending writes is sized
    from its largest latency and its widest cycle of writes. *)

val decode : Sp_machine.Machine.t -> Prog.t -> program
(** Raises [Invalid_argument] when the machine has no description for
    an operation of the program, and {!Machine_state.Type_error} when
    an operand's register class does not match its kind or a branch or
    counter reads a float register, reachable or not. *)

val regs : program -> int
(** One above the highest register id the code names: the register
    file a cell running it needs. *)

type t

val create :
  ?ctrs:int -> ?label:string -> ?capacity:int -> program -> Machine_state.t -> t
(** A cell at pc 0 with [ctrs] zeroed loop counters, running on the
    state's channels ({!Machine_state.link} joins them to other cells').
    Without [capacity] a word never stalls, and a receive from an empty
    channel raises {!Machine_state.Channel_empty}. With it, a word
    stalls for the cycle, with no effect, while one of its receive
    channels is empty or one of its send channels holds [capacity]
    values. [label] prefixes {!Write_conflict} messages. *)

val step : t -> int -> bool
(** [step e cycle] lands the writes due at [cycle], then issues (or
    stalls) the word at pc. [false] when there was no word: the cell
    has halted, or just did by leaving the program. *)

val run : t -> max_cycles:int -> int
(** Step from cycle 0 until the cell halts, and return the cycle it
    halted at. Leaving the program halts without spending a cycle; a
    [Halt] word spends its own. Raises {!Cycle_limit} past
    [max_cycles]. *)

val drain : t -> int -> unit
(** [drain e cycle] lands every write still in flight at [cycle]. *)

val halted : t -> bool
val stalls : t -> int
val state : t -> Machine_state.t

val flops : t -> int
val dyn_ops : t -> int
val res_busy : t -> int array
(** Issue-slot uses per resource id over the run so far. *)

(** Architectural state shared by the reference interpreter and the
    VLIW simulators: register file, per-segment data memory, and the
    communication queues. Final states are comparable — that is how
    every schedule is validated against the sequential semantics. *)

open Semantics

type t

val create : ?channels:int -> regs:int -> Program.t -> t
(** Fresh state for a program: [regs] registers zeroed (integer zero),
    memory segments zero-filled, queues empty. The interpreter needs
    the program's registers, a simulator those its code names, which
    include the ones a compile drew beyond the program's own. *)

val set_input : t -> int -> float list -> unit
(** Queue input data on a channel. *)

val outputs : t -> int -> float list
(** Everything sent on an output channel, in order. *)

val read : t -> Vreg.t -> value
val write : t -> Vreg.t -> value -> unit

exception Out_of_bounds of string
exception Channel_empty of int

val load : t -> Memseg.t -> int -> value
val store : t -> Memseg.t -> int -> value -> unit
val recv : t -> int -> float
val send : t -> int -> float -> unit

val init_farray : t -> Memseg.t -> (int -> float) -> unit
val init_iarray : t -> Memseg.t -> (int -> int) -> unit
val get_farray : t -> Memseg.t -> float array
val get_iarray : t -> Memseg.t -> int array

val observably_equal : t -> t -> bool
(** Memory and channel outputs equal (NaN-tolerant); registers are not
    compared — schedules legitimately leave different garbage in
    temporaries. *)

val ctx :
  ?st:(Memseg.t -> int -> value -> unit) ->
  ?recv:(int -> float) ->
  ?send:(int -> float -> unit) ->
  t ->
  Semantics.ctx
(** Execution context over this state: registers and loads read it
    directly. Stores and channel operations act on it too unless
    overridden — the simulators buffer stores to the end of the cycle,
    and the array co-simulator routes channels through its queues. *)

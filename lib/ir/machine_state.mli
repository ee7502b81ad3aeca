(** Architectural state shared by the reference interpreter and the
    VLIW simulators: register files, per-segment data memory, and the
    communication queues. Final states are comparable — that is how
    every schedule is validated against the sequential semantics.

    The register files are typed, as the Warp cell's are split: an F
    register lives in a [float array], an I register in an [int array],
    both indexed by vreg id. {!Semantics} checks every operand's class
    when it decodes an operation, so its executor reads and writes the
    files unboxed. A per-register flag on the F file records whether
    the register has been written: reading it before then is a
    {!Type_error}. *)

type value = VF of float | VI of int
(** A register's content as {!read} and {!write} see it. *)

exception Type_error of string
(** An operand of the wrong register class, or a float register read
    before any write. *)

exception Out_of_bounds of string
(** A memory access outside its segment: ["a[4] (size 4)"]. *)

exception Channel_empty of int
(** A receive from an empty input channel (the simulator's channels
    never stall; the array co-simulator's do instead). *)

type segdata = SF of float array | SI of int array

(** A queue of floats on one channel end: its values are [buf.(head)]
    up to [buf.(tail - 1)]. The executor dequeues and enqueues in
    place. *)
type chan = {
  mutable buf : float array;
  mutable head : int;
  mutable tail : int;
}

(** The fields are read by {!Semantics}'s executor and the simulators'
    engine, which write the register files and memory in place; the
    functions below are the interface everything else uses. *)
type t = private {
  f : float array;  (** the F file *)
  fset : Bytes.t;  (** per F register: ['\001'] once written *)
  i : int array;  (** the I file *)
  mem : segdata option array;  (** per segment id *)
  rx : chan array;  (** the channels receives dequeue from *)
  tx : chan array;  (** the channels sends enqueue to *)
  output : chan array;
      (** the state's own output channels: [tx] unless {!link}ed *)
  res_f : float array;  (** [[|x|]]: the last float result computed *)
  res_i : int array;  (** [[|n|]]: the last int result computed *)
}

val create : ?channels:int -> regs:int -> Program.t -> t
(** Fresh state for a program: [regs] registers (F registers unwritten,
    I registers zero), memory segments zero-filled, queues empty. The
    interpreter needs the program's registers, a simulator those its
    code names, which include the ones a compile drew beyond the
    program's own. *)

val set_input : t -> int -> float list -> unit
(** Queue input data on a channel. *)

val outputs : t -> int -> float list
(** Everything sent on one of the state's own output channels, in
    order. *)

val chan : float list -> chan
(** A queue holding these values. *)

val chan_to_list : chan -> float list

val link : t -> rx:chan array -> tx:chan array -> unit
(** Receive from [rx] and send to [tx] instead of the state's own
    channels, which stay empty: how the array co-simulator joins its
    cells by queues. *)

val read : t -> Vreg.t -> value
(** An F register reads as [VF] once written and as [VI 0] before. *)

val write : t -> Vreg.t -> value -> unit
(** Raises {!Type_error} when the value's class is not the
    register's. *)

val init_farray : t -> Memseg.t -> (int -> float) -> unit
val init_iarray : t -> Memseg.t -> (int -> int) -> unit
val get_farray : t -> Memseg.t -> float array
val get_iarray : t -> Memseg.t -> int array

val observably_equal : t -> t -> bool
(** Memory and channel outputs equal (NaN-tolerant); registers are not
    compared — schedules legitimately leave different garbage in
    temporaries. *)

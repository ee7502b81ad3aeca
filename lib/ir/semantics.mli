(** Operational semantics of individual operations, shared between the
    sequential interpreter and the cycle-accurate simulators so the two
    agree bit-for-bit — any divergence observed in tests is a
    scheduling bug, not a semantics mismatch.

    An {!Op.t} is decoded once into an {!op}: its kind, register ids
    whose classes the decoder has checked against the kind, the
    immediate, and the address. {!exec} runs that record on the typed
    register files of a {!Machine_state.t} and allocates nothing. *)

module Opkind = Sp_machine.Opkind

val quantize8 : float -> float
(** Round to 8 mantissa bits — the model of a hardware seed table. *)

val recip_seed : float -> float
val rsqrt_seed : float -> float

(** A decoded operation. Register ids are [-1] where there is none. *)
type op = private {
  kind : Opkind.t;
  dst : int;  (** where the result goes; [-1] if it is discarded *)
  fres : bool;  (** the result is a float *)
  a : int;  (** sources, in the order of the operation's [srcs] *)
  b : int;
  c : int;
  fimm : float;  (** [Fconst]'s value *)
  iimm : int;  (** [Iconst]'s value *)
  seg : Memseg.t;  (** loads and stores: the segment *)
  base : int;
  idx : int;
  off : int;
  src : Op.t;  (** the operation decoded *)
}

val decode_list : Op.t list -> op array
(** Decode each operation, in order. Raises {!Machine_state.Type_error}
    when an operand's register class does not match the kind (an [Fadd]
    reading an I register, a load into a register of the other class
    than its segment), a source or immediate is missing, or an
    operation with no result names a destination. *)

val exec : Machine_state.t -> op -> unit
(** Execute one operation, reading the registers as they stand.
    Stores, receives and sends act on the state at once; a result is
    left in [res_f] or [res_i] for the caller to write back. Raises
    {!Machine_state.Type_error} on a float register never written,
    {!Machine_state.Out_of_bounds} and {!Machine_state.Channel_empty}. *)

val run : Machine_state.t -> op -> unit
(** {!exec}, then write the result to its destination at once: the
    sequential interpreter's step. *)

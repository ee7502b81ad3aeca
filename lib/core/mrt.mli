(** Resource reservation tables: the modulo table of the paper's
    Section 2.1 ("the resource usage of time t is mapped to that of
    time t mod s") and the unbounded table used when compacting
    straight-line code.

    Both tables track {e conflicts}: a failed [fits] probe
    deterministically charges the first resource whose limit the
    reservation would exceed (scanning the reservation in list order)
    — exactly one conflict per failed [fits] call, so the per-resource
    conflict counts sum to the number of failed placement attempts.
    No probe allocates. *)

module Modulo : sig
  type t

  val create : Sp_machine.Machine.t -> s:int -> t

  val fits : t -> at:int -> (int * int) list -> bool
  (** May a reservation (a multiset of [(offset, resource)] pairs) be
      placed with its origin at time [at]? Demand from offsets that are
      congruent modulo [s] is summed before checking the limit. On
      failure, records the conflicting (slot, resource). *)

  val add : t -> at:int -> (int * int) list -> unit
  val remove : t -> at:int -> (int * int) list -> unit

  val conflicts : t -> int array
  (** Failed placement probes charged per resource id (a copy). The
      array sums to the number of [fits] calls that returned false. *)

  val conflict_slot : t -> int
  val conflict_rid : t -> int
  (** Slot and resource id of the most recent failed probe; the
      resource id is [-1] before any probe fails. *)

  val last_conflict : t -> (int * int) option
  (** [(slot, resource id)] of the most recent failed probe. *)
end

module Linear : sig
  type t

  val create : Sp_machine.Machine.t -> t

  val take : Sp_machine.Machine.t -> t
  (** The calling domain's table for the machine's resource limits,
      emptied. It stays valid until the next [take] on the same domain,
      which reuses (and empties) it. *)

  val fits : t -> at:int -> (int * int) list -> bool
  val add : t -> at:int -> (int * int) list -> unit

  val earliest : t -> est:int -> (int * int) list -> int
  (** The first origin at or after [est] where the reservation fits —
      the slot a loop of [fits] from [est] upward returns, leaving the
      same {!last_conflict} and charging the same [mrt.probes]
      ([est] to the result, inclusive) — found by jumping over origins
      that provably fail. It charges no per-resource {!conflicts}.
      Raises [Invalid_argument] when no origin within a million slots
      of [est] fits. *)

  val conflicts : t -> int array
  (** Failed [fits] calls charged per resource id (a copy). *)

  val last_conflict : t -> (int * int) option
end

(** Lower bounds on the initiation interval (paper Section 2.2.1). *)

type t = {
  res_mii : int;  (** resource-constrained bound *)
  rec_mii : int;  (** recurrence-constrained bound *)
  mii : int;      (** max of the two, at least 1 *)
}

val per_resource :
  Sp_machine.Machine.t -> Sunit.t array -> (string * int) list
(** Reservation-slot demand of one iteration, per resource name (used
    resources only, machine declaration order). Dividing by
    [interval * count] gives the modulo-reservation-table occupancy the
    schedule-quality profile reports. *)

val compute : Sp_machine.Machine.t -> Sunit.t array -> rec_mii:int -> t
(** Combine the resource bound of the units with a recurrence bound
    from {!Modsched.analyze}. *)

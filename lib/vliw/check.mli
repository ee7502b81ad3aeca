(** Static resource-discipline checker: verifies that no instruction of
    an assembled program oversubscribes any machine resource. Exact for
    the machines in this repository (all reservations at offset 0). *)

type violation = {
  at : int;          (** instruction index *)
  resource : string;
  used : int;
  avail : int;
}

val pp_violation : Format.formatter -> violation -> unit

val check_prog : Sp_machine.Machine.t -> Prog.t -> violation list
(** All violations, in instruction order (resources by id within an
    instruction); [[]] for legal code. The tallies live in a per-domain
    window of the rows a reservation can still reach, not in a table
    sized to the program. *)

(** Virtual registers, typed by class — [F] (floating point) or [I]
    (integer) — matching the split register files of the Warp cell.
    There is no register allocator; modulo variable expansion checks
    expanded counts against the file capacities (paper Section 2.3). *)

type cls = F | I

type t = {
  id : int;      (** dense per program; passes index arrays by it *)
  cls : cls;
  name : string; (** for diagnostics; may be empty *)
}

val equal : t -> t -> bool
val to_buffer : Buffer.t -> t -> unit
(** Appends the listing form [%f12] / [%i3:k] (class, id, and the
    name when there is one). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Fresh-register supply, local to one program under construction. *)
module Supply : sig
  type supply

  val create : unit -> supply
  val count : supply -> int

  val copy : supply -> supply
  (** An independent supply that draws the same ids this one would. *)

  val fresh : supply -> ?name:string -> cls -> t
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

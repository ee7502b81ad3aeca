(** A whole IR program: memory segments plus a region tree, carrying
    the register/operation supplies so later passes can create fresh
    names that stay dense. *)

type t = {
  name : string;
  segs : Memseg.t list;
  body : Region.t;
  vregs : Vreg.Supply.supply;
  ops : Op.Supply.supply;
}

val num_vregs : t -> int

val find_seg : t -> string -> Memseg.t
(** Raises [Invalid_argument] for an unknown segment name. *)

val pp : Format.formatter -> t -> unit

(** Structural statistics for reporting. *)
type stats = {
  n_ops : int;
  n_loops : int;
  n_innermost : int;
  n_ifs : int;
}

val stats : t -> stats

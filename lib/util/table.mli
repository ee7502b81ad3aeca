(** Minimal aligned-column text tables, used by the benchmark harness to
    print the paper's tables. *)

type align = L | R

type t = {
  headers : string list;
  aligns : align list;
  rows : string list list ref;  (** newest first *)
}

val create : headers:string list -> aligns:align list -> t
(** Raises [Invalid_argument] unless there is one alignment per header. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] unless there is one cell per header. *)

val pp : Format.formatter -> t -> unit
(** The header, a rule, then the rows in the order they were added. *)

(** Fixed-bucket histograms.

    Originally text renderings for the figure reproductions (Figures
    4-1 and 4-2 of the paper are histograms over a program population);
    now also the distribution type of the telemetry series
    ([Sp_obs.Series]) and the campaign summary, so the shape operations
    are specified tightly:

    - {!add} clamps into range — the first bucket absorbs underflow,
      the last absorbs overflow — so [count] always equals the number
      of [add]s;
    - {!merge} of same-shaped histograms adds counts pointwise and is
      associative and commutative (bucket counts, totals and extrema
      all combine associatively);
    - {!quantile} is the standard nearest-rank estimate interpolated
      within the selected bucket, clamped to the observed extrema so
      singleton and constant distributions report exact values. *)

type t = {
  lo : float;  (** lower edge of the first bucket *)
  width : float;  (** bucket width *)
  counts : int array;  (** per-bucket counts; last bucket catches overflow *)
  mutable n : int;
  mutable total : float;
  mutable mn : float;  (** least sample; [infinity] when empty *)
  mutable mx : float;  (** greatest sample; [neg_infinity] when empty *)
}

val create : lo:float -> width:float -> buckets:int -> t
(** An empty histogram of [buckets] buckets of [width] from [lo].
    Raises [Invalid_argument] on a non-positive width or bucket count. *)

val add : t -> float -> unit
val of_list : lo:float -> width:float -> buckets:int -> float list -> t

val count : t -> int
val mean : t -> float
(** [0.] when empty. *)

val minimum : t -> float option
val maximum : t -> float option

val same_shape : t -> t -> bool
(** Same first edge, width and bucket count: what {!merge} requires. *)

val merge : t -> t -> t
(** A new histogram; neither argument is mutated or shared. Raises
    [Invalid_argument] unless {!same_shape}. *)

val quantile : t -> float -> float option
(** Nearest-rank quantile, interpolated within the bucket holding the
    rank and clamped to the observed extrema. [None] when empty;
    [quantile t 0.] is the minimum, [quantile t 1.] the maximum. *)

val pp : ?bar_unit:int -> Format.formatter -> t -> unit
(** Render with one row per bucket: [label | ### count]. *)

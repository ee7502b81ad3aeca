(** Rolling time series for service telemetry: a fixed-capacity ring
    buffer of [(seq, value)] samples indexed by a {e logical} sequence
    number (a request counter, a campaign seed — never a wall clock),
    aggregated into fixed-width windows of mergeable histograms.

    The logical clock is the determinism contract: two runs that admit
    the same requests in the same order produce byte-identical window
    snapshots, no matter how fast the machine was. Wall-clock derived
    {e values} (latencies) may be stored in a series — they stay out of
    byte-stable artifacts, which only read the deterministic fields
    (window indices, counts, histogram counts of counter-valued
    series).

    Windows are mergeable: {!merge_window} adds two snapshots of the
    same window index pointwise (counts, sums, extrema, histogram
    buckets) and is associative and commutative, so shards that each
    observed a disjoint slice of a window combine into the window's
    true aggregate in any order — the same contract as
    [Sp_util.Histogram.merge], which it is built on. *)

type t

val create :
  ?capacity:int ->
  ?window:int ->
  lo:float ->
  width:float ->
  buckets:int ->
  unit ->
  t
(** [capacity] (default 4096) bounds retained samples — older samples
    fall off the ring but stay counted in {!count} and in any window
    snapshot taken before they fell off. [window] (default 32) is the
    number of sequence numbers per window bucket. [lo]/[width]/
    [buckets] fix the histogram shape of every window of this series
    (shapes must match for windows to merge). *)

val add : ?seq:int -> t -> float -> unit
(** Record one sample. [seq] defaults to one past the last recorded
    sequence number (starting at 0); passing it explicitly lets a
    campaign index by seed. *)

val count : t -> int
(** Samples ever recorded, including those evicted from the ring. *)

val retained : t -> (int * float) list
(** The ring's live samples, oldest first. *)

(** One window's aggregate. [w_hist] has the series' shape; [w_count]
    is 0 for a window with no samples (then [w_sum] is 0 and the
    extrema are meaningless — {!quantile} reports [None]). *)
type window = {
  w_index : int;  (** samples with [seq / window = w_index] *)
  w_count : int;
  w_sum : float;
  w_min : float;
  w_max : float;
  w_hist : Sp_util.Histogram.t;
}

val windows : t -> window list
(** Aggregates of the retained samples, ascending window index; windows
    with no retained samples are omitted. *)

val window_at : t -> int -> window
(** The aggregate of retained samples in one window — possibly empty. *)

val merge_window : window -> window -> window
(** Pointwise sum of two snapshots of the {e same} window index (raises
    [Invalid_argument] otherwise, or on histogram shape mismatch).
    Associative and commutative; an empty window is an identity. *)

val quantile : window -> float -> float option
(** Nearest-rank quantile of the window's histogram ([None] when the
    window is empty). [quantile w 0.5] is the median, [0.99] the p99. *)

val merge : t -> t -> t
(** Union of two series' retained samples (sorted by sequence number,
    newest [capacity] kept) with summed totals, for combining shards
    that observed disjoint sequence ranges. Requires equal capacity,
    window size and histogram shape. *)

val to_json : t -> Json.t
(** Versioned snapshot: total count, retained bounds, and per-window
    aggregates with p50/p99. Deterministic given the same samples. *)

(** All-points longest paths with a symbolic initiation interval
    (paper Section 2.2.2), and the recurrence-constrained lower bound
    on the interval (Section 2.2.1).

    A path accumulating delay [d] and iteration difference [w]
    constrains [sigma(dst) - sigma(src) >= d - s*w] for initiation
    interval [s]. The closure is computed {e once}, with [s] symbolic:
    per node pair, the Pareto frontier of [(d, w)] pairs under
    dominance over the interval range actually searched. Dominance is
    an O(1) test at the two range endpoints (both constraint values are
    linear in [s]), and the finished closure is packed into one
    contiguous pair array behind an offset table so [query] — the
    per-candidate-interval hot path — scans adjacent words. *)

type t = {
  n : int;
  s_min : int;
  s_max : int;
  off : int array;
      (** [n*n + 1] entries, in pairs: the frontier of [(i, j)] spans
          pair indices [off.(i*n + j)] to [off.(i*n + j + 1) - 1] *)
  dat : int array;  (** interleaved [d, w] per pair *)
}

val compute :
  n:int -> edges:(int * int * int * int) list -> s_min:int -> s_max:int -> t
(** [compute ~n ~edges ~s_min ~s_max] over node-local indices; an edge
    is [(src, dst, delay, omega)]. Queries are valid for intervals in
    [s_min .. s_max]; callers pass [s_min >=] the recurrence bound,
    where every cycle has non-positive weight and the frontiers stay at
    hull size. *)

val no_path : int
(** What {!query} returns between two nodes with no path: [min_int],
    below every constraint a path can carry. *)

val query : t -> s:int -> int -> int -> int
(** Binding precedence constraint from one node to another at interval
    [s]: the maximum of [d - s*w] over the frontier; {!no_path} if no
    path. Raises [Invalid_argument] outside [s_min .. s_max]. *)

val has_positive_cycle :
  n:int -> edges:(int * int * int * int) list -> s:int -> bool
(** Bellman–Ford longest-path relaxation: is there a cycle of positive
    weight under [d - s*omega]? *)

val rec_mii_bound :
  n:int -> edges:(int * int * int * int) list -> s_max:int -> int
(** The recurrence lower bound: the smallest [s] at which no dependence
    cycle is positive — [max over cycles ceil(d(c)/p(c))] — found by
    binary search (cycle weight is decreasing in [s]). Returns
    [s_max + 2] when even [s_max + 1] leaves a positive cycle. *)

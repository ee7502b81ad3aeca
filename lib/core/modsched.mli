(** The software pipelining scheduler (paper Sections 2.2.1–2.2.2):
    per-component scheduling inside precedence-constrained ranges,
    condensation, list scheduling against the modulo reservation table,
    and the iterative search over initiation intervals. *)

open Sp_machine

type schedule = {
  s : int;             (** initiation interval *)
  times : int array;   (** issue time per unit, all non-negative *)
  span : int;          (** max over units of time + length *)
  sc : int;            (** stage count, [ceil(span / s)] *)
}

(** Analysis shared by the interval search: components, the recurrence
    bound, and per-component symbolic longest-path closures valid over
    the searched range. *)
type analysis = {
  a_scc : Scc.t;
  a_spaths : Spath.t option array;
  a_rec_mii : int;
}

val analyze : s_max:int -> Ddg.t -> analysis

(** The first clause of {!check} a schedule breaks. *)
type violation =
  | Shape  (** [s < 1], or not exactly one issue time per unit *)
  | Negative of int  (** this unit issues before time 0 *)
  | Edge of Ddg.edge
      (** [times.(dst) - times.(src) < delay - s * omega] *)
  | Wrap of int
      (** this [no_wrap] unit's occupancy does not fall within one
          [s]-window *)
  | Resource of { slot : int; rid : int }
      (** residue [slot] of the modulo reservation table holds more
          reservations of resource [rid] than the machine has units *)

val pp_violation : Format.formatter -> violation -> unit

val check :
  Machine.t -> Ddg.t -> s:int -> times:int array -> (unit, violation) result
(** Is [times] a legal modulo schedule of the graph at interval [s]?
    The one statement of the contract of the paper's Section 2, checked
    in this order: the shape, no negative time, every dependence edge,
    every no-wrap window, then the resource count of every residue.
    Costs nothing in {!Sp_obs.Cost}; callers charge their own units. *)

type search =
  | Linear  (** the paper's choice: schedulability is not monotonic *)
  | Binary  (** ablation: assumes monotonicity *)

(** Cost of a completed interval search: how many candidate intervals
    were probed and how many placement probes (fuel units) they cost in
    total — the raw material of the gap table's cost column. *)
type stats = {
  intervals_probed : int;
  fuel_spent : int;
}

(** Result of a budgeted interval search. *)
type outcome =
  | Scheduled of schedule * stats
  | No_interval of stats
      (** no interval in [\[mii, max_ii\]] is schedulable; the stats say
          what the failed search cost *)
  | Fuel_exhausted of stats
      (** the placement-probe budget ran out mid-search *)

val mk_schedule : Sunit.t array -> s:int -> int array -> schedule
(** Package issue times at interval [s] into a {!schedule} (span and
    stage count derived). Used by the exact scheduler in [Sp_opt] to
    return results in the heuristic's currency. *)

val schedule_with_budget :
  ?search:search ->
  ?analysis:analysis ->
  ?fuel:int ->
  Machine.t ->
  Ddg.t ->
  mii:int ->
  max_ii:int ->
  outcome
(** Search [max mii rec_bound .. max_ii] for the smallest schedulable
    interval, spending one unit of [fuel] per reservation-table probe
    (unlimited when omitted). [analysis] must come from {!analyze} with
    [s_max >= max_ii]; it is recomputed when omitted. *)

val schedule :
  ?search:search ->
  ?analysis:analysis ->
  Machine.t ->
  Ddg.t ->
  mii:int ->
  max_ii:int ->
  schedule option
(** {!schedule_with_budget} without a budget; [None] when no interval
    in range is schedulable. *)

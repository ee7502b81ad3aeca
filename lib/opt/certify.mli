(** Optimality certification of heuristic modulo schedules: an upward
    scan of candidate intervals, each decided exactly by
    {!Exact.solve}, measuring the paper's Section 4.1 near-optimality
    claim per loop. The scan is {e incremental} — a learned-nogood
    bank is carried (re-validated) from interval to interval — and can
    run a deterministic {e proof portfolio} of solver configurations
    per interval. *)

type certificate =
  | Optimal
      (** every interval below the heuristic's is proved infeasible *)
  | Improved of Sp_core.Modsched.schedule
      (** a validated schedule at the smallest feasible interval, which
          is strictly below the heuristic's *)
  | Unknown of { proven_below : int }
      (** fuel ran out; intervals [< proven_below] are infeasible *)

type outcome = {
  cert : certificate;
  spent : int;      (** total fuel across all intervals probed *)
  intervals : int;  (** number of intervals decided (or attempted) *)
}

val default_fuel : int
(** Budget used when none is given: {m 2\times10^6} fuel units. *)

val run :
  ?fuel:int ->
  ?analysis:Sp_core.Modsched.analysis ->
  ?learn:bool ->
  ?portfolio:int ->
  Sp_machine.Machine.t ->
  Sp_core.Ddg.t ->
  mii:int ->
  ii:int ->
  outcome
(** [run m g ~mii ~ii] certifies a heuristic schedule at interval [ii]
    against the lower bound [mii], scanning [max mii rec_mii .. ii - 1]
    upward (first feasible interval is the optimum — exact feasibility
    is not monotonic, so no binary search).

    [learn] (default true) enables conflict learning; each member's
    nogood bank is {!Nogood.carry}'d across the scan, so later
    intervals start from the survivors of earlier proofs.

    [portfolio] (default 1) decides each interval with that many
    solver configurations — distinct variable orders and seeds — on a
    {!Sp_util.Pool}. Every member runs to completion; the
    lowest-indexed decisive member is committed and all decisive
    members must agree on feasibility (a disagreement raises — it
    would mean a solver soundness bug). Each member records under
    {!Sp_obs.Phase.capture}, and only the committed member's trace,
    decision log and cost profile are replayed. The outcome is a pure
    function of the member results, hence byte-identical at any pool
    width; when a fault injection is armed the members run
    sequentially so global hit counters stay deterministic.

    Any schedule returned in {!Improved} has been re-verified by
    {!Sp_core.Modsched.check}; a schedule it rejects raises [Failure]
    naming the violation (a solver bug). Deterministic under a fixed
    budget and configuration. *)

val hook :
  ?fuel:int -> ?learn:bool -> ?portfolio:int -> unit ->
  Sp_core.Compile.certifier
(** Package {!run} as a {!Sp_core.Compile.certifier}, so improved
    schedules flow through the ordinary modulo variable expansion,
    emission, and validation path of the compiler. *)

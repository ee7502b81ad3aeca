(** The compiler: hierarchical reduction driving software pipelining.

    Programs are scheduled bottom-up (paper Section 3): innermost
    constructs first, each scheduled construct reduced to a single
    {!Sunit.t} that the enclosing construct schedules like an ordinary
    operation. Conditionals are reduced to the union of their branches'
    constraints; loops are software pipelined and reduced to nodes
    exposing their prolog/epilog for overlap with surrounding code,
    with the steady state's resources marked consumed (Section 3.2).

    Per-loop decisions mirror the paper's compiler:
    - pipelining is skipped when the locally compacted body is longer
      than a threshold (Section 4.2: the 331-instruction EXP loop of
      LFK 22 "was beyond the threshold that it used to decide if
      pipelining was feasible");
    - pipelining is abandoned when no initiation interval below the
      locally compacted restart interval is schedulable (LFK 16 and 20:
      "the calculated lower bound on the initiation interval were
      within 99% of the length of the unpipelined loop");
    - when modulo variable expansion overflows the register files, the
      loop reverts to the serial schedule (Section 2.3);
    - a compile-time trip count too small to reach the steady state
      selects the unpipelined version outright (Section 2.4).

    Every step of a loop's pipelining attempt runs inside a guard: an
    exhausted budget, an injected fault, an internal error or fragments
    that fail the timing contract degrade that loop alone to its serial
    schedule, and compilation continues. *)

open Sp_ir
open Sp_machine

(** Verdict of an optional exact-scheduling oracle on a heuristic
    result (see [Sp_opt.Certify]). [spent] is the oracle's fuel cost. *)
type certification =
  | Cert_optimal of { spent : int }
      (** exact search proved every interval below the heuristic's
          infeasible — the heuristic result is optimal *)
  | Cert_improved of { heur_ii : int; spent : int }
      (** the exact search found (and the compiler adopted) a schedule
          at a smaller interval than the heuristic's [heur_ii]; the
          adopted interval is itself proven optimal *)
  | Cert_unknown of { spent : int; proven_below : int }
      (** budget exhausted: intervals in [\[mii, proven_below)] are
          proven infeasible, the rest undecided *)

(** An optimality oracle the compiler can consult after the heuristic
    interval search succeeds. It receives the pipelining dependence
    graph, the shared search {!Modsched.analysis}, the interval lower
    bound and the heuristic schedule, and returns the schedule to adopt
    (the heuristic's, or a validated better one) with its certificate.
    Runs inside the per-loop degradation guard: an escaping exception
    reverts the loop to its serial schedule. *)
type certifier =
  Machine.t ->
  Ddg.t ->
  analysis:Modsched.analysis ->
  mii:int ->
  Modsched.schedule ->
  Modsched.schedule * certification

(** What a schedule cache stores and replays for one pipelined loop:
    the adopted schedule, the search stats that produced it (replayed
    into the loop report so a cache hit is byte-identical to the cold
    compile), and its certificate. MVE is deliberately absent — the
    expansion draws fresh registers from the compile's copy of the
    program's supply, so it is recomputed per compile. *)
type cached_sched = {
  cs_schedule : Modsched.schedule;
  cs_stats : Modsched.stats;
  cs_cert : certification option;
}

(** One consultation of a schedule cache for one loop. [cp_hit] is the
    verified reusable result, if any. [cp_commit] must be called at
    most once, from the sequential finish phase, with the schedule the
    loop actually adopted and validated — it inserts on a miss and
    refreshes recency on a hit. Keeping every mutation in the
    sequential phase (probes during the parallel analyze phase are
    read-only) makes the cache's evolution — and therefore the output
    — independent of the job count. *)
type cache_probe = {
  cp_hit : cached_sched option;
  cp_commit : cached_sched -> unit;
}

(** A schedule cache, as the compiler sees it: one probe function,
    called upstream of the interval search with the pipelining graph
    and the search window. Implementations ({!Sp_serve.Cache}) must
    verify any candidate against the graph's own constraints before
    returning it as a hit; the finish phase re-validates the expanded
    fragments regardless, so a defective hit can only cost work, never
    correctness. Runs inside the per-loop degradation guard and the
    [compile.cache] phase, so the work it counts lands in cost phase
    [cache]. *)
type cache = {
  cache_probe : Machine.t -> Ddg.t -> mii:int -> max_ii:int -> cache_probe;
}

type config = {
  pipeline : bool;          (** false = local compaction only (baseline) *)
  mve_mode : Mve.mode;
  search : Modsched.search;
  threshold : int;          (** max compacted body length for pipelining *)
  if_exclusive : bool;
      (** reduce conditionals to all-resources-consumed nodes
          (Section 3.1 fallback policy) instead of the branch union *)
  profit_margin : float;
      (** decline pipelining when the interval lower bound is already
          within this fraction of the serial restart length (paper
          Section 4.2 on LFK 16/20: "the calculated lower bound on the
          initiation interval were within 99%% of the length of the
          unpipelined loop"); 1.0 accepts any nominal gain *)
  fuel : int option;
      (** placement-probe budget per loop for the interval search
          ([Modsched.schedule_with_budget]); exhaustion degrades the
          loop to its serial schedule. [None] = unlimited. *)
  certifier : certifier option;
      (** optional optimality oracle consulted on every heuristic
          success; [None] = heuristic results are reported uncertified *)
  cache : cache option;
      (** optional content-addressed schedule cache consulted before
          the interval search (and before the certifier); [None] = every
          loop is scheduled from scratch *)
  jobs : int;
      (** domain-pool width for compiling independent innermost loops
          concurrently (sibling loops batch; results merge in loop
          order, so output is byte-identical for any width). [1] =
          fully sequential, no domain is ever spawned. *)
}

val default : config

val local_only : config
(** The Figure 4-2 baseline: individual basic blocks compacted, no
    pipelining, and no motion of operations into or around conditionals
    (a reduced conditional consumes every resource, so nothing
    co-schedules with it — the paper's "only compacting individual
    basic blocks"). *)

type status =
  | Pipelined
  | Disabled            (** config requested local compaction only *)
  | Over_threshold
  | Not_profitable      (** no interval below the serial restart length *)
  | Register_overflow
  | Trip_too_small
  | Budget_exhausted    (** the interval search ran out of fuel *)
  | Degraded of string
      (** an internal error (or injected fault) was caught during the
          pipelining attempt, or the pipelined fragments failed
          validation; the loop reverted to its serial schedule *)

val status_to_string : status -> string

val is_degraded : status -> bool
(** Did the loop fall back to its serial schedule because of an error
    or an exhausted budget (as opposed to a policy decision)? *)

type loop_report = {
  l_id : int;
  l_depth : int;             (** 0 = innermost *)
  n_units : int;
  has_if : bool;
  has_scc : bool;            (** a recurrence beyond the induction update *)
  res_mii : int;
  rec_mii : int;
  mii : int;
  seq_len : int;             (** restart interval of the compacted body *)
  ii : int option;           (** achieved initiation interval *)
  sc : int;                  (** stage count (0 when not pipelined) *)
  unroll : int;
  mve_fregs : int;
  mve_iregs : int;
  probed : int;              (** candidate intervals tried by the search *)
  fuel_spent : int;          (** placement probes the search cost *)
  res_use : (string * int) list;
      (** reservation-slot demand of one iteration per resource
          ({!Mii.per_resource}) — the numerator of MRT occupancy *)
  cert : certification option;
      (** optimality certificate, when a certifier was configured and
          the loop pipelined *)
  status : status;
  view : Sp_obs.Render.loop_view option;
      (** visual-artifact data (Gantt, MRT grid, lifetimes), populated
          only when {!Sp_obs.Render} is enabled and the loop pipelined *)
}

val efficiency : loop_report -> float
(** Lower bound on pipelining efficiency, the paper's Table 4-2 metric:
    achieved interval vs. the computed lower bound. 1.0 when optimal. *)

val cert_to_string : certification -> string

val pp_loop_report : Format.formatter -> loop_report -> unit

type result = {
  code : Sp_vliw.Prog.t;
  loops : loop_report list;
  code_size : int;
}

val fingerprint : result -> string
(** A stable textual digest of a compilation result: full generated
    code plus each loop's id/ii/mii/status. Two results fingerprint
    equal iff they emitted the same instructions and reached the same
    per-loop scheduling outcome — the determinism witness used by both
    the compile-speed benchmark (jobs=1 vs jobs=N) and the campaign's
    parallel-divergence oracle. *)

val listing : Machine.t -> Program.t -> result -> string
(** What [w2c compile] prints and [w2cd] serves for a compile: a
    one-line header naming the program, its size and the machine,
    then the {!Sp_vliw.Prog} listing. *)

val innermost_ddgs :
  ?config:config -> Machine.t -> Program.t -> (Vreg.t * Ddg.t) list
(** Debug/visualization aid: the dependence graph of each innermost
    loop body (without the synthesized induction update — the loops as
    the front end wrote them). Pair each with its induction register. *)

val compaction_graphs : ?config:config -> Machine.t -> Program.t -> Ddg.t list
(** Test aid: every graph {!program} list-schedules, in the order it
    schedules them (branch bodies, loop bodies, the top level), in
    emission order ({!Ddg.of_streams}). Compiles at [jobs = 1]. *)

val program : ?config:config -> Machine.t -> Program.t -> result
(** Compile a program. The program is not changed: the compile draws
    registers and operations from copies of its supplies, so compiling
    one program twice gives the same result. Sibling innermost loops
    are analyzed on a pool of [config.jobs] domains; the output is
    byte-identical for any width. *)

(** Streaming differential campaign over generated W2 programs:
    sharded by seed range, constant memory (compact per-program probes
    folded into running histograms and counters — nothing retained per
    program), resumable (summaries merge associatively across range
    partitions), with failing seeds delta-minimized and banked as
    replayable [.w2] regressions. Fault-injection modes run
    single-domain because {!Sp_util.Fault} state is global. *)

type mode =
  | Clean
  | Inject of string * int  (** arm [site@k] around every program *)

type cfg = {
  lo : int;
  hi : int;                  (** inclusive seed range *)
  jobs : int;                (** pool width; fault modes force 1 *)
  oracle : Oracle.config;
  mode : mode;
  bank_dir : string option;  (** where minimized repros are banked *)
  bank_cap : int;            (** max failures minimized+banked per run *)
  minimize_budget : int;     (** oracle evaluations per minimization *)
  opt_every : int;
      (** run the budget-capped learn-on vs learn-off exact-certifier
          oracle on every [opt_every]-th seed (by absolute seed value,
          so sampling is shard-invariant; 0 = never). When the armed
          injection site is {!Sp_opt.Exact.nogood_site} the check runs
          on every seed instead — the corrupted bank is what it
          detects. *)
}

val default : cfg
(** seeds 1..10000, sequential, clean mode, no banking, cap 25, opt
    differential every 16th seed. *)

type failure = {
  f_seed : int;
  f_kind : string;
  f_detail : string;
  f_nodes_before : int;     (** AST nodes before minimization *)
  f_nodes_after : int;      (** … after; strictly smaller when any
                                rewrite reproduced the failure *)
  f_evals : int;            (** oracle evaluations the minimizer spent *)
  f_file : string option;   (** banked path, when banking was on *)
}

type summary = {
  total : int;
  pass : int;
  verdicts : (string * int) list;  (** every kind, fixed order *)
  statuses : (string * int) list;  (** loop status tag -> count, sorted *)
  gap : Sp_util.Histogram.t;       (** ii - mii over pipelined loops *)
  eff : Sp_util.Histogram.t;       (** mii/ii over pipelined loops *)
  csize : Sp_util.Histogram.t;     (** emitted code size per program *)
  cost : Sp_util.Histogram.t;
      (** deterministic {!Sp_obs.Cost} work units per program — counts,
          not clocks, so the distribution is identical at any [jobs] *)
  cost_by_phase : (string * Sp_util.Histogram.t) list;
      (** per compile phase ({!Sp_obs.Cost.all_phases} names, fixed key
          set), the distribution of that phase's work units over the
          population; merged pointwise across shards *)
  expensive : (int * int) list;
      (** the top-10 most expensive programs as (seed, work units),
          units descending then seed ascending — truncation of the
          sorted union, so shard merges stay associative *)
  pass_rate : Sp_obs.Series.t;
      (** pass indicator per seed (1.0 pass / 0.0 fail) on the seed
          logical clock, windowed per {!Sp_obs.Series} — the artifact
          surfaces per-window verdict rates so a throughput or
          pass-rate regression localizes to a seed range. Shards over
          disjoint seed ranges merge associatively like the
          histograms. *)
  failures : failure list;         (** minimized, in seed order *)
  unminimized : int;               (** failures beyond the bank cap *)
}

val merge : summary -> summary -> summary
(** Associative shard merge: [run (lo..hi)] equals
    [merge (run (lo..mid)) (run (mid+1..hi))] up to the final status
    sort — the resumability contract. *)

val failure_count : summary -> int

val run : ?on_progress:(int -> unit) -> cfg -> summary
(** Stream the configured seed range. Never raises on worker or
    program failures — they become verdicts. *)

val sweep : ?ks:int list -> cfg -> ((string * int) * summary) list
(** Arm every registered compiler fault site at each hit count in [ks]
    (default [1; 2]) across the whole seed range, sequentially, with
    degradation counted as graceful. Each armed population is expected
    to read all-pass — except {!Sp_opt.Exact.nogood_site}, whose
    silent bank corruption must instead be {e caught} by the
    [opt-diverge] oracle (run on every seed under that site); the
    caller inverts the gate for those rows. Anything else worse than
    graceful degradation is minimized and banked. *)

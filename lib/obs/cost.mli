(** Deterministic work-cost accounting for the compiler's hot paths.

    Wall time cannot be gated in CI, so the profiler counts {e work
    units} instead — MRT placement probes, Spath relaxations and
    frontier insertions, ready-heap operations, exact-search nodes
    split by prune reason, dependence edges walked, schedule-cache
    verification edge checks — the same currency SMT/SAT schedulers
    report (decisions, conflicts, mapping attempts). Counts are pure
    functions of the compilation, so two runs of the same input agree
    to the last unit whatever the machine load or the job count.

    Counts are attributed per {e phase} × per {e loop}: the compile
    driver stamps the current loop and phase; instrumented modules
    ({!Sp_core.Mrt}, [Spath], [Listsched], [Sp_opt.Exact], the schedule
    cache) only bump counters and stay ignorant of the attribution.

    {b Recording contract} (the same as {!Explain}): disabled by
    default, and every instrumented site guards with {!enabled} — one
    global load and branch, no allocation — so the default compile path
    is unaffected (enforced by bench E14). Under {!collect} the
    recording state is domain-local, so parallel analysis tasks never
    race; a task's profile is re-injected by the driver. {!merge} is
    associative and commutative with {!empty} as identity, so shard
    profiles combine into the same totals in any order — the
    [-j 1 ≡ -j N] identity the qcheck laws and the byte-stable
    [bench --table cost] artifact pin down.

    Wall-clock and GC observations ({!observe}) are kept entirely
    outside profiles: they appear only in the human report, never in
    {!to_json} or {!folded}, so gated artifacts stay deterministic. *)

(** The work units. Names ({!counter_name}) follow the metric naming
    scheme, [subsystem.quantity]. *)
type counter =
  | Mrt_probe            (** reservation-table placement probes ([Mrt.fits]) *)
  | Spath_relax          (** Bellman–Ford relaxation steps in [Spath] *)
  | Spath_insert         (** Pareto-frontier insertions in [Spath] *)
  | Heap_op              (** ready-heap pushes and pops ([Listsched]) *)
  | Exact_node           (** branch-and-bound nodes expanded ([Exact]) *)
  | Exact_prune_window   (** exact-search prunes: emptied windows *)
  | Exact_prune_resource (** exact-search prunes: resource conflicts *)
  | Exact_nogood_hit     (** exact-search candidates rejected by the
                             learned-nogood bank *)
  | Exact_backjump       (** exact-search non-chronological backtracks *)
  | Ddg_edge             (** dependence edges built/walked ([Ddg.build]) *)
  | Cache_verify_edge    (** schedule-cache hit-verification edge checks *)

val all_counters : counter list
val counter_name : counter -> string

(** Compilation phases, stamped by [Sp_core.Compile] through
    {!Phase.run} around the corresponding steps. [P_reduce] is
    hierarchical reduction: reducing a conditional or a loop to one
    node, and the compile's set-up; the basic blocks it compacts count
    in [P_ddg], [P_compact] and [P_emit]. [P_other] is the ambient
    default. *)
type phase =
  | P_ddg
  | P_compact
  | P_bounds
  | P_search
  | P_certify
  | P_mve
  | P_emit
  | P_validate
  | P_cache
  | P_reduce
  | P_other

val all_phases : phase list
val phase_name : phase -> string

(** {1 Recording} *)

val enabled : unit -> bool
(** When false (the default), {!add}/{!incr} are one load and branch
    and allocate nothing. *)

val enable : unit -> unit
(** Reset the ambient profile and start counting. *)

val disable : unit -> unit
val clear : unit -> unit

val set_loop : int -> unit
(** Stamp subsequent counts with this loop id ([-1] = outside any
    loop, the initial value). No-op when disabled. *)

val set_phase : phase -> unit
(** Stamp subsequent counts with this phase. No-op when disabled. *)

val with_phase : phase -> (unit -> 'a) -> 'a
(** Run [f] under {!set_phase}, restoring the previous phase on every
    exit path (so a degrading loop still attributes its partial counts
    to the right phase). When disabled this is just [f ()]. *)

val current_loop : unit -> int
(** The loop stamp of the active recording state ([-1] outside any
    loop). {!Phase.capture} re-stamps a task's fresh state with the
    caller's, so collected profiles stay attributed. *)

val current_phase : unit -> phase
(** The phase stamp of the active recording state. *)

val add : counter -> int -> unit
(** Count [n] units of work against the current (loop, phase) cell. *)

val incr : counter -> unit
(** [add c 1]. *)

(** {1 Profiles} *)

type profile
(** An immutable snapshot: (loop, phase) cells of counter totals.
    Canonically ordered, so structural equality is profile equality. *)

val empty : profile
val is_empty : profile -> bool

val row : loop:int -> phase -> (counter * int) list -> profile
(** A single-cell profile (test and doctoring helper). Zero counts are
    dropped; an all-zero row is {!empty}. *)

val merge : profile -> profile -> profile
(** Pointwise sum. Associative, commutative, {!empty} is the
    identity. *)

val equal : profile -> profile -> bool
val total : profile -> int

val counter_totals : profile -> (counter * int) list
(** Per-counter grand totals in {!all_counters} order (zeros kept, so
    the shape is fixed). *)

val loop_counters : profile -> loop:int -> (counter * int) list
(** One loop's per-counter totals across every phase, in
    {!all_counters} order (zeros kept). *)

val phase_totals : profile -> (phase * int) list
(** Per-phase totals across every loop and counter, in {!all_phases}
    order (zeros kept). *)

val loop_total : profile -> loop:int -> int
(** All work attributed to one loop across every phase. *)

val cells : profile -> ((int * phase) * (counter * int) list) list
(** The raw cells, canonically ordered: loops ascending with [-1]
    (outside) last, phases in {!all_phases} order, counters in
    {!all_counters} order, zero counts dropped. *)

val snapshot : unit -> profile
(** The ambient profile recorded since {!enable}/{!clear}. *)

val collect : (unit -> 'a) -> 'a * profile
(** Run [f] with recording redirected to a fresh domain-local profile
    and return what it recorded; the previous state is restored on
    every exit path. The driver re-injects collected profiles in loop
    order ({!inject}) — since {!merge} is commutative this yields the
    same ambient profile as a sequential run. *)

val inject : profile -> unit
(** Merge a collected profile into the current recording state. *)

(** {1 Report-only wall/GC observation} *)

val observe : (unit -> 'a) -> 'a
(** Accumulate the wall-clock nanoseconds and minor-heap words spent
    in [f] into the report-only section. Never part of a {!profile},
    {!to_json} or {!folded} — the human report alone shows it. *)

(** {1 Output} *)

val to_json : profile -> Json.t
(** Deterministic, wall-clock-free: schema tag, grand totals, and the
    per-loop per-phase cells in canonical order. *)

val folded : profile -> string
(** Folded-stacks lines (["loop3;search;mrt.probes 1234\n"]), one per
    nonzero (loop, phase, counter) in canonical order — feedable to
    standard flame-graph tooling and to {!Render.flame_html}. *)

val flame : profile -> Render.flame_node list
(** The loop → phase → counter hierarchy as flame/treemap input. *)

val report : profile -> string

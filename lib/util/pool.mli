(** Deterministic fork/join batches on domains that live only while a
    batch runs.

    A pool is a width and per-slot task counters; it owns no domain.
    A batch of [n] tasks at width [jobs] runs on the calling domain
    plus [min (jobs - 1) (n - 1)] worker domains spawned for it (fewer
    if the runtime refuses a spawn) and joined before {!run} returns.
    [~jobs:1] and one-task batches spawn nothing and {!run} is a plain
    sequential [List.map]. *)

type t

val create : jobs:int -> t
(** [create ~jobs] builds a pool of width [max 1 jobs]. It spawns
    nothing; creating a pool is as cheap as allocating its counters. *)

val jobs : t -> int
(** Width the pool was created with (after clamping to [>= 1]). *)

val worker_counts : t -> int array
(** Tasks executed so far per slot — index 0 is the submitting domain
    (which works through each batch too), indices 1.. a batch's
    workers. Length {!jobs}. The compile service reports them in its
    status document so shard skew shows up there; the counts
    themselves are diagnostics, not part of any deterministic
    artifact. *)

val spawned : unit -> int
(** Worker domains spawned so far by every pool of the process. Read
    it before and after a call to count that call's spawns. *)

val run : t -> (unit -> 'a) list -> 'a list
(** [run t tasks] executes every task (on the batch's workers plus the
    calling domain) and returns their results in submission order.
    Every task runs to completion even if some raise; if any raised,
    the exception of the lowest-indexed failing task is re-raised with
    its backtrace — matching what a sequential [List.map] would have
    surfaced first. [Domain.spawn] and [Domain.join] order the
    hand-off: writes made by the caller before [run] are visible to
    tasks, and task writes are visible to the caller afterwards. A
    worker starts with fresh domain-local state, so a task must set
    any it reads. *)

val try_run :
  t -> (unit -> 'a) list -> ('a, exn * Printexc.raw_backtrace) result list
(** Like {!run} but never raises from a task: each task's outcome —
    value or captured exception with backtrace — lands in its own slot
    of the returned list (submission order). This is the primitive
    {!run} is built on, and what batch drivers that must survive
    individual failures (the differential campaign) use directly. *)

val default_jobs : unit -> int
(** CLI default width: [SP_JOBS] when set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)

(** Domain-safe content-addressed schedule cache.

    Maps a {!Fingerprint} of an (innermost-loop DDG, machine) pair to
    the schedule the compiler last adopted for it: initiation interval,
    canonical-space issue times, the search stats that produced it and
    its optimality certificate. Bounded capacity with
    least-recently-committed eviction.

    Soundness: a candidate entry is re-verified against the requesting
    loop's {e own} edges, resource table and no-wrap constraints by
    {!Sp_core.Modsched.check} before it is returned as a hit; failures
    count as rejects and misses.
    Downstream, the compiler re-runs MVE, emission and the [Validate]
    pass on every pipelined loop, cached or not — so a fingerprint
    collision can waste a lookup but never ship a wrong schedule.

    Determinism: lookups are read-only and may run concurrently
    (compile's parallel analyze phase); every mutation — insertion and
    recency update — happens through {!Sp_core.Compile.cache_probe}'s
    commit callback, which the compiler invokes from its sequential
    finish phase in loop order. {!stats} is the one record of the
    cache's traffic; [w2c --metrics] reads it as
    [serve.cache.{hit,miss,reject,insert,evict}]. *)

type t

val create : capacity:int -> t
(** A cache holding at most [capacity] schedules. [capacity = 0] is a
    disabled cache: it never stores and never hits (every probe is a
    miss with a no-op commit). *)

val capacity : t -> int

type stats = {
  hits : int;       (** verified hits returned to the compiler *)
  misses : int;     (** probes that found nothing reusable *)
  rejects : int;    (** found entries that failed re-verification or
                        fell outside the requested interval window
                        (counted in [misses] too) *)
  inserts : int;    (** entries committed *)
  evictions : int;  (** entries dropped to respect [capacity] *)
  entries : int;    (** current population *)
}

val stats : t -> stats

val site : string
(** ["serve.cache.lookup"] — fault-injection site hit once per probe,
    so the campaign and the tests can prove a cache failure degrades
    the loop instead of crashing the compile. *)

val hook : t -> Sp_core.Compile.cache
(** Package the cache as a {!Sp_core.Compile.config} hook. *)

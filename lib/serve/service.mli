(** The compile service: request/response model, wire framing and the
    in-process engine the [w2cd] daemon and [bench --table serve] /
    [--table slo] share.

    Wire protocol (over a Unix-domain stream socket): each message is
    one {e frame} — a 4-byte big-endian payload length followed by the
    payload bytes. Requests and responses are framed identically; a
    connection carries any number of request frames and receives
    exactly one response frame per request, {e in request order}.

    Request payloads (first line is the verb; the rest is the body):
    - [compile MACHINE[ inject=SITE@K][ trace=ID]\n<W2 source>] —
      compile the source for MACHINE (warp, toy, serial, warpNx). The
      optional inject token arms a deterministic fault for this
      request only; the optional trace id (any token without spaces or
      newlines) asks for the request's span tree back.
    - [stats] — cache statistics as JSON (schema [w2cd-stats/2]).
    - [status] — the daemon's health snapshot as JSON (schema
      [w2cd-status/1]): uptime in requests, request/error counters, an
      error-budget verdict, rolling telemetry series windows
      ({!Sp_obs.Series}) and cache occupancy.
    - [dashboard] — a self-contained HTML dashboard of the same
      telemetry ({!Sp_obs.Render.dashboard}).
    - [ping] — liveness probe; answers [pong].

    Response payloads: [ok\n<body>] or [error\n<message>]. An untraced
    compile body is byte-identical to offline [w2c compile FILE]
    stdout — the CI round-trip smoke compares them with [cmp]. A
    {e traced} compile body is instead a JSON envelope (schema
    [w2cd-trace/1]) carrying the trace id, the request sequence
    number, the span tree (decode → fingerprint → cache probe →
    schedule → verify → encode phases, with durations in µs) and the
    ordinary compile output under ["output"]. Error messages carry the
    request's identity ([... [req N]] or [... [req N trace=ID]]) so a
    failure is attributable from the payload alone.

    {b Telemetry and determinism.} The engine stamps every admitted
    request with a logical sequence number and records latency, batch
    occupancy, failure/fault outcomes and per-batch cache movement
    into {!Sp_obs.Series} ring buffers keyed by that logical clock —
    wall time appears only as series values, never in the window
    structure, so counter-valued snapshots are deterministic functions
    of the request stream. Telemetry can be disabled at {!create}
    ([~telemetry:false]), which restores the PR 7 request path
    byte-for-byte with no clock reads (the E14 zero-cost guard
    measures this). *)

type request =
  | Compile of {
      machine : string;
      inject : (string * int) option;
      trace : string option;
      source : string;
    }
  | Stats
  | Status
  | Dashboard
  | Ping

type response = Ok of string | Err of string

(** {1 Payload codec} (pure, unit-testable without sockets) *)

val render_request : request -> string
val parse_request : string -> (request, string) result
val render_response : response -> string
val parse_response : string -> response
(** A malformed response payload parses as [Err]. *)

(** {1 Frame I/O} *)

module Frame : sig
  val max_len : int
  (** Refuse frames above this (16 MiB) — a corrupt length prefix must
      not allocate unboundedly. *)

  val write : Unix.file_descr -> string -> unit
  val read : Unix.file_descr -> string option
  (** [None] on clean EOF before the first length byte; raises
      [Failure] on a truncated or oversized frame. *)
end

(** {1 Schema tags} *)

val status_schema : string
val trace_schema : string
val reqlog_schema : string

(** {1 The engine} *)

type t

val create :
  ?cache_capacity:int ->
  ?jobs:int ->
  ?telemetry:bool ->
  ?log:out_channel ->
  unit ->
  t
(** [cache_capacity] defaults to 256 ([0] disables the schedule cache);
    [jobs] is the domain-pool width requests batch onto (default 1;
    every batch of two or more requests spawns and joins its own
    workers, see {!Sp_util.Pool});
    [telemetry] (default true) enables the sequence clock and rolling
    series; [log] appends one JSON line per request (schema
    [w2cd-reqlog/1]: seq, verb, trace id, outcome, error message,
    latency, span tree when traced) — it requires telemetry and is
    flushed per batch. *)

val close : t -> unit
(** Retire the service; it must not be used afterwards. The pool holds
    no domain between batches, so there is nothing left to release. *)

val cache : t -> Cache.t option
(** The underlying schedule cache ([None] when disabled), for harnesses
    that read hit rates directly. *)

val handle : t -> request -> response

val handle_batch : t -> request list -> response list
(** Responses in request order. Requests run concurrently on the pool —
    except when any request of the batch arms a fault or carries a
    trace id, in which case the whole batch runs sequentially on the
    calling domain: an armed site must not leak into a sibling request,
    and a traced request's span tree (cache probes included) must
    depend only on the requests admitted before it, never on worker
    scheduling — that is what makes the tree identical at any [jobs]
    width. *)

val status_json : t -> string
(** The [status] response body. *)

val dashboard_html : t -> string
(** The [dashboard] response body. *)

val telemetry_seq : t -> int
(** Requests admitted so far (0 when telemetry is off) — the logical
    clock harnesses key artifacts on. *)

(** {1 The offline driver's metrics} *)

val metrics_json :
  ?sim:Sp_vliw.Sim.result ->
  ?cache:Cache.stats ->
  Sp_obs.Cost.profile ->
  Sp_core.Compile.loop_report list ->
  Sp_obs.Json.t
(** The [w2c --metrics] document of one command: [schema_version] 1,
    then under [metrics] each name, sorted, as
    [{"type": "counter", "value": n}]. Every value is read from the
    record that keeps it:
    - [modsched.intervals_probed] and [modsched.fuel_spent]: the sums of
      the loop reports' [probed] and [fuel_spent];
    - [exact.fuel_spent]: the sum of their certificates' [spent];
    - [exact.nodes_expanded], [exact.pruned] (both prune reasons),
      [exact.nogood_hits] and [exact.backjumps]: the cost profile's
      totals;
    - [sim.cycles] and [sim.dyn_ops]: the simulated run;
    - [serve.cache.{hit,miss,reject,insert,evict}]: the cache's stats.

    A fact the command did not produce (no run, no cache) reads 0. *)

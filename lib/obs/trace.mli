(** Structured tracing: monotonic-clock spans and instant events with
    key/value attributes, buffered in memory and dumped as Chrome
    [trace_event] JSON (loadable in [chrome://tracing] / Perfetto).

    Tracing is process-global and {e off} by default. When disabled,
    {!span} costs one branch and a closure call, and {!instant} one
    branch — no clock read, no allocation of attribute lists (attribute
    thunks are only forced while enabled). The compiler hot paths are
    instrumented unconditionally on this basis. *)

type value = I of int | F of float | S of string | B of bool

type event =
  | Span of {
      name : string;
      ts : int64;   (** start, ns since {!enable} *)
      dur : int64;  (** ns *)
      args : (string * value) list;
    }
  | Instant of { name : string; ts : int64; args : (string * value) list }

val enabled : unit -> bool

val enable : unit -> unit
(** Switch tracing on; clears the buffer and rebases the clock. *)

val disable : unit -> unit
(** Switch tracing off; buffered events are kept until {!enable}. *)

val span : ?args:(unit -> (string * value) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when tracing is enabled, records a
    complete span covering it. An escaping exception is recorded as an
    ["error"] attribute and re-raised. [args] is forced only when
    enabled. *)

val instant : ?args:(unit -> (string * value) list) -> string -> unit

val collect : (unit -> 'a) -> 'a * event list
(** [collect f] runs [f] with this domain's recording redirected into a
    private buffer and returns [f]'s result with the events it recorded
    (oldest first). The shared buffer is untouched, so concurrent
    domains may each run under [collect] safely; re-entrant. Used by
    {!Phase.capture}; {!Phase.replay} {!inject}s each task's events
    back in a deterministic order. *)

val inject : event list -> unit
(** Append previously collected events to the current buffer (the
    shared one, or the enclosing {!collect}'s), preserving their
    order. *)

val with_recording : (unit -> 'a) -> ('a, exn) result * event list
(** [with_recording f] forces tracing on for this domain, runs [f]
    with recording redirected into a private buffer (like {!collect}),
    then restores the previous on/off state. Returns [f]'s outcome —
    an escaping exception is {e returned}, not re-raised, so the
    events recorded up to the escape are kept — with the events oldest
    first. The shared buffer and the clock base are untouched; an
    enclosing {!collect} (a parallel compile task) or a globally
    enabled trace never sees the recorded events. Used by the compile
    service to capture one request's span tree. *)

val events : unit -> event list
(** Buffered events in start-time order. *)

(** {1 Span trees} *)

type tree =
  | Node of {
      t_name : string;
      t_dur : int64;
      t_args : (string * value) list;
      t_children : tree list;
    }

val tree_of_events : event list -> tree list
(** Reconstruct the span forest from a completion-ordered event list
    (what {!collect} / {!with_recording} return): a span's children
    are the spans and instants its [ts, ts+dur] interval contains,
    oldest first. Instants become zero-duration leaves. *)

val skeletons_json : tree list -> Json.t
(** Names and nesting only — no timestamps, durations or attributes —
    so the skeleton of a deterministic computation is byte-stable and
    comparable across runs, job counts and machines. A leaf renders as
    a bare string, an inner node as [{"name", "children"}]. *)

val tree_json : tree -> Json.t
val trees_json : tree list -> Json.t
(** Full form: name, [dur_us], attributes and children — for inline
    trace responses and daemon-side JSONL logs, where wall-clock
    durations are wanted. *)

val to_chrome : unit -> Json.t
(** The buffer as a Chrome [trace_event] document:
    [{"traceEvents": [...]}] with ["X"] (complete) and ["i"] (instant)
    phases, timestamps in microseconds. *)

val write_chrome : out_channel -> unit

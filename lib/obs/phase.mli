(** The compiler's one instrumentation point.

    A compile phase is a trace span and a cost phase at once: {!run}
    opens the span named after the cost phase ([compile.ddg],
    [compile.mii], [compile.reduce], …) and stamps the phase for
    {!Cost}, so the two recorders always agree on where a piece of work
    happened. The loop stamp shared by {!Explain} and {!Cost} is set in
    one place too ({!enter_loop}). A task that runs on another domain —
    one loop's analysis, one portfolio member — records through
    {!capture}, and the caller merges the recording back with {!replay}
    in a deterministic order.

    Zero cost when off: with tracing and cost accounting both disabled,
    {!run} is one branch and a call of [f], and allocates nothing for a
    closed [f] (bench E14 checks it). *)

val run : loop:int -> Cost.phase -> (unit -> 'a) -> 'a
(** [run ~loop ph f] runs [f] inside a span named after [ph] and with
    cost phase [ph] stamped, restoring the previous phase on every exit
    path. The span is ["compile."] followed by the phase name, except
    that {!Cost.P_bounds} opens [compile.mii] and {!Cost.P_search}
    [compile.modsched]. It carries a ["loop"] attribute when
    [loop >= 0]; pass [-1] for work outside any loop. *)

val enter_loop : int -> unit
(** Stamp subsequent decision-log events and cost counts with this
    loop id ([-1] = the enclosing, loop-free level). *)

type recording
(** One task's trace events, decision-log events and cost profile. *)

val capture : (unit -> 'a) -> unit -> 'a * recording
(** [capture f] reads the caller's loop and cost-phase stamps now and
    returns a task. The task may run on any domain: it runs [f] with all
    three recorders redirected into a private recording that starts from
    those stamps, so concurrent tasks never race on the shared buffers.
    An exception from [f] escapes and its recording is lost; tasks that
    must keep a failure's partial recording return it as a value. *)

val replay : recording -> unit
(** Append a recording to the current buffers (the shared ones, or an
    enclosing task's), preserving its order. *)

(** A process-wide registry of named counters, snapshot-able to JSON.

    Instrumented code obtains a handle once (typically at module
    initialization) and bumps it on the hot path — an increment is a
    single atomic add, cheap enough to leave enabled unconditionally.
    The snapshot serializes entries sorted by name, so output is
    deterministic regardless of registration order.

    Metric naming scheme (see DESIGN.md §10): dot-separated
    [subsystem.quantity], e.g. [modsched.fuel_spent],
    [exact.nodes_expanded], [sim.cycles]. *)

type counter

val counter : string -> counter
(** Get or create; the same name always yields the same handle. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val snapshot : unit -> Json.t
(** [{"schema_version": 1, "metrics": { name: {...}, ... }}] with
    names sorted and each counter as [{"type":"counter","value":n}]. *)

val write : out_channel -> unit

val reset : unit -> unit
(** Zero every registered counter (registrations survive — handles held
    by instrumented modules stay valid). For tests and for isolating
    per-run snapshots in long-lived processes. *)

(** Structured scheduler decision log — the "why" behind every
    per-loop scheduling outcome.

    The core scheduler layers ({!Sp_core.Modsched}, [Mrt], [Listsched],
    [Mve], the compiler driver, and the exact scheduler of [Sp_opt])
    record one event per decision: interval bounds and which constraint
    binds, SCC scheduling order, the first failed placement of every
    probed initiation interval (with the emptied precedence window or
    the conflicting resource residue), the lifetime that forced the
    modulo-variable-expansion unroll, exact-search prune causes, and
    the final per-loop outcome.

    Recording is {e zero-cost when disabled} (the default): call sites
    guard with {!enabled} — one load and branch — and construct events
    only when the log is live. Events carry flat data only (strings and
    ints), so this module sits below the scheduler in the dependency
    order; the recorded log is deterministic (no clocks), making the
    JSON artifact byte-stable across runs. *)

(** Why a placement attempt at a probed interval failed. *)
type fail =
  | Window_empty of { lo : int; hi : int }
      (** the precedence-constrained range emptied before any slot was
          probed ([lo > hi]) *)
  | No_slot of { lo : int; hi : int; resource : string; slot : int }
      (** every slot of the window conflicted; [resource]/[slot] name
          the modulo-reservation-table residue that rejected the last
          probe *)
  | No_wrap of { lo : int; hi : int }
      (** only the wrap constraint of a reduced construct rejected the
          window's slots *)

type event =
  | Bounds of {
      res_mii : int;
      rec_mii : int;
      ctl_bound : int;
      mii : int;
      seq_len : int;
      binding : string;  (** "resource" | "recurrence" | "control" *)
      critical : string; (** human detail, e.g. the busiest resource *)
    }
  | Scc_order of { comps : int list list }
      (** condensation components in scheduling (topological) order,
          each listing its member unit ids *)
  | Probe_fail of { s : int; unit_id : int; unit_desc : string; fail : fail }
  | Probe_ok of { s : int; span : int; sc : int }
  | Fuel_out of { s : int }
  | Compact_stall of {
      unit_id : int;
      unit_desc : string;
      est : int;    (** earliest start from precedence *)
      placed : int; (** slot actually taken *)
      resource : string;
    }
      (** list scheduling pushed a unit past its earliest start on a
          resource conflict *)
  | Mve_lifetime of { reg : string; birth : int; death : int; q : int }
  | Mve_choice of {
      unroll : int;
      mode : string;
      binding_reg : string; (** the register whose q forced the unroll *)
      binding_q : int;
      fits : bool;
    }
  | Exact_probe of {
      s : int;
      verdict : string;
      spent : int;
      pruned_window : int;
      pruned_resource : int;
      nodes : int;
      nogood_hits : int;  (** candidates rejected by the nogood bank *)
      backjumps : int;    (** non-chronological backtracks *)
      learned : int;      (** nogoods recorded by this solve *)
      reused : int;       (** nogoods carried in from a prior interval *)
    }
  | Outcome of { status : string; ii : int option; cert : string option }

val enabled : unit -> bool
(** Cheap guard for call sites: when false, build no event. *)

val enable : unit -> unit
(** Start recording; clears any previous log. *)

val disable : unit -> unit

val set_loop : int -> unit
(** Stamp subsequent events with this loop id ([-1] = outside any
    loop). [Sp_core.Compile] sets it through {!Phase.enter_loop}. *)

val current_loop : unit -> int
(** The active loop stamp. {!Phase.capture} re-stamps a task's fresh
    buffer with the caller's, so collected events stay attributed to
    the right loop. *)

val record : event -> unit
(** Append an event under the current loop stamp; no-op when disabled.
    Call sites on hot paths must guard with {!enabled} so the event is
    never constructed when the log is off. *)

val collect : (unit -> 'a) -> 'a * (int * event) list
(** [collect f] runs [f] with this domain's recording (and loop stamp)
    redirected into a private buffer; returns [f]'s result and the
    stamped events it recorded, oldest first. Safe to run concurrently
    on several domains; {!Phase.replay} {!inject}s each task's events
    back in a deterministic order. *)

val inject : (int * event) list -> unit
(** Append previously collected stamped events, preserving order. *)

val events : unit -> (int * event) list
(** [(loop, event)] pairs in recording order. *)

val to_json : unit -> Json.t
(** Deterministic artifact: events grouped per loop, loops in order of
    first appearance. Byte-stable across identical runs. *)

val report : unit -> string

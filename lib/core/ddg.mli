(** Data-dependence graph over scheduling units.

    Edges follow the paper's Section 2.1 model: each edge carries a
    {e delay} [d] and a {e minimum iteration difference} [omega] (the
    paper's [p]), meaning that for schedule [sigma] and initiation
    interval [s]:

    {v  sigma(dst) - sigma(src)  >=  d - s * omega  v}

    Delays can be zero or negative (anti-dependences on a machine whose
    reads happen at issue and writes [latency] cycles later).

    Register dependences, memory dependences through the subscript
    analysis, and channel ordering (receives and sends on one channel
    are kept in program order by treating the queue as an
    always-aliasing pseudo-segment) are all generated here.

    The builder also identifies the {e modulo variable expansion}
    candidates (Section 2.3): registers that are "redefined at the
    beginning of every iteration", i.e. whose first access in the body
    is a definition and which are not live outside the loop. For those,
    the carried anti- and output-dependences are omitted ("we pretend
    that every iteration of the loop has a dedicated register location
    … and remove all inter-iteration precedence constraints between
    operations on these variables"), and {!Mve} later assigns them
    rotating register copies. *)

open Sp_ir

type edge = { src : int; dst : int; delay : int; omega : int }

type t = {
  units : Sunit.t array;
  edges : edge list;
  succs : edge list array;
  preds : edge list array;
  mve_candidates : Vreg.Set.t;
}

val pp_edge : Format.formatter -> edge -> unit

val completion : Sunit.t -> int
(** Completion time of a unit relative to its issue: when its last
    instruction slot, last register write and last memory effect are all
    done. Used for block lengths. *)

val chan_seg : out:bool -> int -> Memseg.t
(** The pseudo-segment of a communication queue (outgoing or incoming
    channel [ch]), so channel operations stay ordered like
    always-aliasing memory accesses. *)

val effects : Sunit.t -> Sunit.mem_eff list
(** Memory effects of a unit including channel pseudo-effects. *)

type streams
(** A unit array's access streams: each register's accesses in program
    order. The graphs built on one array share them. *)

val streams : Sunit.t array -> streams

val of_streams : ?mve:bool -> ?live_out:(Vreg.t -> bool) -> streams -> t
(** The dependence graph of the streams' units, in emission order:
    [edges] lists each distinct edge where the builder first emitted
    it, and each unit's [succs] and [preds] keep that order. With [mve]
    (the default), a register whose first access is a def and that is
    not [live_out] is an expansion candidate, and its carried edges are
    left out. List scheduling ({!Listsched}) reads no edge order, so
    its graphs stay in this one. *)

val ordered : t -> t
(** The same graph in the modulo scheduler's edge order: [edges],
    [succs] and [preds] rebuilt in the fold order of a table keyed by
    [(src, dst, omega)]. Only a graph from {!of_streams} may be given:
    the order is a function of the emission order. {!Modsched}, the
    certifier, the schedule cache and {!Mve} read this order. *)

val build : ?mve:bool -> ?live_out:(Vreg.t -> bool) -> Sunit.t array -> t
(** {!ordered} on {!of_streams} of the units' streams. *)

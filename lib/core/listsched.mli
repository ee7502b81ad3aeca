(** List scheduling of acyclic code (basic-block compaction, Fisher
    1979): the scheduler used for conditional branches, straight-line
    code, the unpipelined loop bodies, and the "local compaction only"
    baseline of the paper's Figure 4-2. *)

type placement = {
  times : int array;  (** issue time per unit *)
  len : int;          (** schedule length in instructions *)
}

val compact : Sp_machine.Machine.t -> Ddg.t -> placement
(** Schedule every unit at the earliest slot satisfying the
    intra-iteration precedence constraints and the resource limits,
    highest critical path first, against the calling domain's linear
    table ({!Mrt.Linear.take}, searched with {!Mrt.Linear.earliest}). *)

val restart_interval : Ddg.t -> placement -> int
(** The interval at which the compacted body may be re-entered
    sequentially: covers the schedule length and every loop-carried
    dependence. This "length of a locally compacted iteration" is the
    paper's upper bound for the initiation-interval search and the
    baseline for its speed-up figures. *)

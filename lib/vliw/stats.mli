(** Static statistics over assembled programs: instruction-word
    occupancy (how full the long instructions are — the "compaction"
    the paper's techniques exist to achieve) and per-resource usage. *)

type t = {
  words : int;              (** instruction count *)
  ops : int;                (** micro-operations *)
  empty_words : int;
  max_ops_per_word : int;
  mean_ops_per_word : float;
  resource_use : (string * int) list;
      (** total issue-slot uses per resource, by name, the unused ones
          left out *)
}

val compute : Sp_machine.Machine.t -> Prog.t -> t

val utilization :
  Sp_machine.Machine.t -> cycles:int -> res_busy:int array -> (string * float) list
(** Dynamic per-resource busy fraction of a simulated execution:
    [uses / (cycles * count)] for each resource the machine declares,
    from {!Sim.result}'s [res_busy]; unused resources read 0. [[]] when
    [cycles <= 0]. *)

val pp : Format.formatter -> t -> unit
(** Two lines: the occupancy figures, then the resource uses. *)

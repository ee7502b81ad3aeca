(** Schedule-quality reports: the numbers Lam's evaluation argues with
    (paper Section 4 — achieved interval against the resource and
    recurrence bounds, prolog/epilog overhead, utilization), plus the
    exact scheduler's certificate, rendered straight from
    {!Compile.loop_report} as the text of [w2c --profile] and the JSON
    of the E13 artifact ([BENCH_pipeline.json]). The report lives in
    core, not obs, because its input is the compiler's own record. *)

(** A simulated run. [sem_ok] is [None] when its final state was not
    compared with the interpreter's. *)
type sim = {
  cycles : int;
  flops : int;
  mflops : float;
  dyn_ops : int;
  sem_ok : bool option;
  utilization : (string * float) list;
      (** per-functional-unit busy fraction over the whole simulated
          execution: issue-slot uses / (cycles * units) *)
}

val of_run : Sp_machine.Machine.t -> ?sem_ok:bool -> Sp_vliw.Sim.result -> sim
(** The facts of a simulated run on the machine; [sem_ok] is the
    comparison of its final state with the interpreter's, when one was
    made. *)

val optimal_ii : Compile.loop_report -> int option
(** The certified optimum: the achieved interval, when the certifier
    proved it optimal. *)

val overhead : Compile.loop_report -> float
(** (prolog + epilog) / kernel words, where the prolog and epilog hold
    [(sc-1) * ii] words each and the kernel [unroll * ii]; 0 when not
    pipelined. *)

val to_json :
  ?attribution:(int * Sp_obs.Explain.event) list * Sp_obs.Cost.profile ->
  Sp_machine.Machine.t ->
  name:string ->
  code_size:int ->
  ?sim:sim ->
  Compile.loop_report list ->
  Sp_obs.Json.t
(** A program's report: one object per loop (bounds, achieved and
    optimal interval, efficiency, certificate, stages, unroll, MVE
    registers, prolog/kernel/epilog words, search effort and MRT
    occupancy per resource — one iteration's reservation slots over the
    slots of one window, the achieved interval or else the serial
    restart interval). The simulated facts are [null] without [sim].
    With [~attribution:(events, cost)], the compile's decision log and
    cost profile, each loop also carries what lets
    [--compare --attribute] name a regression's cause: the binding
    bound, placement failures per probed interval with the last
    rejecting cause, and the loop's work-cost counters; the program's
    total work units come last. Key order is fixed, so identical inputs
    give identical bytes. *)

val pp :
  ?sim:sim ->
  Sp_machine.Machine.t ->
  name:string ->
  code_size:int ->
  Format.formatter ->
  Compile.loop_report list ->
  unit
(** The human-readable report of [w2c --profile]. *)

(** Workload descriptions and the measurement harness.

    A kernel is a W2 source program (or a prebuilt IR program) plus its
    input data. {!run} compiles it under a given configuration,
    validates the schedule against the sequential interpreter, runs the
    cycle-accurate simulator, and returns the numbers the paper's
    tables are built from. *)

open Sp_ir

type source = W2 of string | Ir of (unit -> Program.t)

type t = {
  name : string;
  descr : string;
  source : source;
  init : Machine_state.t -> Program.t -> unit;
      (** fill arrays with input data *)
  inputs : float list list;  (** per-channel input streams *)
}

let no_init (_ : Machine_state.t) (_ : Program.t) = ()

let mk ?(descr = "") ?(init = no_init) ?(inputs = []) name source =
  { name; descr; source; init; inputs }

(** Smooth positive test data, deterministic per (seed, index). *)
let data ~seed i =
  1.0 +. (0.01 *. float_of_int (((i * 7) + (seed * 131)) mod 97))

(** Initialize every float segment of the program with {!data}. *)
let init_all_arrays ?(seed = 1) (st : Machine_state.t) (p : Program.t) =
  List.iteri
    (fun k (s : Memseg.t) ->
      match s.Memseg.elt with
      | Memseg.Float_elt ->
        Machine_state.init_farray st s (fun i -> data ~seed:(seed + k) i)
      | Memseg.Int_elt -> ())
    p.Program.segs

let program (k : t) : Program.t =
  match k.source with
  | W2 src -> Sp_lang.Lower.compile_source src
  | Ir f -> f ()

(* ------------------------------------------------------------------ *)

type measurement = {
  kernel : string;
  cycles : int;
  flops : int;
  mflops : float;            (** single cell *)
  code_size : int;
  sem_ok : bool;             (** simulator state = interpreter state *)
  resource_ok : bool;
  loops : Sp_core.Compile.loop_report list;
  dyn_ops : int;
  utilization : (string * float) list;
      (** per-resource busy fraction of the simulated execution
          ({!Sp_vliw.Stats.utilization}); empty when the run failed *)
  failure : string option;
      (** a simulator trap (cycle limit, write-port conflict) — the
          measurement's numbers are then zero and [sem_ok] false *)
}

(** Compile under [config], cross-check against the interpreter, and
    measure. A simulator trap is reported in [failure], never raised. *)
let run ?(config = Sp_core.Compile.default) ?max_cycles
    (m : Sp_machine.Machine.t) (k : t) : measurement =
  let p = program k in
  let r = Sp_core.Compile.program ~config m p in
  let init st = k.init st p in
  let base =
    {
      kernel = k.name;
      cycles = 0;
      flops = 0;
      mflops = 0.0;
      code_size = r.Sp_core.Compile.code_size;
      sem_ok = false;
      resource_ok = Sp_vliw.Check.check_prog m r.Sp_core.Compile.code = [];
      loops = r.Sp_core.Compile.loops;
      dyn_ops = 0;
      utilization = [];
      failure = None;
    }
  in
  match
    Sp_vliw.Sim.run ?max_cycles ~inputs:k.inputs ~init m p
      r.Sp_core.Compile.code
  with
  | exception Sp_vliw.Sim.Cycle_limit n ->
    {
      base with
      failure = Some (Printf.sprintf "cycle limit hit at cycle %d" n);
    }
  | exception Sp_vliw.Sim.Write_conflict msg ->
    { base with failure = Some ("write-port conflict: " ^ msg) }
  | sim ->
    let oracle = Interp.run ~inputs:k.inputs ~init p in
    {
      base with
      cycles = sim.Sp_vliw.Sim.cycles;
      flops = sim.Sp_vliw.Sim.flops;
      mflops = Sp_vliw.Sim.mflops m sim;
      sem_ok =
        Machine_state.observably_equal oracle.Interp.state
          sim.Sp_vliw.Sim.state;
      dyn_ops = sim.Sp_vliw.Sim.dyn_ops;
      utilization =
        Sp_vliw.Stats.utilization m ~cycles:sim.Sp_vliw.Sim.cycles
          ~res_busy:sim.Sp_vliw.Sim.res_busy;
    }

(** Speed-up of the pipelined compilation over local compaction only
    (the Figure 4-2 metric), plus both measurements. *)
let speedup (m : Sp_machine.Machine.t) (k : t) =
  let piped = run ~config:Sp_core.Compile.default m k in
  let local = run ~config:Sp_core.Compile.local_only m k in
  let factor =
    if piped.cycles = 0 then 1.0
    else float_of_int local.cycles /. float_of_int piped.cycles
  in
  (factor, piped, local)

(** The simulated facts of a measurement, for {!Sp_core.Report};
    [None] when the run trapped. *)
let sim (meas : measurement) : Sp_core.Report.sim option =
  if meas.failure <> None then None
  else
    Some
      {
        Sp_core.Report.cycles = meas.cycles;
        flops = meas.flops;
        mflops = meas.mflops;
        dyn_ops = meas.dyn_ops;
        sem_ok = Some meas.sem_ok;
        utilization = meas.utilization;
      }

(** Innermost-loop efficiency (achieved lower bound / interval),
    weighted uniformly over pipelined loops; 1.0 when nothing was
    pipelined (the paper reports a lower bound on efficiency). *)
let efficiency (meas : measurement) =
  let effs =
    List.filter_map
      (fun (lr : Sp_core.Compile.loop_report) ->
        match lr.Sp_core.Compile.ii with
        | Some _ -> Some (Sp_core.Compile.efficiency lr)
        | None -> None)
      meas.loops
  in
  match effs with
  | [] -> 1.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

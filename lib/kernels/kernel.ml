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
  code_size : int;
  resource_ok : bool;
  loops : Sp_core.Compile.loop_report list;
  sim : (Sp_core.Report.sim, string) result;
      (** the simulated run, its final state compared with the
          interpreter's; or the trap that stopped it (cycle limit,
          write-port conflict) *)
}

(** Compile under [config], cross-check against the interpreter, and
    measure. A simulator trap is reported in [sim], never raised. *)
let run ?(config = Sp_core.Compile.default) ?max_cycles
    (m : Sp_machine.Machine.t) (k : t) : measurement =
  let p = program k in
  let r = Sp_core.Compile.program ~config m p in
  let init st = k.init st p in
  let sim =
    match
      Sp_vliw.Sim.run ?max_cycles ~inputs:k.inputs ~init m p
        r.Sp_core.Compile.code
    with
    | exception Sp_vliw.Sim.Cycle_limit n ->
      Error (Printf.sprintf "cycle limit hit at cycle %d" n)
    | exception Sp_vliw.Sim.Write_conflict msg ->
      Error ("write-port conflict: " ^ msg)
    | sim ->
      let oracle = Interp.run ~inputs:k.inputs ~init p in
      Ok
        (Sp_core.Report.of_run m
           ~sem_ok:
             (Machine_state.observably_equal oracle.Interp.state
                sim.Sp_vliw.Sim.state)
           sim)
  in
  {
    kernel = k.name;
    code_size = r.Sp_core.Compile.code_size;
    resource_ok = Sp_vliw.Check.check_prog m r.Sp_core.Compile.code = [];
    loops = r.Sp_core.Compile.loops;
    sim;
  }

(** The suffix a table row carries for a run that is not clean: the
    trap that stopped it, a semantics mismatch or a resource violation;
    [""] for a clean run. *)
let tag (meas : measurement) =
  match meas.sim with
  | Error trap -> " !! " ^ String.uppercase_ascii trap
  | Ok s when s.Sp_core.Report.sem_ok <> Some true -> " !! SEMANTICS MISMATCH"
  | Ok _ when not meas.resource_ok -> " !! RESOURCE VIOLATION"
  | Ok _ -> ""

(** Speed-up of the pipelined compilation over local compaction only
    (the Figure 4-2 metric), plus both measurements; 1.0 when either
    run trapped. *)
let speedup (m : Sp_machine.Machine.t) (k : t) =
  let piped = run ~config:Sp_core.Compile.default m k in
  let local = run ~config:Sp_core.Compile.local_only m k in
  let factor =
    match (piped.sim, local.sim) with
    | Ok p, Ok l when p.Sp_core.Report.cycles > 0 ->
      float_of_int l.Sp_core.Report.cycles
      /. float_of_int p.Sp_core.Report.cycles
    | _ -> 1.0
  in
  (factor, piped, local)

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

(** Benchmark harness: regenerates every table and figure of the
    paper's evaluation (see DESIGN.md experiment index E0–E21), then
    runs Bechamel microbenchmarks of the compiler passes. Every table
    is one entry of {!registry}, which drives the command line
    ([main.exe --help] lists the tables), the bare run and the
    [--compare] regression sentinel. *)

open Sp_kernels
module C = Sp_core.Compile
module Report = Sp_core.Report
module Machine = Sp_machine.Machine
module Table = Sp_util.Table
module Histogram = Sp_util.Histogram
module Json = Sp_obs.Json
module Service = Sp_serve.Service

let cells = 10.0 (* Warp array size; paper reports array-level MFLOPS *)

let section title =
  Fmt.pr "@.=== %s ===@.@." title

(** What a table may read from the command line. *)
type opts = {
  jobs : int;  (** compile and campaign domains; no artifact depends on it *)
  seeds : (int * int) option;  (** campaign seed range *)
  bank : string option;  (** campaign regression bank directory *)
}

(** Set by a table whose output fails its own check. The driver still
    writes [--emit-json], so the failing artifact is kept, and then
    exits 1. *)
let failed = ref false

let fail fmt =
  Fmt.kstr
    (fun m ->
      Fmt.pr "@.%s@." m;
      failed := true)
    fmt

let json_of_table (t : Table.t) : Json.t =
  Json.Obj
    [
      ("headers", Json.List (List.map (fun h -> Json.Str h) t.Table.headers));
      ( "rows",
        Json.List
          (List.rev_map
             (fun r -> Json.List (List.map (fun c -> Json.Str c) r))
             !(t.Table.rows)) );
    ]

let json_of_histogram (h : Histogram.t) : Json.t =
  Json.Obj
    [
      ("lo", Json.Float h.Histogram.lo);
      ("width", Json.Float h.Histogram.width);
      ("count", Json.Int (Histogram.count h));
      ("mean", Json.Float (Histogram.mean h));
      ( "buckets",
        Json.List
          (Array.to_list (Array.map (fun c -> Json.Int c) h.Histogram.counts))
      );
    ]

(** The [--emit-json] document. Key order inside each artifact is fixed
    by construction and no table puts a wall-clock value in one, so
    emitting the same tables twice yields byte-identical documents.
    Each artifact carries the schema tag ["bench-NAME/1"]: bump the
    generation suffix when its shape changes incompatibly, since
    [--compare] never diffs across generations. *)
let write_artifacts path artifacts =
  let tagged (name, j) =
    let tag = ("schema", Json.Str ("bench-" ^ name ^ "/1")) in
    match j with
    | Json.Obj kvs -> (name, Json.Obj (tag :: kvs))
    | other -> (name, Json.Obj [ tag; ("value", other) ])
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ("generator", Json.Str "softpipe-bench");
        ("artifacts", Json.Obj (List.map tagged artifacts));
      ]
  in
  let oc = open_out path in
  Json.to_channel ~pretty:true oc doc;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote %s@." path

let sem_ok (m : Kernel.measurement) =
  match m.Kernel.sim with
  | Ok s -> s.Report.sem_ok = Some true
  | Error _ -> false

(* A simulated fact of a run as a table cell; a trapped run has none,
   so it reads "-" and its tag names the trap. *)
let sim_cell (m : Kernel.measurement) f =
  match m.Kernel.sim with Ok s -> f s | Error _ -> "-"

let cycles_cell m = sim_cell m (fun s -> string_of_int s.Report.cycles)

let int_cell = function Some i -> string_of_int i | None -> "-"

let cycles_json (m : Kernel.measurement) =
  match m.Kernel.sim with
  | Ok s -> Json.Int s.Report.cycles
  | Error _ -> Json.Null

(* Run a lowered program on the Warp cell, its arrays seeded by [seed]. *)
let run_program ~seed ?config name p =
  Kernel.run ?config Machine.warp
    (Kernel.mk name ~init:(Kernel.init_all_arrays ~seed)
       (Kernel.Ir (fun () -> p)))

(* Run [f] with a recorder switched on, restoring its switch after. *)
let switched_on (enabled, enable, disable) f =
  let was = enabled () in
  if not was then enable ();
  Fun.protect ~finally:(fun () -> if not was then disable ()) f

(* ------------------------------------------------------------------ *)
(* E0: the Section 2 worked example                                    *)
(* ------------------------------------------------------------------ *)

let table_example (_ : opts) =
  section "E0: Section 2 worked example (a[i] := a[i] + K on the toy machine)";
  let src =
    {|program vadd;
var a : array [0..99] of float; k : int;
begin for k := 0 to 99 do a[k] := a[k] + 3.5; end.|}
  in
  let k = Kernel.mk "vadd-toy" ~init:(Kernel.init_all_arrays ~seed:1) (Kernel.W2 src) in
  let factor, piped, local = Kernel.speedup Machine.toy k in
  let lr = List.hd piped.Kernel.loops in
  Fmt.pr
    "  initiation interval: %s (lower bound %d)@.\
    \  unpipelined restart:  %d cycles per iteration@.\
    \  cycles: %s pipelined vs %s unpipelined  =>  speed-up %.2fx@.\
    \  (paper: II = 1, four instructions per unpipelined iteration,@.\
    \   'four times the speed of the original program')%s@."
    (int_cell lr.C.ii) lr.C.mii lr.C.seq_len (cycles_cell piped)
    (cycles_cell local) factor (Kernel.tag piped);
  Json.Obj
    [
      ("ii", match lr.C.ii with Some s -> Json.Int s | None -> Json.Null);
      ("mii", Json.Int lr.C.mii);
      ("seq_len", Json.Int lr.C.seq_len);
      ("cycles_pipelined", cycles_json piped);
      ("cycles_local", cycles_json local);
      ("speedup", Json.Float factor);
    ]

(* ------------------------------------------------------------------ *)
(* E1: Table 4-1                                                       *)
(* ------------------------------------------------------------------ *)

let table_4_1 (_ : opts) =
  section "E1: Table 4-1 — performance of application programs (Warp array)";
  let t =
    Table.create
      ~headers:
        [ "task"; "cycles"; "flops"; "cell MFLOPS"; "array MFLOPS";
          "paper"; "status" ]
      ~aligns:[ Table.L; R; R; R; R; R; L ]
  in
  List.iter
    (fun (k, paper) ->
      let m = Kernel.run Machine.warp k in
      Table.add_row t
        [
          m.Kernel.kernel;
          cycles_cell m;
          sim_cell m (fun s -> string_of_int s.Report.flops);
          sim_cell m (fun s -> Printf.sprintf "%.2f" s.Report.mflops);
          sim_cell m (fun s ->
              Printf.sprintf "%.1f" (cells *. s.Report.mflops));
          (match paper with Some x -> Printf.sprintf "%.1f" x | None -> "?");
          (if sem_ok m && m.Kernel.resource_ok then "ok" else "INVALID");
        ])
    Apps.all;
  (* the systolic matmul again, on a TRUE 10-cell co-simulation with
     blocking queues instead of the paper's one-tenth accounting *)
  (let k, _ = List.hd Apps.all in
   let p = Kernel.program k in
   let r = C.program Machine.warp p in
   let n = 48 * 48 in
   let feed =
     [ List.init n (fun i -> 0.5 +. (0.125 *. float_of_int (i mod 31)));
       List.init n (fun i ->
           0.125 *. (0.5 +. (0.125 *. float_of_int (i mod 31)))) ]
   in
   let init _ st = Kernel.init_all_arrays ~seed:41 st p in
   match
     Sp_vliw.Array_sim.run ~cells:10 ~feed ~init Machine.warp p
       [| r.C.code |]
   with
   | exception Sp_vliw.Sim.Cycle_limit n ->
     Table.add_row t
       [ "matmul (true 10-cell co-sim)"; "-"; "-"; "-"; "-"; "79.4";
         Printf.sprintf "FAILED: cycle limit %d" n ]
   | exception Sp_vliw.Sim.Write_conflict msg ->
     Table.add_row t
       [ "matmul (true 10-cell co-sim)"; "-"; "-"; "-"; "-"; "79.4";
         "FAILED: write-port conflict: " ^ msg ]
   | res ->
     Table.add_row t
       [
         "matmul (true 10-cell co-sim)";
         string_of_int res.Sp_vliw.Array_sim.cycles;
         string_of_int res.Sp_vliw.Array_sim.flops;
         "-";
         Printf.sprintf "%.1f" (Sp_vliw.Array_sim.mflops Machine.warp res);
         "79.4";
         "ok";
       ]);
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (array MFLOPS = 10 x cell MFLOPS, the paper's own accounting;@.\
    \   the co-sim row runs ten coupled cells with blocking 512-word@.\
    \   queues; problem sizes scaled for simulation, see EXPERIMENTS.md)@.";
  json_of_table t

(* ------------------------------------------------------------------ *)
(* E4: Table 4-2                                                       *)
(* ------------------------------------------------------------------ *)

let table_4_2 (_ : opts) =
  section "E4: Table 4-2 — Livermore loops on a single Warp cell";
  let t =
    Table.create
      ~headers:
        [ "kernel"; "MFLOPS"; "eff(lb)"; "speedup"; "paper M/e/s"; "pipelined?" ]
      ~aligns:[ Table.L; R; R; R; R; L ]
  in
  List.iter
    (fun k ->
      let factor, piped, _local = Kernel.speedup Machine.warp k in
      let eff = Kernel.efficiency piped in
      let pipelined =
        List.exists
          (fun (lr : C.loop_report) -> lr.C.status = C.Pipelined)
          piped.Kernel.loops
      in
      let why =
        match piped.Kernel.loops with
        | [] -> "-"
        | lrs ->
          String.concat ","
            (List.sort_uniq compare
               (List.map (fun (lr : C.loop_report) ->
                    C.status_to_string lr.C.status)
                  lrs))
      in
      let paper =
        match List.assoc_opt piped.Kernel.kernel Livermore.paper_reference with
        | Some (m, e, s) -> Printf.sprintf "%.2f/%.2f/%.2f" m e s
        | None -> "-"
      in
      Table.add_row t
        [
          piped.Kernel.kernel ^ Kernel.tag piped;
          sim_cell piped (fun s -> Printf.sprintf "%.2f" s.Report.mflops);
          Printf.sprintf "%.2f" eff;
          Printf.sprintf "%.2f" factor;
          paper;
          (if pipelined then "yes" else "no (" ^ why ^ ")");
        ])
    Livermore.all;
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (paper M/e/s = MFLOPS / efficiency lower bound / speed-up for rows@.\
    \   legible in the source scan; LFK20 and LFK22 are expected not to@.\
    \   pipeline — bound within the serial length, and EXP body over the@.\
    \   length threshold, exactly the paper's reasons)@.";
  json_of_table t

(* ------------------------------------------------------------------ *)
(* E2/E3/E5: the 72-program population                                 *)
(* ------------------------------------------------------------------ *)

type suite_row = {
  r_name : string;
  r_cond : bool;
  r_speedup : float;
  r_cell_mflops : float option;  (** [None] when the run trapped *)
  r_loops : C.loop_report list;
  r_valid : bool;
}

let suite_rows =
  lazy
    (List.map
       (fun (e : Suite.entry) ->
         let f, piped, local = Kernel.speedup Machine.warp e.Suite.kernel in
         {
           r_name = piped.Kernel.kernel;
           r_cond = e.Suite.has_cond;
           r_speedup = f;
           r_cell_mflops =
             Result.to_option
               (Result.map (fun s -> s.Report.mflops) piped.Kernel.sim);
           r_loops = piped.Kernel.loops;
           r_valid = sem_ok piped && piped.Kernel.resource_ok && sem_ok local;
         })
       Suite.all)

let figure_4_1 (_ : opts) =
  section "E2: Figure 4-1 — MFLOPS of the 72-program population (array)";
  let rows = Lazy.force suite_rows in
  let h = Histogram.create ~lo:0.0 ~width:10.0 ~buckets:11 in
  List.iter
    (fun r ->
      Option.iter (fun x -> Histogram.add h (cells *. x)) r.r_cell_mflops)
    rows;
  Fmt.pr "%a" (Histogram.pp ~bar_unit:1) h;
  Fmt.pr "  programs: %d   mean: %.1f array MFLOPS   invalid: %d@."
    (Histogram.count h) (Histogram.mean h)
    (List.length (List.filter (fun r -> not r.r_valid) rows));
  json_of_histogram h

let figure_4_2 (_ : opts) =
  section "E3: Figure 4-2 — speed-up over locally compacted code";
  let rows = Lazy.force suite_rows in
  let h = Histogram.create ~lo:1.0 ~width:0.5 ~buckets:13 in
  List.iter (fun r -> Histogram.add h r.r_speedup) rows;
  Fmt.pr "%a" (Histogram.pp ~bar_unit:1) h;
  let avg l =
    List.fold_left (fun a r -> a +. r.r_speedup) 0.0 l
    /. float_of_int (max 1 (List.length l))
  in
  let cond, nocond = List.partition (fun r -> r.r_cond) rows in
  Fmt.pr
    "  mean speed-up: %.2f  (with conditionals: %.2f over %d programs,@.\
    \   without: %.2f over %d)   [paper: mean 3x, 42 of 72 conditional]@."
    (avg rows) (avg cond) (List.length cond) (avg nocond)
    (List.length nocond);
  json_of_histogram h

let table_lower_bound (_ : opts) =
  section "E5: Section 4.1 claims — loops meeting the II lower bound";
  let rows = Lazy.force suite_rows in
  let loops = List.concat_map (fun r -> List.map (fun l -> (r, l)) r.r_loops) rows in
  let pipelined =
    List.filter
      (fun ((_, l) : _ * C.loop_report) -> l.C.status = C.Pipelined)
      loops
  in
  let at_bound =
    List.filter (fun (_, l) -> l.C.ii = Some l.C.mii) pipelined
  in
  let plain =
    List.filter (fun (_, l) -> (not l.C.has_if) && not l.C.has_scc) pipelined
  in
  let plain_at_bound =
    List.filter (fun (_, l) -> l.C.ii = Some l.C.mii) plain
  in
  let rest =
    List.filter (fun (_, l) -> l.C.ii <> Some l.C.mii) pipelined
  in
  let rest_eff =
    List.fold_left (fun a (_, l) -> a +. C.efficiency l) 0.0 rest
    /. float_of_int (max 1 (List.length rest))
  in
  let pct a b = 100.0 *. float_of_int a /. float_of_int (max 1 b) in
  Fmt.pr
    "  pipelined loops at the theoretical lower bound: %d/%d (%.0f%%)   [paper: 75%%]@.\
    \  loops without conditionals or recurrences at bound: %d/%d (%.0f%%)  [paper: 93%%]@.\
    \  average efficiency of above-bound loops: %.2f   [paper: 0.75]@."
    (List.length at_bound) (List.length pipelined)
    (pct (List.length at_bound) (List.length pipelined))
    (List.length plain_at_bound) (List.length plain)
    (pct (List.length plain_at_bound) (List.length plain))
    rest_eff;
  Json.Obj
    [
      ("pipelined", Json.Int (List.length pipelined));
      ("at_bound", Json.Int (List.length at_bound));
      ("plain", Json.Int (List.length plain));
      ("plain_at_bound", Json.Int (List.length plain_at_bound));
      ("above_bound_mean_efficiency", Json.Float rest_eff);
    ]

(* ------------------------------------------------------------------ *)
(* E6: code size                                                       *)
(* ------------------------------------------------------------------ *)

let table_code_size (_ : opts) =
  section "E6: Section 2.4 — code size of pipelined loops";
  let t =
    Table.create
      ~headers:
        [ "kernel"; "unpipelined"; "pipelined"; "ratio"; "trip"; "note" ]
      ~aligns:[ Table.L; R; R; R; L; L ]
  in
  let one name src trip note =
    let k = Kernel.mk name ~init:(Kernel.init_all_arrays ~seed:3) (Kernel.W2 src) in
    let piped = Kernel.run Machine.warp k in
    let local = Kernel.run ~config:C.local_only Machine.warp k in
    Table.add_row t
      [
        name ^ Kernel.tag piped;
        string_of_int local.Kernel.code_size;
        string_of_int piped.Kernel.code_size;
        Printf.sprintf "%.1fx"
          (float_of_int piped.Kernel.code_size
          /. float_of_int (max 1 local.Kernel.code_size));
        trip;
        note;
      ]
  in
  one "saxpy-const"
    {|program s;
var x, y : array [0..127] of float; k : int;
begin for k := 0 to 127 do y[k] := 2.5 * x[k] + y[k]; end.|}
    "known" "single version";
  one "saxpy-runtime"
    {|program s;
var x, y : array [0..127] of float; n, k : int;
begin
  n := 100;
  for k := 0 to n do y[k] := 2.5 * x[k] + y[k];
end.|}
    "run-time" "two versions (Section 2.4 scheme)";
  one "conv1d-const"
    {|program s;
var x, y : array [0..135] of float; k : int;
begin for k := 0 to 127 do
  y[k] := 0.25*x[k] + 0.5*x[k+1] + 0.25*x[k+2]; end.|}
    "known" "single version";
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (paper: within 3x for compile-time trip counts, within 4x with@.\
    \   the two-version scheme; the steady state alone stays short)@.";
  json_of_table t

(* ------------------------------------------------------------------ *)
(* E7: modulo variable expansion ablation                               *)
(* ------------------------------------------------------------------ *)

let table_mve (_ : opts) =
  section "E7: modulo variable expansion ablation (DESIGN.md 5.2)";
  let t =
    Table.create
      ~headers:[ "kernel"; "mode"; "II"; "unroll"; "code"; "cycles" ]
      ~aligns:[ Table.L; L; R; R; R; R ]
  in
  let kernels = [ Livermore.k1_hydro; Livermore.k7_eos; Livermore.k12_first_diff ] in
  List.iter
    (fun k ->
      List.iter
        (fun (mode_name, mode) ->
          let config = { C.default with C.mve_mode = mode } in
          let m = Kernel.run ~config Machine.warp k in
          let lr =
            List.find_opt
              (fun (l : C.loop_report) -> l.C.status = C.Pipelined)
              m.Kernel.loops
          in
          Table.add_row t
            [
              m.Kernel.kernel ^ Kernel.tag m;
              mode_name;
              int_cell (Option.bind lr (fun l -> l.C.ii));
              int_cell (Option.map (fun l -> l.C.unroll) lr);
              string_of_int m.Kernel.code_size;
              cycles_cell m;
            ])
        [ ("max-q (paper)", Sp_core.Mve.Max_q);
          ("lcm", Sp_core.Mve.Lcm);
          ("off", Sp_core.Mve.Off) ])
    kernels;
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (off = carried anti-dependences kept: the II degrades to the@.\
    \   variable lifetimes; lcm unrolls more for the same II — the code@.\
    \   size argument of Section 2.3)@.";
  json_of_table t

(* ------------------------------------------------------------------ *)
(* E8: hierarchical reduction ablation                                  *)
(* ------------------------------------------------------------------ *)

let table_hier (_ : opts) =
  section "E8: hierarchical reduction — conditionals and short loops";
  (* (a) a conditional loop: pipelined vs local compaction *)
  let k =
    Kernel.mk "cond-loop" ~init:(Kernel.init_all_arrays ~seed:5)
      (Kernel.W2
         {|program c;
var x, y : array [0..199] of float; t : float; k : int;
begin
  for k := 0 to 191 do begin
    if x[k] > 1.5 then t := x[k] * 2.0;
    else t := x[k] * 0.5;
    y[k] := t + 0.25 * (x[k+1] + x[k+2]);
  end
end.|})
  in
  let f, piped, local = Kernel.speedup Machine.warp k in
  Fmt.pr
    "  loop with conditional: %s cycles pipelined vs %s compacted (%.2fx)%s@."
    (cycles_cell piped) (cycles_cell local) f (Kernel.tag piped);
  (* (b) short-vector penalty: total cycles for a fixed amount of work
     split into loops of decreasing trip count *)
  let t =
    Table.create
      ~headers:[ "trip count"; "loops"; "cycles"; "cycles/iteration" ]
      ~aligns:[ Table.R; R; R; R ]
  in
  List.iter
    (fun trip ->
      let loops = 192 / trip in
      let body =
        String.concat "\n"
          (List.init loops (fun l ->
               Printf.sprintf
                 "  for k := %d to %d do y[k] := 2.0 * x[k] + y[k];"
                 (l * trip)
                 (((l + 1) * trip) - 1)))
      in
      let src =
        Printf.sprintf
          {|program s;
var x, y : array [0..191] of float; k : int;
begin
%s
end.|}
          body
      in
      let k = Kernel.mk "short" ~init:(Kernel.init_all_arrays ~seed:6) (Kernel.W2 src) in
      let m = Kernel.run Machine.warp k in
      Table.add_row t
        [
          string_of_int trip;
          string_of_int loops;
          cycles_cell m ^ Kernel.tag m;
          sim_cell m (fun s ->
              Printf.sprintf "%.2f" (float_of_int s.Report.cycles /. 192.0));
        ])
    [ 192; 96; 48; 24; 12 ];
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (same 192 iterations of work; shorter vectors pay relatively more@.\
    \   start-up — hierarchical reduction lets prologs/epilogs overlap@.\
    \   surrounding scalar code, keeping the penalty bounded)@.";
  (* (c) extension ablation: branches (the paper) vs if-conversion *)
  let src =
    {|program c;
var x, y : array [0..199] of float; t : float;
begin
  for k := 0 to 191 do begin
    if x[k] > 1.5 then t := x[k] * 2.0;
    else t := x[k] * 0.5;
    y[k] := t;
  end
end.|}
  in
  let br = run_program ~seed:5 "branches" (Sp_lang.Lower.compile_source src) in
  let sel =
    run_program ~seed:5 "if-converted"
      (Sp_lang.Lower.compile_source ~if_convert:true src)
  in
  Fmt.pr
    "@.  conditional lowering: %s cycles with branches (the paper)%s vs@.\
    \  %s cycles if-converted to selects (extension)%s — selects dodge the@.\
    \  sequencer serialization at the cost of executing both sides@."
    (cycles_cell br) (Kernel.tag br) (cycles_cell sel) (Kernel.tag sel);
  json_of_table t

(* ------------------------------------------------------------------ *)
(* E9: datapath scaling                                                 *)
(* ------------------------------------------------------------------ *)

let table_scale (_ : opts) =
  section "E9: Section 6 — scaling the datapath";
  let t =
    Table.create
      ~headers:[ "kernel"; "width 1"; "width 2"; "width 4"; "limited by" ]
      ~aligns:[ Table.L; R; R; R; L ]
  in
  let kernels =
    [ (Livermore.k7_eos, "resources (parallel iterations)");
      (Livermore.k12_first_diff, "resources (parallel iterations)");
      (Livermore.k5_tridiag, "recurrence cycle (does not scale)");
      (Livermore.k11_first_sum, "recurrence cycle (does not scale)") ]
  in
  List.iter
    (fun (k, why) ->
      let mflops_at width =
        let m = Kernel.run (Machine.warp_scaled ~width) k in
        sim_cell m (fun s -> Printf.sprintf "%.2f" s.Report.mflops)
        ^ Kernel.tag m
      in
      Table.add_row t
        [ k.Kernel.name; mflops_at 1; mflops_at 2; mflops_at 4; why ])
    kernels;
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (the paper's closing observation: independent-iteration loops scale@.\
    \   with the hardware; recurrence-bound loops are pinned by their cycle)@.";
  json_of_table t

(* ------------------------------------------------------------------ *)
(* linear vs binary search ablation                                     *)
(* ------------------------------------------------------------------ *)

let table_search (_ : opts) =
  section "E7b: linear vs binary interval search (DESIGN.md 5.1)";
  let t =
    Table.create
      ~headers:[ "kernel"; "linear II"; "binary II"; "note" ]
      ~aligns:[ Table.L; R; R; L ]
  in
  List.iter
    (fun k ->
      let ii_of search =
        let config = { C.default with C.search } in
        let m = Kernel.run ~config Machine.warp k in
        List.find_map (fun (l : C.loop_report) -> l.C.ii) m.Kernel.loops
      in
      let li = ii_of Sp_core.Modsched.Linear in
      let bi = ii_of Sp_core.Modsched.Binary in
      Table.add_row t
        [
          k.Kernel.name;
          int_cell li;
          int_cell bi;
          (if li = bi then "same"
           else "binary missed the optimum (non-monotonic schedulability)");
        ])
    [ Livermore.k1_hydro; Livermore.k5_tridiag; Livermore.k7_eos;
      Livermore.k17_conditional; Livermore.k21_matmul ];
  Fmt.pr "%a" Table.pp t;
  json_of_table t

(* ------------------------------------------------------------------ *)
(* E11: software pipelining vs source unrolling (Section 5.1)           *)
(* ------------------------------------------------------------------ *)

let table_unroll (_ : opts) =
  section "E11: Section 5.1 — software pipelining vs source unrolling";
  let src =
    {|program s;
var x, y : array [0..199] of float;
begin
  for k := 0 to 191 do
    y[k] := 2.5 * x[k] + 1.5 * x[k+1] + y[k];
end.|}
  in
  let t =
    Table.create
      ~headers:[ "compilation"; "cycles"; "code"; "vs unroll-1" ]
      ~aligns:[ Table.L; R; R; R ]
  in
  let measure name p config = run_program ~seed:11 ~config name p in
  let base =
    measure "unroll-1" (Sp_lang.Lower.compile_source src) C.local_only
  in
  let row name (m : Kernel.measurement) =
    Table.add_row t
      [
        name ^ Kernel.tag m;
        cycles_cell m;
        string_of_int m.Kernel.code_size;
        (match (base.Kernel.sim, m.Kernel.sim) with
        | Ok b, Ok s ->
          Printf.sprintf "%.2fx"
            (float_of_int b.Report.cycles /. float_of_int s.Report.cycles)
        | _ -> "-");
      ]
  in
  row "compact only (unroll 1)" base;
  List.iter
    (fun k ->
      row
        (Printf.sprintf "unroll %d + compact" k)
        (measure
           (Printf.sprintf "unroll-%d" k)
           (Sp_lang.Unroll.compile_source ~k src)
           C.local_only))
    [ 2; 4; 8 ];
  row "software pipelined"
    (measure "pipelined" (Sp_lang.Lower.compile_source src) C.default);
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (unrolling approaches but cannot reach the pipelined throughput:@.\
    \   the hardware pipelines drain at every unrolled-group boundary,@.\
    \   while code size grows with the unroll factor — Section 5.1)@.";
  json_of_table t

(* ------------------------------------------------------------------ *)
(* E12: heuristic vs exact — the optimality gap                         *)
(* ------------------------------------------------------------------ *)

(** Measure the paper's Section 4.1 near-optimality claim directly:
    every pipelined loop's heuristic interval is certified against the
    exact modulo scheduler ([Sp_opt]), with the search's work counters
    (nodes expanded, nogood-bank hits, backjumps) read off the
    {!Sp_obs.Cost} profile — deterministic counts, so the table is
    byte-identical at any [--jobs] width. *)
let table_optimal { jobs; _ } =
  section "E12: optimality gap — heuristic II vs exact II (Livermore)";
  let config =
    { C.default with C.jobs; certifier = Some (Sp_opt.Certify.hook ()) }
  in
  let t =
    Table.create
      ~headers:
        [ "kernel"; "loop"; "mii"; "heur II"; "exact II"; "certificate";
          "search probes/fuel"; "cert fuel"; "nodes"; "nogood hits";
          "backjumps" ]
      ~aligns:[ Table.L; R; R; R; R; L; R; R; R; R; R ]
  in
  let n_opt = ref 0 and n_imp = ref 0 and n_unk = ref 0 in
  let count_loop (lr : C.loop_report) =
    match lr.C.cert with
    | Some (C.Cert_optimal _) -> incr n_opt
    | Some (C.Cert_improved _) -> incr n_imp
    | Some (C.Cert_unknown _) -> incr n_unk
    | None -> ()
  in
  let loop_rows prof name (lr : C.loop_report) =
    match lr.C.ii with
    | None -> ()
    | Some ii ->
      count_loop lr;
      let heur_ii, exact_ii, cert_s, cert_fuel =
        match lr.C.cert with
        | Some (C.Cert_optimal { spent }) ->
          (ii, string_of_int ii, "optimal", string_of_int spent)
        | Some (C.Cert_improved { heur_ii; spent }) ->
          (heur_ii, string_of_int ii, "improved", string_of_int spent)
        | Some (C.Cert_unknown { proven_below; spent }) ->
          ( ii,
            Printf.sprintf "unknown (>=%d)" proven_below,
            "unknown (budget out)",
            string_of_int spent )
        | None -> (ii, "-", "-", "-")
      in
      let counts = Sp_obs.Cost.loop_counters prof ~loop:lr.C.l_id in
      let cnt c = string_of_int (List.assoc c counts) in
      Table.add_row t
        [
          name;
          string_of_int lr.C.l_id;
          string_of_int lr.C.mii;
          string_of_int heur_ii;
          exact_ii;
          cert_s;
          Printf.sprintf "%d/%d" lr.C.probed lr.C.fuel_spent;
          cert_fuel;
          cnt Sp_obs.Cost.Exact_node;
          cnt Sp_obs.Cost.Exact_nogood_hit;
          cnt Sp_obs.Cost.Exact_backjump;
        ]
  in
  switched_on Sp_obs.Cost.(enabled, enable, disable) @@ fun () ->
  List.iter
    (fun k ->
      let m, prof =
        Sp_obs.Cost.collect (fun () -> Kernel.run ~config Machine.warp k)
      in
      List.iter
        (loop_rows prof (m.Kernel.kernel ^ Kernel.tag m))
        m.Kernel.loops)
    Livermore.all;
  Fmt.pr "%a" Table.pp t;
  let certified = !n_opt + !n_imp + !n_unk in
  Fmt.pr
    "@.  certified loops: %d   optimal: %d   improved: %d   unknown: %d@.\
    \  (every interval below a certified-optimal II is proven@.\
    \   infeasible by exhaustive residue search — no external solver;@.\
    \   'unknown' rows record how far the proof got before the budget)@."
    certified !n_opt !n_imp !n_unk;
  (* the 72-program population, compile-only: the measured form of the
     paper's "near-optimal in practice" *)
  let p_opt = ref 0 and p_imp = ref 0 and p_unk = ref 0 and p_pip = ref 0 in
  List.iter
    (fun (e : Suite.entry) ->
      let p = Kernel.program e.Suite.kernel in
      let r = C.program ~config Machine.warp p in
      List.iter
        (fun (lr : C.loop_report) ->
          match lr.C.cert with
          | Some (C.Cert_optimal _) -> incr p_pip; incr p_opt
          | Some (C.Cert_improved _) -> incr p_pip; incr p_imp
          | Some (C.Cert_unknown _) -> incr p_pip; incr p_unk
          | None -> ())
        r.C.loops)
    Suite.all;
  Fmt.pr
    "@.  72-program population: %d certified loops — %d optimal \
     (%.0f%%), %d improved, %d unknown@.\
    \  [paper Section 4.1: the heuristic is near-optimal; measured@.\
    \   optimality rate above]@."
    !p_pip !p_opt
    (100.0 *. float_of_int !p_opt /. float_of_int (max 1 !p_pip))
    !p_imp !p_unk;
  json_of_table t

(* ------------------------------------------------------------------ *)
(* E21: conflict learning A/B over the generated population             *)
(* ------------------------------------------------------------------ *)

(** E21: the learning ablation. Every certified loop of the generated
    population is solved three ways — chronological search (learning
    off), conflict-learned search (learning on), and the 4-member
    proof portfolio — and the table reports per-loop verdicts, nodes
    expanded and certifier fuel for the A/B pair, plus the node
    reduction factor. All numbers are deterministic work counts, so
    the table and artifact are byte-identical at any [--jobs] width;
    the portfolio column is a live cross-check (a mismatch against the
    single-member verdict fails the invocation). *)
let table_optimal_learning { jobs; _ } =
  section "E21: conflict learning A/B — 72-program population";
  let cert_desc (lr : C.loop_report) =
    match lr.C.cert with
    | Some (C.Cert_optimal _) ->
      Printf.sprintf "optimal@%d" (Option.value ~default:(-1) lr.C.ii)
    | Some (C.Cert_improved { heur_ii; _ }) ->
      Printf.sprintf "improved:%d->%d" heur_ii
        (Option.value ~default:(-1) lr.C.ii)
    | Some (C.Cert_unknown { proven_below; _ }) ->
      Printf.sprintf "unknown>=%d" proven_below
    | None -> "-"
  in
  let cert_spent (lr : C.loop_report) =
    match lr.C.cert with
    | Some (C.Cert_optimal { spent })
    | Some (C.Cert_improved { spent; _ })
    | Some (C.Cert_unknown { spent; _ }) -> spent
    | None -> 0
  in
  (* one full population pass under one solver configuration: per
     certified loop, (name, loop, mii, cert tag, cert fuel, nodes,
     nogood hits, backjumps) *)
  let pass ~learn ~portfolio =
    let config =
      {
        C.default with
        C.jobs;
        certifier = Some (Sp_opt.Certify.hook ~learn ~portfolio ());
      }
    in
    List.concat_map
      (fun (e : Suite.entry) ->
        let p = Kernel.program e.Suite.kernel in
        let r, prof =
          Sp_obs.Cost.collect (fun () -> C.program ~config Machine.warp p)
        in
        List.filter_map
          (fun (lr : C.loop_report) ->
            if lr.C.cert = None then None
            else
              let counts = Sp_obs.Cost.loop_counters prof ~loop:lr.C.l_id in
              let count c = List.assoc c counts in
              Some
                ( e.Suite.kernel.Kernel.name,
                  lr.C.l_id,
                  lr.C.mii,
                  cert_desc lr,
                  cert_spent lr,
                  count Sp_obs.Cost.Exact_node,
                  count Sp_obs.Cost.Exact_nogood_hit,
                  count Sp_obs.Cost.Exact_backjump ))
          r.C.loops)
      Suite.all
  in
  switched_on Sp_obs.Cost.(enabled, enable, disable) @@ fun () ->
  let off = pass ~learn:false ~portfolio:1 in
  let on = pass ~learn:true ~portfolio:1 in
  let p4 = pass ~learn:true ~portfolio:4 in
  let t =
    Table.create
      ~headers:
        [ "program"; "loop"; "mii"; "off: cert"; "off: nodes"; "off: fuel";
          "on: cert"; "on: nodes"; "on: fuel"; "nogood hits"; "backjumps";
          "node redn"; "p4: cert" ]
      ~aligns:
        [ Table.L; R; R; L; R; R; L; R; R; R; R; R; L ]
  in
  let undecided tag =
    String.length tag >= 7 && String.sub tag 0 7 = "unknown"
  in
  let n = List.length on in
  let proven tags =
    List.length (List.filter (fun (_, _, _, c, _, _, _, _) -> not (undecided c)) tags)
  in
  let disagree = ref [] in
  let reductions = ref [] in
  List.iter2
    (fun ((name, l, mii, c_off, f_off, n_off, _, _) as _row_off)
         (name', l', _, c_on, f_on, n_on, hits, bj) ->
      assert (name = name' && l = l');
      let _, _, _, c_p4, _, _, _, _ =
        List.find
          (fun (nm, ll, _, _, _, _, _, _) -> nm = name && ll = l)
          p4
      in
      (* the A/B searches must agree wherever both decide; the
         portfolio must agree with the single member outright *)
      if c_off <> c_on && (not (undecided c_off)) && not (undecided c_on)
      then disagree := Printf.sprintf "%s.%d: off %s / on %s" name l c_off c_on :: !disagree;
      if c_p4 <> c_on then
        disagree :=
          Printf.sprintf "%s.%d: portfolio-4 %s / portfolio-1 %s" name l c_p4
            c_on
          :: !disagree;
      let redn = float_of_int n_off /. float_of_int (max 1 n_on) in
      if undecided c_off && not (undecided c_on) then
        reductions := redn :: !reductions;
      Table.add_row t
        [
          name; string_of_int l; string_of_int mii;
          c_off; string_of_int n_off; string_of_int f_off;
          c_on; string_of_int n_on; string_of_int f_on;
          string_of_int hits; string_of_int bj;
          Printf.sprintf "%.1fx" redn;
          c_p4;
        ])
    off on;
  Fmt.pr "%a" Table.pp t;
  (* median node reduction over the loops the chronological search
     could not decide — the loops learning must rescue *)
  let median =
    match List.sort compare !reductions with
    | [] -> None
    | l -> Some (List.nth l (List.length l / 2))
  in
  Fmt.pr
    "@.  certified loops: %d   decided without learning: %d   with \
     learning: %d@."
    n (proven off) (proven on);
  (match median with
  | Some m ->
    Fmt.pr
      "  median node reduction on previously-unproven loops: %.0fx (%d \
       loop(s))@."
      m (List.length !reductions)
  | None -> Fmt.pr "  (no previously-unproven loops in this population)@.");
  List.iter (fun d -> Fmt.pr "  DISAGREE %s@." d) (List.rev !disagree);
  if !disagree <> [] then
    fail "optimal-learning: solver configurations disagree"
  else if proven on < n then
    fail "optimal-learning: %d loop(s) undecided at default fuel with \
          learning on"
      (n - proven on);
  Json.Obj
    [
      ("table", json_of_table t);
      ("loops", Json.Int n);
      ("proven_off", Json.Int (proven off));
      ("proven_on", Json.Int (proven on));
      ( "median_reduction",
        match median with Some m -> Json.Float m | None -> Json.Null );
      ("disagreements", Json.Int (List.length !disagree));
    ]

(* ------------------------------------------------------------------ *)
(* E13: pipeline profile over the Livermore kernels                     *)
(* ------------------------------------------------------------------ *)

(** The schedule-quality profile of every Livermore kernel: achieved
    interval vs. its lower bounds (with the exact certifier's verdict
    under a capped budget), plus per-resource utilization of the
    simulated execution. The JSON artifact of this table is the
    repo-root BENCH_pipeline.json (EXPERIMENTS.md E13). *)
let table_pipeline (_ : opts) =
  section
    "E13: pipeline profile — achieved II vs bounds and FU utilization \
     (Livermore)";
  let config =
    {
      C.default with
      C.certifier = Some (Sp_opt.Certify.hook ~fuel:400_000 ());
    }
  in
  let t =
    Table.create
      ~headers:
        [ "kernel"; "loop"; "II"; "res/rec mii"; "optimal"; "eff";
          "overhead"; "fadd"; "fmul"; "mem"; "status" ]
      ~aligns:[ Table.L; R; R; R; R; R; R; R; R; R; L ]
  in
  let pct x = Printf.sprintf "%.0f%%" (100. *. x) in
  let util u name =
    match List.assoc_opt name u with Some x -> pct x | None -> "-"
  in
  let reports =
    switched_on Sp_obs.Cost.(enabled, enable, disable) @@ fun () ->
    switched_on Sp_obs.Explain.(enabled, enable, disable) @@ fun () ->
    List.map
      (fun k ->
        let (meas, events), cost =
          Sp_obs.Cost.collect (fun () ->
              Sp_obs.Explain.collect (fun () ->
                  Kernel.run ~config Machine.warp k))
        in
        let utilization =
          match meas.Kernel.sim with
          | Ok s -> s.Report.utilization
          | Error _ -> []
        in
        List.iter
          (fun (lr : C.loop_report) ->
            Table.add_row t
              [
                meas.Kernel.kernel ^ Kernel.tag meas;
                string_of_int lr.C.l_id;
                int_cell lr.C.ii;
                Printf.sprintf "%d/%d" lr.C.res_mii lr.C.rec_mii;
                (match Report.optimal_ii lr with
                | Some ii -> string_of_int ii
                | None -> "?");
                Printf.sprintf "%.2f" (C.efficiency lr);
                Printf.sprintf "%.2f" (Report.overhead lr);
                util utilization "fadd";
                util utilization "fmul";
                util utilization "mem";
                C.status_to_string lr.C.status;
              ])
          meas.Kernel.loops;
        Report.to_json ~attribution:(events, cost) Machine.warp
          ~name:meas.Kernel.kernel ~code_size:meas.Kernel.code_size
          ?sim:(Result.to_option meas.Kernel.sim) meas.Kernel.loops)
      Livermore.all
  in
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (utilization columns are whole-execution busy fractions from the@.\
    \   cycle-accurate simulator; 'optimal' is the exact certifier's@.\
    \   verdict under a 400k-fuel budget, '?' = budget exhausted or@.\
    \   loop not pipelined; see BENCH_pipeline.json for the full per-@.\
    \   kernel reports including MRT occupancy and register pressure)@.";
  Json.Obj [ ("kernels", Json.List reports) ]

(* ------------------------------------------------------------------ *)
(* E20: deterministic work-cost accounting                              *)
(* ------------------------------------------------------------------ *)

(** Compile-only cost profiles of the Livermore suite. Every number is
    a deterministic work-unit count ({!Sp_obs.Cost}) — no wall clock —
    so the artifact is byte-identical across runs, machines, and any
    [--jobs] width (the shard-merge identity this table exists to
    pin). *)
let table_cost { jobs; _ } =
  section
    (Fmt.str
       "E20: work-cost accounting (Livermore, compile only, %d job(s))"
       jobs);
  let config = { C.default with C.jobs } in
  (* phases whose steps bump work counters today; the artifact still
     carries every cell, so a counter added to mve/emit/validate later
     shows up there without a schema change *)
  let shown =
    [ Sp_obs.Cost.P_ddg; P_compact; P_bounds; P_search; P_other ]
  in
  let t =
    Table.create
      ~headers:
        ("kernel" :: "total"
        :: List.map Sp_obs.Cost.phase_name shown)
      ~aligns:(Table.L :: List.init (1 + List.length shown) (fun _ -> Table.R))
  in
  let profiles =
    switched_on Sp_obs.Cost.(enabled, enable, disable) @@ fun () ->
    List.map
      (fun k ->
        let p = Kernel.program k in
        let (_ : C.result), prof =
          Sp_obs.Cost.collect (fun () -> C.program ~config Machine.warp p)
        in
        Table.add_row t
          (k.Kernel.name
          :: string_of_int (Sp_obs.Cost.total prof)
          :: List.map
               (fun ph ->
                 string_of_int (List.assoc ph (Sp_obs.Cost.phase_totals prof)))
               shown);
        (k.Kernel.name, prof))
      Livermore.all
  in
  let grand =
    List.fold_left
      (fun acc (_, prof) -> Sp_obs.Cost.merge acc prof)
      Sp_obs.Cost.empty profiles
  in
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (work units, not cycles: MRT probes, Spath relaxations, heap@.\
    \   ops, DDG edges — identical for any --jobs width; suite total@.\
    \   %d units; see BENCH --emit-json artifacts/cost for per-loop@.\
    \   per-phase cells)@."
    (Sp_obs.Cost.total grand);
  Json.Obj
    [
      ( "kernels",
        Json.List
          (List.map
             (fun (name, prof) ->
               Json.Obj
                 [
                   ("kernel", Json.Str name);
                   ("cost", Sp_obs.Cost.to_json prof);
                 ])
             profiles) );
      ( "totals",
        Json.Obj
          (List.map
             (fun (c, n) -> (Sp_obs.Cost.counter_name c, Json.Int n))
             (Sp_obs.Cost.counter_totals grand)) );
    ]

(* ------------------------------------------------------------------ *)
(* E14: tracing overhead smoke                                          *)
(* ------------------------------------------------------------------ *)

(** Guard the zero-cost-when-disabled contract: with tracing off a
    compile records no events, and its time stays within noise of the
    traced compile (generous bound — this is a smoke against gross
    regressions such as unconditional attribute allocation, not a
    microbenchmark). *)
let table_trace_overhead (_ : opts) =
  section "E14: tracing overhead smoke (disabled tracing must be free)";
  let p = Kernel.program Livermore.k7_eos in
  let compile () = ignore (C.program Machine.warp p) in
  let time n f =
    let t0 = Sys.time () in
    for _ = 1 to n do f () done;
    Sys.time () -. t0
  in
  let iters = 30 in
  ignore (time 3 compile) (* warm the allocator and caches *);
  Sp_obs.Trace.enable ();
  let t_on = time iters compile in
  let ev_on = List.length (Sp_obs.Trace.events ()) in
  Sp_obs.Trace.disable ();
  Sp_obs.Trace.enable ();
  (* enable clears the buffer *)
  Sp_obs.Trace.disable ();
  let t_off = time iters compile in
  let ev_off = List.length (Sp_obs.Trace.events ()) in
  (* same contract for the decision log and the render views: with both
     disabled (the default above) the compile must record nothing and
     build no views; enabled, both must produce their artifacts *)
  let xp_off = List.length (Sp_obs.Explain.events ()) in
  let r = C.program Machine.warp p in
  let views_off =
    List.length (List.filter (fun lr -> lr.C.view <> None) r.C.loops)
  in
  Sp_obs.Explain.enable ();
  Sp_obs.Render.enable ();
  let r = C.program Machine.warp p in
  let xp_on = List.length (Sp_obs.Explain.events ()) in
  let views_on =
    List.length (List.filter (fun lr -> lr.C.view <> None) r.C.loops)
  in
  Sp_obs.Explain.disable ();
  Sp_obs.Render.disable ();
  (* the service telemetry layer obeys the same contract: with
     [~telemetry:false] a request advances no sequence clock and the
     status snapshot carries no series; an untraced request on a
     telemetry-enabled service records no trace events; and the
     telemetry-off request path stays within noise of the on path *)
  let src =
    {|program smoke;
var a : array [0..63] of float; k : int;
begin for k := 0 to 63 do a[k] := a[k] + 1.5; end.|}
  in
  let rq =
    Service.Compile
      { machine = "warp"; inject = None; trace = None; source = src }
  in
  let svc_off = Service.create ~cache_capacity:0 ~telemetry:false () in
  let t_tele_off = time iters (fun () -> ignore (Service.handle svc_off rq)) in
  let seq_off = Service.telemetry_seq svc_off in
  let status_off_bare =
    match Json.of_string (Service.status_json svc_off) with
    | j ->
      Json.member "series" j = None
      && Json.member "telemetry" j = Some (Json.Bool false)
    | exception Json.Parse_error _ -> false
  in
  Service.close svc_off;
  let svc_on = Service.create ~cache_capacity:0 () in
  let t_tele_on = time iters (fun () -> ignore (Service.handle svc_on rq)) in
  let seq_on = Service.telemetry_seq svc_on in
  Service.close svc_on;
  let ev_service = List.length (Sp_obs.Trace.events ()) in
  (* the work-cost profiler obeys the same contract: disabled (the
     default), a compile records zero units and a tight loop over the
     counting entry point allocates nothing on the minor heap; enabled,
     the same compile records work. The allocation bound allows the few
     words [Gc.minor_words] itself boxes around the sample. *)
  Sp_obs.Cost.clear ();
  compile ();
  let cost_off = Sp_obs.Cost.total (Sp_obs.Cost.snapshot ()) in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Sp_obs.Cost.incr Sp_obs.Cost.Mrt_probe
  done;
  let cost_alloc = Gc.minor_words () -. w0 in
  let cost_zero_alloc = cost_alloc <= 64.0 in
  (* so does the compiler's one instrumentation point: with tracing and
     cost both off, a phase around a closed function allocates nothing *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Sp_obs.Phase.run ~loop:0 Sp_obs.Cost.P_ddg (fun () -> ())
  done;
  let phase_alloc = Gc.minor_words () -. w0 in
  Sp_obs.Cost.enable ();
  compile ();
  let cost_on = Sp_obs.Cost.total (Sp_obs.Cost.snapshot ()) in
  Sp_obs.Cost.disable ();
  let ok =
    ev_off = 0 && ev_on > 0
    && t_off <= (2.0 *. t_on) +. 0.05
    && xp_off = 0 && xp_on > 0 && views_off = 0 && views_on > 0
    && seq_off = 0 && status_off_bare && seq_on = iters && ev_service = 0
    && t_tele_off <= (2.0 *. t_tele_on) +. 0.05
    && cost_off = 0 && cost_on > 0 && cost_zero_alloc
    && phase_alloc <= 64.0
  in
  Fmt.pr
    "  %d compiles traced: %d events, %.3fs@.\
    \  %d compiles untraced: %d events, %.3fs@.\
    \  explain events on/off: %d/%d; render views on/off: %d/%d@.\
    \  %d service requests, telemetry off/on: %.3fs/%.3fs, seq %d/%d@.\
    \  cost units on/off: %d/%d; disabled counting allocated %.0f words@.\
    \  100000 phases with recording off allocated %.0f words@.\
    \  trace-overhead: %s@."
    iters ev_on t_on iters ev_off t_off xp_on xp_off views_on views_off
    iters t_tele_off t_tele_on seq_off seq_on cost_on cost_off cost_alloc
    phase_alloc
    (if ok then "ok" else "FAILED");
  if not ok then failed := true;
  Json.Obj
    [
      ("iters", Json.Int iters);
      ("events_enabled", Json.Int ev_on);
      ("events_disabled", Json.Int ev_off);
      ("explain_enabled", Json.Int xp_on);
      ("explain_disabled", Json.Int xp_off);
      ("views_enabled", Json.Int views_on);
      ("views_disabled", Json.Int views_off);
      ("telemetry_seq_disabled", Json.Int seq_off);
      ("telemetry_seq_enabled", Json.Int seq_on);
      ("service_untraced_events", Json.Int ev_service);
      ("cost_units_disabled", Json.Int cost_off);
      ("cost_units_enabled", Json.Int cost_on);
      ("cost_zero_alloc", Json.Bool cost_zero_alloc);
      ("ok", Json.Bool ok);
    ]

(* ------------------------------------------------------------------ *)
(* E16: compile throughput — the parallel per-loop driver               *)
(* ------------------------------------------------------------------ *)

(** Throughput of the compiler itself over a corpus of independent
    innermost loops (random [Gen] shapes as sibling top-level loops of
    one program), compiled at increasing [jobs]. Wall-clock times and
    speedups go to stdout only; the JSON artifact carries the
    deterministic facts — corpus shape, whether every job count
    produced byte-identical output, and the [jobs = 1] per-loop
    results — so the document stays byte-stable across runs and
    machines. Fails if any job count changes the output: parallel
    compilation must be invisible in the artifacts. *)
let table_compile_speed (_ : opts) =
  section "E16: compile throughput — parallel per-loop driver";
  let n_loops = 64 in
  let jobs_list = [ 1; 2; 4; 8 ] in
  let reps = 5 in
  let spec_of i =
    {
      Gen.seed = (7 * i) + 1;
      trip = [| 17; 40; 61; 5 |].(i mod 4);
      n_stmts = 6 + (i mod 6);
      use_if = i mod 3 = 0;
      use_accum = i mod 2 = 0;
      use_chan = false;
      carried_store = i mod 5 = 0;
      empty_body = false;
      maxlat = i mod 7 = 0;
    }
  in
  let specs = List.init n_loops spec_of in
  let fingerprint = C.fingerprint in
  (* compiling draws register/op ids from the program's supplies, so
     every job count gets a freshly built — hence identical — corpus *)
  let compile ~jobs =
    let p, _, _ = Gen.build_many specs in
    let config = { C.default with C.jobs = jobs } in
    let t0 = Monotonic_clock.now () in
    let r = C.program ~config Machine.warp p in
    let t1 = Monotonic_clock.now () in
    (r, Int64.to_float (Int64.sub t1 t0) /. 1e9)
  in
  ignore (compile ~jobs:1) (* warm the allocator *);
  let t =
    Table.create
      ~headers:[ "jobs"; "wall (s)"; "speedup"; "output" ]
      ~aligns:[ Table.R; R; R; L ]
  in
  let base = ref None in
  let base_time = ref 1.0 in
  let identical_all = ref true in
  List.iter
    (fun jobs ->
      (* sum compile-only wall time over the repetitions (corpus
         construction stays outside the clock); every rep's output is
         checked against the jobs=1 fingerprint *)
      let secs = ref 0.0 in
      let same = ref true in
      for _ = 1 to reps do
        let r, s = compile ~jobs in
        secs := !secs +. s;
        let fp = fingerprint r in
        match !base with
        | None -> base := Some (r, fp)
        | Some (_, fp1) ->
          if fp <> fp1 then begin
            identical_all := false;
            same := false
          end
      done;
      if jobs = 1 then base_time := !secs;
      Table.add_row t
        [
          string_of_int jobs;
          Printf.sprintf "%.3f" !secs;
          Printf.sprintf "%.2fx" (!base_time /. !secs);
          (if !same then "identical" else "DIFFERS");
        ])
    jobs_list;
  let r1 = match !base with Some (r, _) -> r | None -> assert false in
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (%d independent loops as one program; speedup is wall-clock vs@.\
    \   jobs=1 on this host — %d core(s) available; the artifact excludes@.\
    \   times and records the jobs=1 schedules, which every other job@.\
    \   count must reproduce byte for byte)@."
    n_loops
    (Domain.recommended_domain_count ());
  if not !identical_all then
    fail "compile-speed: FAILED — output varies with the job count";
  Json.Obj
    [
      ("corpus", Json.Int n_loops);
      ("jobs", Json.List (List.map (fun j -> Json.Int j) jobs_list));
      ("identical_across_j", Json.Bool !identical_all);
      ("code_size", Json.Int r1.C.code_size);
      ( "loops",
        Json.List
          (List.map
             (fun (lr : C.loop_report) ->
               Json.Obj
                 [
                   ("loop", Json.Int lr.C.l_id);
                   ( "ii",
                     match lr.C.ii with
                     | Some s -> Json.Int s
                     | None -> Json.Null );
                   ("mii", Json.Int lr.C.mii);
                   ("status", Json.Str (C.status_to_string lr.C.status));
                 ])
             r1.C.loops) );
    ]

(* ------------------------------------------------------------------ *)
(* E18/E19: the suite through the compile service                       *)
(* ------------------------------------------------------------------ *)

(* The suite's W2 programs, as (name, source). *)
let w2_programs =
  List.filter_map
    (fun (e : Suite.entry) ->
      match e.Suite.kernel.Kernel.source with
      | Kernel.W2 src -> Some (e.Suite.kernel.Kernel.name, src)
      | Kernel.Ir _ -> None)
    Suite.all

(* Each program as its own request to [service]: the responses, each
   request's wall latency in us, and the pass's wall time in s. *)
let run_pass service =
  let ns t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
  let lat = Array.make (max 1 (List.length w2_programs)) 0.0 in
  let t0 = Monotonic_clock.now () in
  let resps =
    List.mapi
      (fun i (_, source) ->
        let r0 = Monotonic_clock.now () in
        let resp =
          Service.handle service
            (Service.Compile
               { machine = "warp"; inject = None; trace = None; source })
        in
        lat.(i) <- ns r0 /. 1e3;
        resp)
      w2_programs
  in
  (resps, lat, ns t0 /. 1e9)

let pctl lat p =
  let xs = Array.copy lat in
  Array.sort compare xs;
  let k = int_of_float (p *. float_of_int (Array.length xs - 1)) in
  xs.(max 0 (min (Array.length xs - 1) k))

(* Each failed request of a pass fails the table. *)
let report_errors table pass resps =
  List.iter2
    (fun (name, _) -> function
      | Service.Ok _ -> ()
      | Service.Err msg ->
        fail "%s: FAILED — %s: %s pass: %s" table name pass msg)
    w2_programs resps

(* Whether a pass answered every request with the reference pass's
   body; a failed request is never identical. *)
let same_bodies =
  List.equal (fun a b ->
      match (a, b) with
      | Service.Ok a, Service.Ok b -> String.equal a b
      | _ -> false)

(** E18: the compile service and its content-addressed schedule cache.
    Streams the 72-program suite through three in-process service
    passes — uncached, cold shared cache, warm (same cache again) —
    and checks every cached response byte-identical to the uncached
    one. Requests/sec and latency percentiles go to stdout only; the
    JSON artifact carries the deterministic facts: suite size, the
    identity verdicts and the cache counters of each pass (the suite
    and the probe order are fixed, so the counters are too). Fails on
    any divergence, or if the warm pass never hits — schedule reuse
    must be invisible in the output and visible in the counters. *)
let table_serve (_ : opts) =
  section "E18: compile service — content-addressed schedule cache";
  let module Cache = Sp_serve.Cache in
  let n = List.length w2_programs in
  let capacity = 256 in
  let uncached = Service.create ~cache_capacity:0 () in
  ignore (run_pass uncached) (* warm the allocator *);
  let ref_resps, ref_lat, ref_total = run_pass uncached in
  Service.close uncached;
  report_errors "serve" "uncached" ref_resps;
  let cached = Service.create ~cache_capacity:capacity () in
  let cache =
    match Service.cache cached with Some c -> c | None -> assert false
  in
  let cold_resps, cold_lat, cold_total = run_pass cached in
  let cold = Cache.stats cache in
  let warm_resps, warm_lat, warm_total = run_pass cached in
  let post = Cache.stats cache in
  Service.close cached;
  let warm =
    {
      Cache.hits = post.Cache.hits - cold.Cache.hits;
      misses = post.Cache.misses - cold.Cache.misses;
      rejects = post.Cache.rejects - cold.Cache.rejects;
      inserts = post.Cache.inserts - cold.Cache.inserts;
      evictions = post.Cache.evictions - cold.Cache.evictions;
      entries = post.Cache.entries;
    }
  in
  report_errors "serve" "cold" cold_resps;
  report_errors "serve" "warm" warm_resps;
  let identical_cold = same_bodies cold_resps ref_resps in
  let identical_warm = same_bodies warm_resps ref_resps in
  let t =
    Table.create
      ~headers:
        [ "pass"; "req/s"; "p50 (us)"; "p99 (us)"; "hits"; "misses"; "output" ]
      ~aligns:[ Table.L; R; R; R; R; R; L ]
  in
  let row name lat total (s : Cache.stats option) identical =
    Table.add_row t
      [
        name;
        Printf.sprintf "%.0f" (float_of_int n /. total);
        Printf.sprintf "%.0f" (pctl lat 0.50);
        Printf.sprintf "%.0f" (pctl lat 0.99);
        int_cell (Option.map (fun s -> s.Cache.hits) s);
        int_cell (Option.map (fun s -> s.Cache.misses) s);
        (match identical with
        | None -> "reference"
        | Some true -> "identical"
        | Some false -> "DIFFERS");
      ]
  in
  row "uncached" ref_lat ref_total None None;
  row "cold" cold_lat cold_total (Some cold) (Some identical_cold);
  row "warm" warm_lat warm_total (Some warm) (Some identical_warm);
  let json_of_stats (s : Cache.stats) =
    Json.Obj
      [
        ("hits", Json.Int s.Cache.hits);
        ("misses", Json.Int s.Cache.misses);
        ("rejects", Json.Int s.Cache.rejects);
        ("inserts", Json.Int s.Cache.inserts);
        ("evictions", Json.Int s.Cache.evictions);
        ("entries", Json.Int s.Cache.entries);
      ]
  in
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (%d W2 programs of the suite per pass; cold and warm share one@.\
    \   %d-entry cache; requests/sec and latency are this host's wall@.\
    \   clock and stay out of the artifact, the identity verdicts and@.\
    \   cache counters go in)@."
    n capacity;
  if not (identical_cold && identical_warm) then
    fail "serve: FAILED — cached output diverges from uncached";
  if warm.Cache.hits = 0 then
    fail "serve: FAILED — warm pass never hit the cache";
  Json.Obj
    [
      ("programs", Json.Int n);
      ("capacity", Json.Int capacity);
      ("identical_cold", Json.Bool identical_cold);
      ("identical_warm", Json.Bool identical_warm);
      ("cold", json_of_stats cold);
      ("warm", json_of_stats warm);
    ]

(* ------------------------------------------------------------------ *)

(** E19: service-level objectives — the telemetry surface under a
    deterministic replay. Streams the W2 suite sequentially through a
    telemetry-enabled service (each request its own batch, so cache
    movement attributes exactly per request), then reads the health
    snapshot back. The artifact carries the schema tags, the identity
    verdict against an uncached untelemetered reference, the error
    budget, the deterministic series windows (the latency series is
    reduced to its sample/window counts — its values are wall-clock)
    and the names-only span skeleton of one traced probe, so the
    document is byte-stable across runs and machines; wall-clock
    percentiles go to stdout only. Fails on output divergence, a blown
    error budget, or a failed trace or dashboard round-trip. *)
let table_slo (_ : opts) =
  section "E19: service-level objectives — telemetry replay of the suite";
  let n = List.length w2_programs in
  let reference =
    let svc = Service.create ~cache_capacity:0 ~telemetry:false () in
    let resps, _, _ = run_pass svc in
    Service.close svc;
    report_errors "slo" "reference" resps;
    resps
  in
  let svc = Service.create ~cache_capacity:256 () in
  let resps, lat, _ = run_pass svc in
  let errs =
    List.length
      (List.filter
         (function Service.Err _ -> true | Service.Ok _ -> false)
         resps)
  in
  let identical = same_bodies resps reference in
  (* the snapshot is taken before the traced probe below, so its
     counters and series cover exactly the n-program replay *)
  let status =
    match Json.of_string (Service.status_json svc) with
    | j -> j
    | exception Json.Parse_error m ->
      fail "slo: FAILED — status snapshot unparsable: %s" m;
      Json.Null
  in
  let status_tag =
    match Json.member "schema" status with Some (Json.Str s) -> s | _ -> "?"
  in
  if status_tag <> Service.status_schema then
    fail "slo: FAILED — status schema %S (want %S)" status_tag
      Service.status_schema;
  let budget_ok =
    match Json.path [ "error_budget"; "ok" ] status with
    | Some (Json.Bool b) -> b
    | _ -> false
  in
  let req_total =
    match Json.path [ "requests"; "total" ] status with
    | Some (Json.Int i) -> i
    | _ -> -1
  in
  (* counter-valued series go into the artifact verbatim — their values
     live on the logical clock; the latency series is wall-clock
     valued, so only its sample and window counts survive *)
  let det_series =
    List.map
      (fun key ->
        ( key,
          Option.value ~default:Json.Null (Json.path [ "series"; key ] status)
        ))
      [
        "occupancy"; "failures"; "faults"; "cache_hits"; "cache_misses";
        "cache_rejects"; "cache_evictions";
      ]
  in
  let lat_summary =
    match Json.path [ "series"; "latency_us" ] status with
    | Some lj ->
      Json.Obj
        [
          ("count", Option.value ~default:Json.Null (Json.member "count" lj));
          ( "windows",
            match Json.member "windows" lj with
            | Some (Json.List l) -> Json.Int (List.length l)
            | _ -> Json.Null );
        ]
    | None -> Json.Null
  in
  (* one traced probe: the envelope must identify itself, carry the
     next sequence number and a non-empty span tree; the skeleton
     (names and nesting only) is byte-stable and lands in the artifact *)
  let first_name, source = List.hd w2_programs in
  let skeleton, trace_ok =
    match
      Service.handle svc
        (Service.Compile
           { machine = "warp"; inject = None; trace = Some "slo"; source })
    with
    | Service.Err msg ->
      fail "slo: FAILED — %s: traced probe: %s" first_name msg;
      (Json.Null, false)
    | Service.Ok body -> (
      match Json.of_string body with
      | exception Json.Parse_error m ->
        fail "slo: FAILED — trace envelope unparsable: %s" m;
        (Json.Null, false)
      | env -> (
        let tag_ok =
          (* sequence numbers are 0-based: the probe after an n-request
             replay is request n *)
          Json.member "schema" env = Some (Json.Str Service.trace_schema)
          && Json.member "seq" env = Some (Json.Int n)
        in
        let rec skel = function
          | Json.Obj kvs -> (
            let name =
              match List.assoc_opt "name" kvs with
              | Some (Json.Str s) -> s
              | _ -> "?"
            in
            match List.assoc_opt "children" kvs with
            | Some (Json.List kids) ->
              Json.Obj [ (name, Json.List (List.map skel kids)) ]
            | _ -> Json.Str name)
          | _ -> Json.Null
        in
        match Json.member "spans" env with
        | Some (Json.List spans) when spans <> [] ->
          (Json.List (List.map skel spans), tag_ok)
        | _ -> (Json.Null, false)))
  in
  let dash = Service.dashboard_html svc in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let dash_ok = contains dash "<svg" && contains dash "</html>" in
  Service.close svc;
  let verdict b = if b then "ok" else "FAILED" in
  let t = Table.create ~headers:[ "gate"; "verdict" ] ~aligns:[ Table.L; L ] in
  Table.add_row t
    [ "output identical to uncached reference"; verdict identical ];
  Table.add_row t
    [
      Fmt.str "error budget (%d error(s) / %d requests)" errs req_total;
      verdict budget_ok;
    ];
  Table.add_row t [ "traced probe envelope + span tree"; verdict trace_ok ];
  Table.add_row t [ "dashboard render"; verdict dash_ok ];
  Fmt.pr "%a" Table.pp t;
  Fmt.pr
    "@.  (%d W2 programs replayed sequentially; wall latency p50 %.0f us,@.\
    \   p99 %.0f us on this host — latency values stay out of the@.\
    \   artifact, which carries only the deterministic series windows,@.\
    \   the verdicts and the traced probe's span skeleton)@."
    n (pctl lat 0.50) (pctl lat 0.99);
  if identical && budget_ok && trace_ok && dash_ok then
    Fmt.pr "@.slo: OK — %d request(s), every objective met@." req_total
  else fail "slo: FAILED — a service-level objective is not met";
  Json.Obj
    [
      ("status_schema", Json.Str status_tag);
      ("programs", Json.Int n);
      ("requests", Json.Int req_total);
      ("errors", Json.Int errs);
      ("identical", Json.Bool identical);
      ("error_budget_ok", Json.Bool budget_ok);
      ("trace_ok", Json.Bool trace_ok);
      ("dashboard_ok", Json.Bool dash_ok);
      ("series", Json.Obj (("latency_us", lat_summary) :: det_series));
      ("span_skeleton", skeleton);
    ]

(* ------------------------------------------------------------------ *)
(* E10: Bechamel microbenchmarks                                        *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  section "E10: scheduler cost microbenchmarks (Bechamel)";
  let open Bechamel in
  let compile_kernel k config () =
    let p = Kernel.program k in
    ignore (C.program ~config Machine.warp p)
  in
  let tests =
    [
      Test.make ~name:"table4-1:compile-conv3x3"
        (Staged.stage (compile_kernel (Apps.conv3x3 ~n:16) C.default));
      Test.make ~name:"table4-2:compile-lfk7"
        (Staged.stage (compile_kernel Livermore.k7_eos C.default));
      Test.make ~name:"fig4-2:compile-baseline-lfk7"
        (Staged.stage (compile_kernel Livermore.k7_eos C.local_only));
      Test.make ~name:"example:compile-toy-vadd"
        (Staged.stage (fun () ->
             let p =
               Sp_lang.Lower.compile_source
                 {|program v;
var a : array [0..99] of float; k : int;
begin for k := 0 to 99 do a[k] := a[k] + 1.5; end.|}
             in
             ignore (C.program Machine.toy p)));
      Test.make ~name:"frontend:parse+lower-lfk7"
        (Staged.stage (fun () -> ignore (Kernel.program Livermore.k7_eos)));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      let a = analyze results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Fmt.pr "  %-32s %12.0f ns/run@." name est
          | _ -> Fmt.pr "  %-32s (no estimate)@." name)
        a)
    tests

(* ------------------------------------------------------------------ *)
(* E17: the differential fuzzing campaign                              *)
(* ------------------------------------------------------------------ *)

module Campaign = Sp_camp.Campaign

let json_of_campaign (s : Campaign.summary) : Json.t =
  Json.Obj
    [
      ("total", Json.Int s.Campaign.total);
      ("pass", Json.Int s.Campaign.pass);
      ( "verdicts",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) s.Campaign.verdicts)
      );
      ( "statuses",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) s.Campaign.statuses)
      );
      ("gap", json_of_histogram s.Campaign.gap);
      ("eff", json_of_histogram s.Campaign.eff);
      ("code_size", json_of_histogram s.Campaign.csize);
      (* deterministic work-unit distributions: per program, per compile
         phase, and the top-N most expensive programs — counts, not
         clocks, so identical at any jobs width *)
      ("cost", json_of_histogram s.Campaign.cost);
      ( "cost_by_phase",
        Json.Obj
          (List.map
             (fun (name, h) -> (name, json_of_histogram h))
             s.Campaign.cost_by_phase) );
      ( "expensive",
        Json.List
          (List.map
             (fun (seed, units) ->
               Json.Obj
                 [ ("seed", Json.Int seed); ("units", Json.Int units) ])
             s.Campaign.expensive) );
      (* per-seed-window verdict rates on the seed logical clock —
         deterministic (the pass indicator per seed is), so --compare
         can gate pass-rate per window; see the campaign section there *)
      ("pass_rate", Sp_obs.Series.to_json s.Campaign.pass_rate);
      ( "failures",
        Json.List
          (List.map
             (fun (f : Campaign.failure) ->
               Json.Obj
                 [
                   ("seed", Json.Int f.Campaign.f_seed);
                   ("kind", Json.Str f.Campaign.f_kind);
                   ("detail", Json.Str f.Campaign.f_detail);
                   ("nodes_before", Json.Int f.Campaign.f_nodes_before);
                   ("nodes_after", Json.Int f.Campaign.f_nodes_after);
                   ("evals", Json.Int f.Campaign.f_evals);
                   ( "file",
                     match f.Campaign.f_file with
                     | Some p -> Json.Str p
                     | None -> Json.Null );
                 ])
             s.Campaign.failures) );
      ("unminimized", Json.Int s.Campaign.unminimized);
    ]

let print_campaign_summary (s : Campaign.summary) =
  let t =
    Table.create ~headers:[ "verdict"; "count" ] ~aligns:[ Table.L; R ]
  in
  List.iter
    (fun (k, n) -> Table.add_row t [ k; string_of_int n ])
    s.Campaign.verdicts;
  Fmt.pr "%a@." Table.pp t;
  if s.Campaign.statuses <> [] then begin
    let st =
      Table.create ~headers:[ "loop status"; "count" ] ~aligns:[ Table.L; R ]
    in
    List.iter
      (fun (k, n) -> Table.add_row st [ k; string_of_int n ])
      s.Campaign.statuses;
    Fmt.pr "%a@." Table.pp st
  end;
  Fmt.pr "  ii - mii gap : %d pipelined loops, mean %.3f@."
    (Histogram.count s.Campaign.gap)
    (Histogram.mean s.Campaign.gap);
  Fmt.pr "  efficiency   : mean %.3f@." (Histogram.mean s.Campaign.eff);
  Fmt.pr "  code size    : mean %.1f instruction words@."
    (Histogram.mean s.Campaign.csize);
  Fmt.pr "  compile cost : mean %.0f work units@."
    (Histogram.mean s.Campaign.cost);
  if s.Campaign.expensive <> [] then begin
    let et =
      Table.create ~headers:[ "costly seed"; "work units" ]
        ~aligns:[ Table.R; R ]
    in
    List.iter
      (fun (seed, units) ->
        Table.add_row et [ string_of_int seed; string_of_int units ])
      s.Campaign.expensive;
    Fmt.pr "%a@." Table.pp et
  end;
  List.iter
    (fun (f : Campaign.failure) ->
      Fmt.pr "  FAIL seed %d: %s (%s) minimized %d -> %d nodes in %d evals%s@."
        f.Campaign.f_seed f.Campaign.f_kind f.Campaign.f_detail
        f.Campaign.f_nodes_before f.Campaign.f_nodes_after f.Campaign.f_evals
        (match f.Campaign.f_file with
        | Some p -> " banked " ^ p
        | None -> ""))
    s.Campaign.failures;
  if s.Campaign.unminimized > 0 then
    Fmt.pr "  (+%d failure(s) beyond the bank cap, not minimized)@."
      s.Campaign.unminimized

(** E17: stream a seed range of generated programs through the
    differential oracle. A global [--inject SITE\@K] switches to
    inject mode: the fault is re-armed around every program (and the
    campaign runs single-domain), so the armed site must be detected,
    minimized and banked — the CI must-fire case. *)
let table_campaign { jobs; seeds; bank } =
  let lo, hi = Option.value seeds ~default:(1, 10_000) in
  let mode =
    match Sp_util.Fault.armed_spec () with
    | Some (site, k) ->
      (* the campaign re-arms per program; the global arming from the
         driver would otherwise double-count hits *)
      Sp_util.Fault.disarm ();
      Campaign.Inject (site, k)
    | None -> Campaign.Clean
  in
  section
    (Fmt.str "E17: differential fuzzing campaign (seeds %d..%d%s)" lo hi
       (match mode with
       | Campaign.Clean -> ""
       | Campaign.Inject (site, k) -> Fmt.str ", inject %s@%d" site k));
  let cfg =
    { Campaign.default with Campaign.lo; hi; jobs; mode; bank_dir = bank }
  in
  let total = hi - lo + 1 in
  let t0 = Monotonic_clock.now () in
  let last = ref 0 in
  let s =
    Campaign.run
      ~on_progress:(fun n ->
        if n - !last >= 2000 || n = total then begin
          last := n;
          Fmt.pr "  %d/%d programs@." n total
        end)
      cfg
  in
  let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  Fmt.pr "@.";
  print_campaign_summary s;
  (* throughput goes to stdout only — artifacts carry no wall-clock *)
  Fmt.pr "  throughput   : %.0f programs/s (%.1f s wall, %d job(s))@."
    (float_of_int total /. dt)
    dt
    (match mode with Campaign.Clean -> max 1 jobs | Campaign.Inject _ -> 1);
  let failures = Campaign.failure_count s in
  if failures > 0 then
    fail "campaign: %d failing seed(s) out of %d" failures s.Campaign.total
  else
    Fmt.pr "@.campaign: OK — %d programs, every verdict pass@."
      s.Campaign.total;
  json_of_campaign s

(** E17b: graceful-degradation sweep — every registered compiler fault
    site armed across the population; loops must fall back cleanly
    (degradation is graceful here), anything worse fails. One site
    inverts: [Sp_opt.Exact.nogood_site] corrupts the learned-nogood
    bank silently instead of degrading, so its rows are expected to
    read [opt-diverge] — the differential oracle {e catching} the
    corruption. Zero detections across that site's rows means the
    detector is broken, and fails the sweep. *)
let table_campaign_sweep { jobs; seeds; bank } =
  let lo, hi = Option.value seeds ~default:(1, 200) in
  Sp_util.Fault.disarm () (* the sweep arms every site itself *);
  section (Fmt.str "E17b: fault-site sweep (seeds %d..%d)" lo hi);
  let cfg =
    { Campaign.default with Campaign.lo; hi; jobs; bank_dir = bank }
  in
  let results = Campaign.sweep cfg in
  let doctor = Sp_opt.Exact.nogood_site in
  let t =
    Table.create
      ~headers:
        [ "armed site"; "programs"; "pass"; "degraded loops"; "detected";
          "failures" ]
      ~aligns:[ Table.L; R; R; R; R; R ]
  in
  let bad = ref 0 and detected = ref 0 in
  List.iter
    (fun ((site, k), (s : Campaign.summary)) ->
      let degraded =
        List.fold_left
          (fun acc (tag, n) -> if tag = "degraded" then acc + n else acc)
          0 s.Campaign.statuses
      in
      let diverged =
        Option.value ~default:0
          (List.assoc_opt "opt-diverge" s.Campaign.verdicts)
      in
      let failures = Campaign.failure_count s in
      (* on the doctoring site, opt-diverge verdicts are the expected
         detection, not a failure of the compiler under fault *)
      let failures =
        if site = doctor then failures - diverged else failures
      in
      bad := !bad + failures;
      if site = doctor then detected := !detected + diverged;
      Table.add_row t
        [
          Fmt.str "%s@%d" site k;
          string_of_int s.Campaign.total;
          string_of_int s.Campaign.pass;
          string_of_int degraded;
          (if site = doctor then string_of_int diverged else "-");
          string_of_int failures;
        ])
    results;
  Fmt.pr "%a@." Table.pp t;
  let swept_doctor = List.exists (fun ((site, _), _) -> site = doctor) results in
  if !bad > 0 then fail "sweep: %d non-graceful failure(s)" !bad
  else if swept_doctor && !detected = 0 then
    fail
      "sweep: corrupted nogood bank (%s) was never detected by the \
       opt-diverge oracle"
      doctor
  else
    Fmt.pr
      "@.sweep: OK — every armed site degraded gracefully%s@."
      (if swept_doctor then
         Fmt.str " (and %s was caught %d time(s))" doctor !detected
       else "");
  Json.Obj
    (List.map
       (fun ((site, k), s) -> (Fmt.str "%s@%d" site k, json_of_campaign s))
       results)


(* ------------------------------------------------------------------ *)
(* E15: the regression sentinel — bench --compare                       *)
(* ------------------------------------------------------------------ *)

let jint k j =
  match Json.member k j with Some (Json.Int i) -> Some i | _ -> None

let jnum k j =
  match Json.member k j with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let jstr k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let jlist k j =
  match Json.member k j with Some (Json.List l) -> l | _ -> []

(** What a gate reads besides the two artifacts it diffs. *)
type cmp = {
  threshold : float;  (** how far a gated quantity may worsen *)
  attribute : bool;  (** name the cause of each per-loop regression *)
  new_path : string;
}

(* What the gates of one --compare found, newest first: regressions,
   and the causes --attribute names for the per-loop ones. *)
let regressions = ref []
let attributions = ref []
let flag fmt = Fmt.kstr (fun m -> regressions := m :: !regressions) fmt

(* Verdicts an artifact states of itself: each must read true. *)
let must_hold j checks =
  List.iter
    (fun (key, what) ->
      if Json.member key j <> Some (Json.Bool true) then flag "%s" what)
    checks

(* A number may move at most the threshold percent in its bad
   direction: the delta cell, and whether it regressed. *)
let gate_number c ~label ~higher_is_better key o n =
  match (jnum key o, jnum key n) with
  | Some o, Some n ->
    let d = 100.0 *. (n -. o) /. (if o = 0.0 then 1.0 else o) in
    let worse = (if higher_is_better then -.d else d) > c.threshold in
    if worse then
      flag "%s: %s %s %.6g -> %.6g (%+.1f%%, threshold %.1f%%)" label key
        (if higher_is_better then "fell" else "rose")
        o n d c.threshold;
    (Printf.sprintf "%+.1f%%" d, worse)
  | _ -> ("-", false)

(* Loops matched by id: the interval under [key] may not rise, and a
   loop that had one may not lose it. Per old loop with an interval,
   its cell and whether it regressed; [on_regress] sees the loops whose
   interval rose or went. *)
let gate_loops c ~label ~key ?(on_regress = fun _ _ _ -> ()) old_loops
    new_loops =
  List.filter_map
    (fun lo ->
      let id = Option.value ~default:(-1) (jint "loop" lo) in
      let ln = List.find_opt (fun l -> jint "loop" l = Some id) new_loops in
      match (jint key lo, ln) with
      | None, _ -> None
      | Some _, None ->
        flag "%s: loop %d missing from %s" label id c.new_path;
        Some (Printf.sprintf "l%d:?" id, true)
      | Some o, Some ln -> (
        match jint key ln with
        | None ->
          flag "%s: loop %d no longer pipelines (was ii=%d, now %s)" label id
            o
            (Option.value ~default:"?" (jstr "status" ln));
          on_regress id lo ln;
          Some (Printf.sprintf "l%d:%d->none" id o, true)
        | Some n when n > o ->
          flag "%s: loop %d initiation interval rose %d -> %d" label id o n;
          on_regress id lo ln;
          Some (Printf.sprintf "l%d:%d->%d" id o n, true)
        | Some n when n < o -> Some (Printf.sprintf "l%d:%d->%d" id o n, false)
        | Some _ -> Some (Printf.sprintf "l%d:+0" id, false)))
    old_loops

(* --attribute: join the two profiles' attribution fields of a
   regressed loop (interval bounds and binding constraint, per-interval
   placement-failure counts, work-cost counters) into a one-line cause.
   Old profiles that predate the fields get an explicit note, never an
   error. *)
let attribute_loop c name id lo ln =
  if c.attribute then begin
    let pfails j =
      match Json.member "probe_fails" j with
      | Some (Json.List l) ->
        Some
          (List.filter_map
             (fun e ->
               match (jint "ii" e, jint "fails" e) with
               | Some i, Some f ->
                 Some (i, (f, Option.value ~default:"?" (jstr "reason" e)))
               | _ -> None)
             l)
      | _ -> None
    in
    let costs j =
      match Json.member "cost" j with
      | Some (Json.Obj kvs) ->
        Some
          (List.filter_map
             (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None)
             kvs)
      | _ -> None
    in
    let parts = ref [] in
    let part fmt = Fmt.kstr (fun m -> parts := m :: !parts) fmt in
    let bound key binding_name =
      match (jint key lo, jint key ln) with
      | Some o, Some n when n <> o ->
        part "%s %s %d -> %d%s" key
          (if n > o then "rose" else "fell")
          o n
          (if jstr "binding" ln = Some binding_name then
             match jstr "binding_detail" ln with
             | Some d when d <> "" -> " (binding, on " ^ d ^ ")"
             | _ -> " (binding)"
           else "")
      | _ -> ()
    in
    bound "res_mii" "resource";
    bound "rec_mii" "recurrence";
    (match (jstr "binding" lo, jstr "binding" ln) with
    | Some o, Some n when o <> n -> part "binding constraint %s -> %s" o n
    | _ -> ());
    (match (pfails lo, pfails ln, jint "achieved_ii" lo) with
    | Some po, Some pn, Some old_ii ->
      let at ii l =
        match List.assoc_opt ii l with Some c -> c | None -> (0, "")
      in
      let fo, _ = at old_ii po in
      let fn, reason = at old_ii pn in
      if fn > fo then
        part "%d new placement failure(s) at II=%d (%s)" (fn - fo) old_ii
          reason
    | _ -> ());
    (match (costs lo, costs ln) with
    | Some co, Some cn ->
      (* the biggest relative mover among the work counters *)
      let worst =
        List.fold_left
          (fun acc (k, o) ->
            match List.assoc_opt k cn with
            | Some n when o > 0 ->
              let d = 100.0 *. float_of_int (n - o) /. float_of_int o in
              if abs_float d > abs_float (snd acc) then (k, d) else acc
            | _ -> acc)
          ("", 0.0) co
      in
      if fst worst <> "" && abs_float (snd worst) >= 10.0 then
        part "%s %+.0f%%" (fst worst) (snd worst)
    | _ -> ());
    let cause =
      if !parts <> [] then String.concat "; " (List.rev !parts)
      else if costs lo = None || costs ln = None then
        "artifact predates attribution fields (regenerate with a current \
         bench --table pipeline)"
      else "no bound, probe or cost change recorded"
    in
    attributions := Fmt.str "%s loop %d: %s" name id cause :: !attributions
  end

(** E13's per-kernel profiles (e.g. the committed BENCH_pipeline.json
    against a fresh regeneration): per kernel, cycles, MFLOPS and code
    size move at most the threshold in the bad direction, and
    {!gate_loops} holds on the achieved interval. Utilization deltas
    are reported but not gated (a faster schedule can lower a busy
    fraction legitimately). *)
let gate_pipeline c old_a new_a =
  let t =
    Table.create
      ~headers:[ "kernel"; "cycles"; "MFLOPS"; "code"; "ii"; "util"; "verdict" ]
      ~aligns:[ Table.L; R; R; R; R; R; L ]
  in
  List.iter
    (fun ko ->
      let name = Option.value ~default:"?" (jstr "kernel" ko) in
      match
        List.find_opt
          (fun j -> jstr "kernel" j = Some name)
          (jlist "kernels" new_a)
      with
      | None ->
        flag "%s: kernel missing from %s" name c.new_path;
        Table.add_row t [ name; "-"; "-"; "-"; "-"; "-"; "MISSING" ]
      | Some kn ->
        let numbers =
          List.map
            (fun (key, higher_is_better) ->
              (key, gate_number c ~label:name ~higher_is_better key ko kn))
            [ ("cycles", false); ("mflops", true); ("code_size", false) ]
        in
        let loops =
          gate_loops c ~label:name ~key:"achieved_ii"
            ~on_regress:(attribute_loop c name) (jlist "loops" ko)
            (jlist "loops" kn)
        in
        (* utilization: largest absolute move in percentage points,
           report-only *)
        let util_cell =
          let u j =
            match Json.member "utilization" j with
            | Some (Json.Obj kvs as u) ->
              List.filter_map
                (fun (k, _) -> Option.map (fun f -> (k, f)) (jnum k u))
                kvs
            | _ -> []
          in
          let un = u kn in
          let worst =
            List.fold_left
              (fun acc (k, o) ->
                match List.assoc_opt k un with
                | Some n when abs_float (n -. o) > abs_float (snd acc) ->
                  (k, n -. o)
                | _ -> acc)
              ("", 0.0) (u ko)
          in
          if fst worst = "" then "-"
          else Printf.sprintf "%s%+.1fpp" (fst worst) (100.0 *. snd worst)
        in
        let bad =
          List.filter_map
            (fun (key, (_, worse)) -> if worse then Some key else None)
            numbers
          @ if List.exists snd loops then [ "loop" ] else []
        in
        Table.add_row t
          ((name :: List.map (fun (_, (cell, _)) -> cell) numbers)
          @ [
              (if loops = [] then "-"
               else String.concat "," (List.map fst loops));
              util_cell;
              (if bad = [] then "ok"
               else "REGRESSED: " ^ String.concat "," (List.sort compare bad));
            ]))
    (Option.fold ~none:[] ~some:(jlist "kernels") old_a);
  Fmt.pr "%a" Table.pp t

(** E16: output identity across job counts holds in the new artifact;
    against an old one, the corpus code size and the per-loop intervals
    may not regress. *)
let gate_compile_speed c old_a new_a =
  must_hold new_a
    [
      ( "identical_across_j",
        "compile-speed: parallel output no longer identical across job \
         counts" );
    ];
  Option.iter
    (fun old_a ->
      ignore
        (gate_number c ~label:"compile-speed" ~higher_is_better:false
           "code_size" old_a new_a);
      ignore
        (gate_loops c ~label:"compile-speed" ~key:"ii" (jlist "loops" old_a)
           (jlist "loops" new_a)))
    old_a

(** E18: cached output identical to uncached and a warm pass that hits;
    the warm hit rate may not fall more than the threshold (in
    percentage points) against the old artifact. Latency never appears
    in the artifact, so there is nothing wall-clock to misjudge. *)
let gate_serve c old_a new_a =
  must_hold new_a
    [
      ("identical_cold", "serve: cold cached output diverges from uncached");
      ("identical_warm", "serve: warm cached output diverges from uncached");
    ];
  let hit_rate j =
    match Json.(path [ "warm"; "hits" ] j, path [ "warm"; "misses" ] j) with
    | Some (Json.Int h), Some (Json.Int m) when h + m > 0 ->
      Some (100.0 *. float_of_int h /. float_of_int (h + m))
    | _ -> None
  in
  (match hit_rate new_a with
  | Some r when r <= 0.0 ->
    flag "serve: warm pass never hits the schedule cache"
  | Some _ -> ()
  | None -> flag "serve: artifact carries no warm cache counters");
  match (Option.bind old_a hit_rate, hit_rate new_a) with
  | Some o, Some n when o -. n > c.threshold ->
    flag "serve: warm hit rate fell %.1f%% -> %.1f%% (threshold %.1fpp)" o n
      c.threshold
  | _ -> ()

(** E19: the identity, error-budget, trace and dashboard verdicts hold,
    and request errors may not rise against the old artifact. *)
let gate_slo _ old_a new_a =
  must_hold new_a
    [
      ( "identical",
        "slo: replayed service output diverges from the uncached reference" );
      ( "error_budget_ok",
        "slo: error budget violated (>1 failed request per 100)" );
      ("trace_ok", "slo: traced probe round-trip failed");
      ("dashboard_ok", "slo: dashboard render failed");
    ];
  match (Option.bind old_a (jint "errors"), jint "errors" new_a) with
  | Some o, Some n when n > o -> flag "slo: request errors rose %d -> %d" o n
  | _ -> ()

(** E17: the per-seed-window pass rate may not fall by more than the
    threshold in percentage points and no window may disappear — a
    verdict regression localizes to a seed range instead of one
    corpus-wide scalar. *)
let gate_campaign c old_a new_a =
  let wins j =
    match Json.path [ "pass_rate"; "windows" ] j with
    | Some (Json.List l) -> l
    | _ -> []
  in
  let rate w =
    match (jint "count" w, jnum "sum" w) with
    | Some c, Some s when c > 0 -> Some (100.0 *. s /. float_of_int c)
    | _ -> None
  in
  List.iter
    (fun wo ->
      let idx = Option.value ~default:(-1) (jint "window" wo) in
      match List.find_opt (fun w -> jint "window" w = Some idx) (wins new_a)
      with
      | None -> flag "campaign: seed window %d missing from %s" idx c.new_path
      | Some wn -> (
        match (rate wo, rate wn) with
        | Some o, Some n when o -. n > c.threshold ->
          flag
            "campaign: window %d pass rate fell %.1f%% -> %.1f%% (threshold \
             %.1fpp)"
            idx o n c.threshold
        | _ -> ()))
    (Option.fold ~none:[] ~some:wins old_a)

(* ------------------------------------------------------------------ *)
(* The registry: every table, in the order the bare run emits them      *)
(* ------------------------------------------------------------------ *)

type kind =
  | Table  (** [--table NAME], and in the bare run *)
  | Figure  (** [--figure NAME], and in the bare run *)
  | Campaign  (** [--table NAME] only; reads [--seeds] and [--bank] *)

type entry = {
  kind : kind;
  name : string;
  artifact : string;  (** its key under ["artifacts"] *)
  run : opts -> Json.t;  (** prints the table, returns its artifact *)
  gate : (cmp -> Json.t option -> Json.t -> unit) option;
      (** its [--compare] clause, given the old artifact, if the old
          document has one, and the new *)
}

let registry =
  let e ?artifact ?gate kind name run =
    { kind; name; artifact = Option.value artifact ~default:name; run; gate }
  in
  [
    e Table "example" table_example;
    e ~artifact:"table_4_1" Table "4-1" table_4_1;
    e ~artifact:"table_4_2" Table "4-2" table_4_2;
    e ~artifact:"figure_4_1" Figure "4-1" figure_4_1;
    e ~artifact:"figure_4_2" Figure "4-2" figure_4_2;
    e ~artifact:"lower_bound" Table "lower-bound" table_lower_bound;
    e ~artifact:"code_size" Table "code-size" table_code_size;
    e Table "mve" table_mve;
    e Table "search" table_search;
    e Table "unroll" table_unroll;
    e Table "hier" table_hier;
    e Table "scale" table_scale;
    e Table "optimal" table_optimal;
    e Table "optimal-learning" table_optimal_learning;
    e ~gate:gate_pipeline Table "pipeline" table_pipeline;
    e Table "cost" table_cost;
    e ~artifact:"trace_overhead" Table "trace-overhead" table_trace_overhead;
    e ~artifact:"compile_speed" ~gate:gate_compile_speed Table "compile-speed"
      table_compile_speed;
    e ~gate:gate_serve Table "serve" table_serve;
    e ~gate:gate_slo Table "slo" table_slo;
    e ~gate:gate_campaign Campaign "campaign" table_campaign;
    e Campaign "campaign-sweep" table_campaign_sweep;
  ]

(** [--compare OLD NEW]: every artifact of NEW must share OLD's schema
    generation, then each gated artifact NEW carries goes through its
    gate, and one that OLD carries and NEW lacks is a regression. Exit
    status: 0 clean, 1 any regression, 2 unusable input. *)
let compare_artifacts c ~old_path =
  let artifacts path =
    match In_channel.(with_open_bin path input_all) |> Json.of_string with
    | doc -> (
      match Json.member "artifacts" doc with
      | Some (Json.Obj kvs) -> kvs
      | _ -> [])
    | exception Json.Parse_error m ->
      Fmt.epr "compare: %s: parse error: %s@." path m;
      exit 2
    | exception Sys_error m ->
      Fmt.epr "compare: %s@." m;
      exit 2
  in
  let old_arts = artifacts old_path and new_arts = artifacts c.new_path in
  (* an untagged artifact in OLD predates the stamping and is
     tolerated; NEW must carry tags *)
  List.iter
    (fun (name, jn) ->
      let old = Option.bind (List.assoc_opt name old_arts) (jstr "schema") in
      match (jstr "schema" jn, old) with
      | None, _ ->
        Fmt.epr
          "compare: %s: artifact %s carries no schema tag (regenerate with a \
           current bench --emit-json)@."
          c.new_path name;
        exit 2
      | Some n, Some o when o <> n ->
        Fmt.epr
          "compare: artifact %s: schema %S in %s vs %S in %s — documents from \
           different schema generations are never diffed@."
          name o old_path n c.new_path;
        exit 2
      | _ -> ())
    new_arts;
  let gated =
    List.filter_map
      (fun e -> Option.map (fun g -> (e.artifact, g)) e.gate)
      registry
  in
  List.iter
    (fun (path, arts) ->
      if not (List.exists (fun (a, _) -> List.mem_assoc a arts) gated)
      then begin
        Fmt.epr "compare: %s carries none of the gated artifacts (%s)@." path
          (String.concat ", " (List.map fst gated));
        exit 2
      end)
    [ (old_path, old_arts); (c.new_path, new_arts) ];
  section "E15: regression sentinel";
  List.iter
    (fun (a, gate) ->
      match (List.assoc_opt a old_arts, List.assoc_opt a new_arts) with
      | old_a, Some new_a ->
        gate c old_a new_a;
        Fmt.pr "  %s artifact: gated@." a
      | Some _, None -> flag "%s: artifact missing from %s" a c.new_path
      | None, None -> Fmt.pr "  %s artifact: absent (skipped)@." a)
    gated;
  if !regressions = [] then begin
    Fmt.pr "@.compare: OK — no regression against %s (threshold %.1f%%)@."
      old_path c.threshold;
    0
  end
  else begin
    Fmt.pr "@.compare: %d regression(s) against %s:@."
      (List.length !regressions) old_path;
    List.iter (fun m -> Fmt.pr "  %s@." m) (List.rev !regressions);
    if c.attribute then begin
      Fmt.pr "@.attribution:@.";
      if !attributions = [] then
        Fmt.pr
          "  (no per-loop regression to attribute — the flags above \
           concern kernel-level or non-pipeline artifacts)@."
      else List.iter (fun m -> Fmt.pr "  %s@." m) (List.rev !attributions)
    end;
    1
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let main table figure bechamel_only emit_json compare paths attribute
    threshold seeds bank jobs inject =
  let usage m = `Error (true, m) in
  match (compare, paths, Option.to_list table @ Option.to_list figure) with
  | true, [ old_path; new_path ], [] when not bechamel_only ->
    `Ok (compare_artifacts { threshold; attribute; new_path } ~old_path)
  | true, _, _ ->
    usage "--compare takes OLD and NEW, and no table, figure or --bechamel"
  | false, _ :: _, _ -> usage "only --compare takes arguments (OLD NEW)"
  | false, [], _ when attribute ->
    usage "--attribute only applies to --compare OLD NEW"
  | false, [], picked
    when List.length picked + Bool.to_int bechamel_only > 1 ->
    usage "choose one of --table, --figure and --bechamel"
  | false, [], picked -> (
    match Option.fold ~none:(Ok ()) ~some:Sp_util.Fault.arm_spec inject with
    | Error m -> `Error (false, "--inject: " ^ m)
    | Ok () ->
      let bare = List.is_empty picked && not bechamel_only in
      let entries =
        if bare then List.filter (fun e -> e.kind <> Campaign) registry
        else picked
      in
      let artifacts =
        List.map (fun e -> (e.artifact, e.run { jobs; seeds; bank })) entries
      in
      if bare || bechamel_only then bechamel ();
      Option.iter (fun path -> write_artifacts path artifacts) emit_json;
      `Ok (if !failed then 1 else 0))

let () =
  let open Cmdliner in
  let checked conv ok what =
    let parse s =
      match Arg.conv_parser conv s with
      | Ok x when ok x -> Ok x
      | Ok _ | Error _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    in
    Arg.conv (parse, Arg.conv_printer conv)
  in
  let pick kinds long what =
    let alts =
      List.filter_map
        (fun e -> if List.mem e.kind kinds then Some (e.name, e) else None)
        registry
    in
    Arg.(value & opt (some (enum alts)) None
         & info [ long ] ~docv:"NAME"
             ~doc:(Printf.sprintf "Regenerate only the %s $(docv), %s."
                     what (Arg.doc_alts_enum alts)))
  in
  let seeds =
    let parse s =
      match Scanf.sscanf_opt s "%d..%d%!" (fun lo hi -> (lo, hi)) with
      | Some (lo, hi) when lo <= hi -> Ok (lo, hi)
      | _ -> Error (`Msg (Printf.sprintf "%S is not LO..HI with LO <= HI" s))
    in
    Arg.conv (parse, fun ppf (lo, hi) -> Fmt.pf ppf "%d..%d" lo hi)
  in
  let inject =
    let parse s =
      Option.to_result (Sp_util.Fault.parse_spec s)
        ~none:(`Msg (Printf.sprintf "%S is not SITE@K with K >= 1" s))
    in
    Arg.conv (parse, fun ppf (s, k) -> Fmt.pf ppf "%s@@%d" s k)
  in
  let term =
    Term.(
      ret
        (const main
        $ pick [ Table; Campaign ] "table" "table"
        $ pick [ Figure ] "figure" "figure"
        $ Arg.(value & flag & info [ "bechamel" ]
                 ~doc:"Run only the Bechamel scheduler-cost \
                       microbenchmarks (E10).")
        $ Arg.(value & opt (some string) None & info [ "emit-json" ]
                 ~docv:"FILE"
                 ~doc:"Also write every artifact the run produced to \
                       $(docv) as one JSON document with a stable schema.")
        $ Arg.(value & flag & info [ "compare" ]
                 ~doc:"Regression sentinel: diff the --emit-json documents \
                       OLD and NEW through each artifact's gate; exit 1 on \
                       a regression, 2 on unusable input.")
        $ Arg.(value & pos_all string [] & info [] ~docv:"OLD NEW")
        $ Arg.(value & flag & info [ "attribute" ]
                 ~doc:"With --compare, name the cause of each per-loop \
                       regression.")
        $ Arg.(value
               & opt (checked float (fun x -> x >= 0.0) "a percentage >= 0") 2.0
               & info [ "threshold" ] ~docv:"PCT"
                   ~doc:"With --compare, how far a gated quantity may \
                         worsen, in percent (or percentage points).")
        $ Arg.(value & opt (some seeds) None & info [ "seeds" ] ~docv:"LO..HI"
                 ~doc:"Seed range of the campaign tables.")
        $ Arg.(value & opt (some string) None & info [ "bank" ] ~docv:"DIR"
                 ~doc:"Campaign tables delta-minimize each failing seed and \
                       bank it under $(docv) as a replayable .w2 regression.")
        $ Arg.(value
               & opt (checked int (fun n -> n >= 1) "an integer >= 1") 1
               & info [ "jobs" ] ~docv:"N"
                   ~doc:"Domains for compiles and campaigns; no artifact \
                         depends on $(docv).")
        $ Arg.(value & opt (some inject) None & info [ "inject" ]
                 ~docv:"SITE@K"
                 ~doc:"Arm deterministic fault injection while generating \
                       (degrades loops, for exercising the gates).")))
  in
  let man =
    [
      `S Manpage.s_description;
      `P "With no --table, --figure, --bechamel or --compare, runs every \
          table and figure but the two campaign ones, then the Bechamel \
          microbenchmarks.";
      `P "A table that finds its own output wrong still records its \
          artifact: the run writes --emit-json and then exits 1.";
    ]
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "bench" ~man
             ~doc:"regenerate the paper's tables and figures"
             ~exits:
               (Cmd.Exit.info 1
                  ~doc:"on a failed table, or a regression --compare found."
               :: Cmd.Exit.info 2 ~doc:"on input --compare cannot use."
               :: Cmd.Exit.defaults))
          term))

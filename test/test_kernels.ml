(** Workload-level tests: every Livermore kernel, application program
    and suite entry compiles, validates against the interpreter, and
    satisfies the paper's qualitative claims (pipelining decisions,
    performance ordering). Marked [`Slow] where the simulation is
    long. *)

module C = Sp_core.Compile
module Kernel = Sp_kernels.Kernel

let warp = Sp_machine.Machine.warp

(* The simulated facts of a run; a trapped run fails the test. *)
let sim (m : Kernel.measurement) =
  match m.Kernel.sim with
  | Ok s -> s
  | Error trap -> Alcotest.failf "%s: %s" m.Kernel.kernel trap

let sem_ok m = (sim m).Sp_core.Report.sem_ok = Some true
let mflops m = (sim m).Sp_core.Report.mflops

let check_kernel k () =
  let m = Kernel.run warp k in
  Alcotest.(check bool)
    (k.Kernel.name ^ " semantics") true (sem_ok m);
  Alcotest.(check bool)
    (k.Kernel.name ^ " resources") true m.Kernel.resource_ok

let livermore_cases =
  List.map
    (fun k -> ("LFK " ^ k.Kernel.name, `Slow, check_kernel k))
    Sp_kernels.Livermore.all

let app_cases =
  List.map
    (fun (k, _) -> ("app " ^ k.Kernel.name, `Slow, check_kernel k))
    Sp_kernels.Apps.all

let test_suite_counts () =
  let total, cond = Sp_kernels.Suite.counts () in
  Alcotest.(check int) "72 programs" 72 total;
  Alcotest.(check int) "42 with conditionals" 42 cond

(* a sample of the suite (the full population runs in the bench) *)
let suite_sample_cases =
  List.filteri (fun i _ -> i mod 9 = 0) Sp_kernels.Suite.all
  |> List.map (fun (e : Sp_kernels.Suite.entry) ->
         ( "suite " ^ e.Sp_kernels.Suite.kernel.Kernel.name,
           `Slow,
           check_kernel e.Sp_kernels.Suite.kernel ))

(* ---- qualitative claims ---------------------------------------------- *)

let pipelined m =
  List.exists (fun (lr : C.loop_report) -> lr.C.status = C.Pipelined)
    m.Kernel.loops

let test_lfk22_not_pipelined () =
  (* the EXP expansion takes the body over the threshold *)
  let m = Kernel.run warp Sp_kernels.Livermore.k22_planckian in
  Alcotest.(check bool) "not pipelined" false (pipelined m);
  Alcotest.(check bool) "over threshold" true
    (List.exists
       (fun (lr : C.loop_report) -> lr.C.status = C.Over_threshold)
       m.Kernel.loops)

let test_lfk20_not_profitable () =
  let m = Kernel.run warp Sp_kernels.Livermore.k20_discrete_ordinates in
  Alcotest.(check bool) "division recurrence blocks pipelining" false
    (pipelined m)

let test_recurrence_vs_parallel_mflops () =
  (* the Table 4-2 shape: the parallel equation-of-state kernel far
     outruns the serial recurrences *)
  let eos = Kernel.run warp Sp_kernels.Livermore.k7_eos in
  let tri = Kernel.run warp Sp_kernels.Livermore.k5_tridiag in
  let sum = Kernel.run warp Sp_kernels.Livermore.k11_first_sum in
  Alcotest.(check bool) "eos > 5 MFLOPS" true (mflops eos > 5.0);
  Alcotest.(check bool) "tridiag < 1.5 MFLOPS" true (mflops tri < 1.5);
  Alcotest.(check bool) "first-sum ~ 5/7 MFLOPS" true
    (mflops sum > 0.5 && mflops sum < 1.0)

let test_lfk_efficiencies () =
  (* most kernels pipeline at their lower bound (the 75% claim is over
     the whole population; here: the clean vector kernels do) *)
  List.iter
    (fun k ->
      let m = Kernel.run warp k in
      Alcotest.(check (float 0.001))
        (k.Kernel.name ^ " efficiency")
        1.0 (Kernel.efficiency m))
    [ Sp_kernels.Livermore.k1_hydro; Sp_kernels.Livermore.k3_inner_product;
      Sp_kernels.Livermore.k7_eos; Sp_kernels.Livermore.k12_first_diff ]

let test_matmul_near_peak () =
  (* the systolic cell sustains close to one multiply-add per cycle *)
  let k, _ = List.hd Sp_kernels.Apps.all in
  let m = Kernel.run warp k in
  Alcotest.(check bool)
    (Printf.sprintf "matmul %.2f MFLOPS > 8" (mflops m))
    true
    (mflops m > 8.0);
  Alcotest.(check bool) "II = 1" true
    (List.exists (fun (lr : C.loop_report) -> lr.C.ii = Some 1) m.Kernel.loops)

let test_average_speedup_band () =
  (* a fast sample of Figure 4-2's headline: average speed-up around 3x *)
  let sample = List.filteri (fun i _ -> i mod 6 = 0) Sp_kernels.Suite.all in
  let sps =
    List.map
      (fun (e : Sp_kernels.Suite.entry) ->
        let f, piped, local = Kernel.speedup warp e.Sp_kernels.Suite.kernel in
        Alcotest.(check bool) (piped.Kernel.kernel ^ " valid") true
          (sem_ok piped && sem_ok local);
        f)
      sample
  in
  let avg = List.fold_left ( +. ) 0.0 sps /. float_of_int (List.length sps) in
  Alcotest.(check bool)
    (Printf.sprintf "average %.2f in [2, 6]" avg)
    true
    (avg >= 2.0 && avg <= 6.0)

(* A run stopped by its cycle limit is a structured failure: no
   simulated facts, and the trap (the cycle reached, one past the
   limit) in the measurement and in the row tag. *)
let test_cycle_limit () =
  let m = Kernel.run ~max_cycles:50 warp Sp_kernels.Livermore.k1_hydro in
  (match m.Kernel.sim with
  | Error trap ->
    Alcotest.(check string) "trap" "cycle limit hit at cycle 51" trap
  | Ok _ -> Alcotest.fail "a 50-cycle limit must stop LFK1");
  Alcotest.(check string) "tag" " !! CYCLE LIMIT HIT AT CYCLE 51" (Kernel.tag m)

let suite =
  [
    ("suite counts (72/42)", `Quick, test_suite_counts);
    ("LFK22 rejected (threshold)", `Slow, test_lfk22_not_pipelined);
    ("LFK20 rejected (recurrence)", `Slow, test_lfk20_not_profitable);
    ("recurrence vs parallel MFLOPS", `Slow, test_recurrence_vs_parallel_mflops);
    ("efficiency at bound", `Slow, test_lfk_efficiencies);
    ("matmul near peak", `Slow, test_matmul_near_peak);
    ("average speed-up band", `Slow, test_average_speedup_band);
  ]
  @ livermore_cases @ app_cases @ suite_sample_cases
  @ [ ("cycle limit is a structured failure", `Quick, test_cycle_limit) ]

(** End-to-end compiler tests: every scheduled program must compute
    exactly what the sequential interpreter computes, across machines,
    configurations, trip counts and control structures. The qcheck
    properties drive randomly generated loop bodies through the full
    pipeline (see {!Gen}). *)

open Sp_ir
module C = Sp_core.Compile
module Opkind = Sp_machine.Opkind

let warp = Sp_machine.Machine.warp
let toy = Sp_machine.Machine.toy

let run_both ?(machine = warp) ?(config = C.default) ?(inputs = [])
    ?(init = fun _ -> ()) p =
  let r = C.program ~config machine p in
  let oracle = Interp.run ~init ~inputs p in
  let sim = Sp_vliw.Sim.run ~init ~inputs machine p r.C.code in
  let viols = Sp_vliw.Check.check_prog machine r.C.code in
  ( Machine_state.observably_equal oracle.Interp.state sim.Sp_vliw.Sim.state,
    viols, r, sim )

let assert_ok ?machine ?config ?inputs ?init name p =
  let sem, viols, _, _ = run_both ?machine ?config ?inputs ?init p in
  Alcotest.(check bool) (name ^ ": semantics") true sem;
  Alcotest.(check int) (name ^ ": resource violations") 0 (List.length viols)

(* ---- deterministic scenarios ---------------------------------------- *)

let vadd_program n =
  let b = Builder.create "vadd" in
  let a = Builder.farray b "a" (n + 8) in
  let k = Builder.fconst b 3.5 in
  Builder.for_ b (Region.Const n) (fun i ->
      let x = Builder.load_iv b a i 0 in
      Builder.store_iv b a i 0 (Builder.fadd b x k));
  (Builder.finish b, a)

let test_vadd_all_machines () =
  List.iter
    (fun machine ->
      let p, a = vadd_program 40 in
      let init st = Machine_state.init_farray st a (fun i -> float_of_int i) in
      assert_ok ~machine ~init machine.Sp_machine.Machine.name p)
    [ warp; toy; Sp_machine.Machine.serial; Sp_machine.Machine.warp_scaled ~width:2 ]

let test_trip_count_sweep () =
  (* every trip count exercises a different peel/kernel/epilog split *)
  List.iter
    (fun n ->
      let p, a = vadd_program n in
      let init st = Machine_state.init_farray st a (fun i -> float_of_int i) in
      assert_ok ~init (Printf.sprintf "trip %d" n) p)
    [ 0; 1; 2; 3; 4; 5; 7; 8; 11; 13; 16; 23; 40; 64; 100 ]

let test_runtime_trip_sweep () =
  List.iter
    (fun n ->
      let b = Builder.create "vadd" in
      let a = Builder.farray b "a" 128 in
      let k = Builder.fconst b 1.0 in
      let nreg = Builder.iconst b n in
      Builder.for_reg b nreg (fun i ->
          let x = Builder.load_iv b a i 0 in
          Builder.store_iv b a i 0 (Builder.fadd b x k));
      let p = Builder.finish b in
      assert_ok (Printf.sprintf "runtime trip %d" n) p)
    [ 0; 1; 3; 7; 16; 33; 77; 120 ]

let test_example_ii_and_speedup () =
  (* the paper's Section 2 example on the toy machine: II = 1 *)
  let p, a = vadd_program 60 in
  let init st = Machine_state.init_farray st a (fun i -> float_of_int i) in
  let _, _, r, sim = run_both ~machine:toy ~init p in
  (match r.C.loops with
  | [ lr ] ->
    Alcotest.(check (option int)) "II = 1" (Some 1) lr.C.ii;
    Alcotest.(check int) "lower bound 1" 1 lr.C.mii
  | _ -> Alcotest.fail "one loop expected");
  let _, _, _, sim0 = run_both ~machine:toy ~config:C.local_only ~init p in
  let speedup =
    float_of_int sim0.Sp_vliw.Sim.cycles /. float_of_int sim.Sp_vliw.Sim.cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "speed-up %.2f near the paper's 4x" speedup)
    true
    (speedup > 3.5)

let test_conditional_loop () =
  let src =
    {|program c;
var x, y : array [0..99] of float;
begin
  for k := 0 to 99 do begin
    if x[k] > 1.5 then y[k] := x[k] * 2.0;
    else y[k] := x[k] * 0.5;
  end
end.|}
  in
  let p = Sp_lang.Lower.compile_source src in
  let init st = Sp_kernels.Kernel.init_all_arrays st p in
  assert_ok ~init "conditional loop" p;
  (* and it pipelines *)
  let r = C.program warp p in
  Alcotest.(check bool) "pipelined" true
    (List.exists (fun lr -> lr.C.status = C.Pipelined) r.C.loops)

let test_nested_conditionals () =
  let src =
    {|program c;
var x : array [0..63] of float;
begin
  for k := 0 to 63 do begin
    if x[k] > 1.5 then begin
      if x[k] > 1.8 then x[k] := 1.8;
      else x[k] := x[k] * 0.9;
    end
    else x[k] := x[k] + 0.1;
  end
end.|}
  in
  let p = Sp_lang.Lower.compile_source src in
  let init st = Sp_kernels.Kernel.init_all_arrays st p in
  assert_ok ~init "nested conditionals" p

let test_loop_in_conditional () =
  (* the hough structure that exposed the dynamic-expansion hazard *)
  let src =
    {|program c;
var p : array [0..63] of float;
    acc : array [0..63] of float;
    v : float;
begin
  for j := 0 to 15 do begin
    v := p[j];
    if v > 1.2 then begin
      for t := 0 to 3 do
        acc[t] := acc[t] + v;
    end
    else v := 0.0;
  end
end.|}
  in
  let p = Sp_lang.Lower.compile_source src in
  let init st = Sp_kernels.Kernel.init_all_arrays st p in
  assert_ok ~init "loop nested in conditional" p

let test_adjacent_loops () =
  let src =
    {|program c;
var x, y : array [0..63] of float;
begin
  for k := 0 to 63 do x[k] := x[k] * 2.0;
  for k := 0 to 63 do y[k] := x[k] + 1.0;
  for k := 0 to 31 do x[k] := y[k] - x[k];
end.|}
  in
  let p = Sp_lang.Lower.compile_source src in
  let init st = Sp_kernels.Kernel.init_all_arrays st p in
  assert_ok ~init "adjacent loops" p

let test_triple_nest () =
  let src =
    {|program c;
var a : array [0..4, 0..4] of float;
    b : array [0..4, 0..4] of float;
    c : array [0..4, 0..4] of float;
begin
  for k := 0 to 4 do
    for i := 0 to 4 do
      for j := 0 to 4 do
        c[i,j] := c[i,j] + a[i,k] * b[k,j];
end.|}
  in
  let p = Sp_lang.Lower.compile_source src in
  let init st = Sp_kernels.Kernel.init_all_arrays st p in
  assert_ok ~init "triple nest" p

let test_config_matrix () =
  let p = Sp_lang.Lower.compile_source
      {|program c;
var x, y : array [0..70] of float; s : float;
begin
  s := 0.0;
  for k := 0 to 63 do begin
    s := s + x[k] * y[k];
    y[k] := s;
  end
end.|}
  in
  let init st = Sp_kernels.Kernel.init_all_arrays st p in
  List.iter
    (fun (name, config) -> assert_ok ~config ~init name p)
    [
      ("default", C.default);
      ("local", C.local_only);
      ("mve-off", { C.default with C.mve_mode = Sp_core.Mve.Off });
      ("mve-lcm", { C.default with C.mve_mode = Sp_core.Mve.Lcm });
      ("binary", { C.default with C.search = Sp_core.Modsched.Binary });
      ("if-exclusive", { C.default with C.if_exclusive = true });
      ("threshold-0", { C.default with C.threshold = 0 });
    ]

let test_code_size_reasonable () =
  (* Section 2.4: pipelined code within a small factor of the loop *)
  let p, _ = vadd_program 64 in
  let r = C.program warp p in
  let r0 = C.program ~config:C.local_only warp p in
  let ratio =
    float_of_int r.C.code_size /. float_of_int (max 1 r0.C.code_size)
  in
  Alcotest.(check bool)
    (Printf.sprintf "code growth %.1fx bounded" ratio)
    true (ratio < 8.0)

let test_loop_reports () =
  let p, _ = vadd_program 64 in
  let r = C.program warp p in
  match r.C.loops with
  | [ lr ] ->
    Alcotest.(check bool) "pipelined" true (lr.C.status = C.Pipelined);
    Alcotest.(check bool) "ii >= mii" true
      (match lr.C.ii with Some s -> s >= lr.C.mii | None -> false);
    Alcotest.(check bool) "seq_len > ii" true
      (match lr.C.ii with Some s -> lr.C.seq_len > s | None -> false);
    Alcotest.(check bool) "efficiency in (0,1]" true
      (C.efficiency lr > 0.0 && C.efficiency lr <= 1.0)
  | _ -> Alcotest.fail "one loop"

let test_runtime_seam () =
  (* regression: the run-time pass counter must be preset before the
     prolog — an extra instruction at the prolog->kernel seam shifts
     every in-flight prolog value by a cycle (caught by the oracle on
     exactly this program) *)
  List.iter
    (fun n ->
      let src =
        Printf.sprintf
          {|program s;
var x, y : array [0..255] of float; n, k : int;
begin n := %d; for k := 0 to n do y[k] := 2.5 * x[k] + y[k]; end.|}
          n
      in
      let p = Sp_lang.Lower.compile_source src in
      let init st = Sp_kernels.Kernel.init_all_arrays st p in
      assert_ok ~init (Printf.sprintf "runtime saxpy n=%d" n) p)
    [ 5; 13; 100; 200 ]

let test_dot_export () =
  let p = Sp_lang.Lower.compile_source
      {|program d;
var x : array [0..31] of float;
begin for i := 0 to 31 do x[i] := x[i] + 1.0; end.|}
  in
  match C.innermost_ddgs warp p with
  | [ (_, g) ] ->
    let s = Sp_core.Dot.to_string g in
    let contains needle =
      let n = String.length needle and h = String.length s in
      let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "digraph header" true (contains "digraph");
    Alcotest.(check bool) "has nodes" true (contains "n0");
    Alcotest.(check bool) "has edges" true (contains "->")
  | _ -> Alcotest.fail "expected one innermost loop"

let test_profit_margin () =
  (* a marginal loop: pipelining declined at the paper's margin,
     accepted when the margin is disabled *)
  let k = Sp_kernels.Livermore.k20_discrete_ordinates in
  let p = Sp_kernels.Kernel.program k in
  let strict = C.program warp p in
  let lax = C.program ~config:{ C.default with C.profit_margin = 1.0 } warp p in
  let pipelined r =
    List.exists (fun (lr : C.loop_report) -> lr.C.status = C.Pipelined)
      r.C.loops
  in
  Alcotest.(check bool) "declined at the paper's margin" false
    (pipelined strict);
  Alcotest.(check bool) "accepted without a margin" true (pipelined lax)

(* ---- the central properties ----------------------------------------- *)

let prop_equivalence_default =
  QCheck2.Test.make ~name:"random programs: pipelined = interpreter"
    ~count:60 ~print:(Fmt.str "%a" Gen.pp_spec) Gen.spec_gen (fun sp ->
      match Gen.check_equivalence warp sp with
      | Ok () -> true
      | Error e -> QCheck2.Test.fail_report e)

let prop_equivalence_toy =
  QCheck2.Test.make ~name:"random programs on the toy machine" ~count:30
    ~print:(Fmt.str "%a" Gen.pp_spec) Gen.spec_gen (fun sp ->
      match Gen.check_equivalence toy sp with
      | Ok () -> true
      | Error e -> QCheck2.Test.fail_report e)

let prop_equivalence_config =
  QCheck2.Test.make ~name:"random programs under ablation configs"
    ~count:30 ~print:(Fmt.str "%a" Gen.pp_spec) Gen.spec_gen (fun sp ->
      List.for_all
        (fun config ->
          match Gen.check_equivalence ~config warp sp with
          | Ok () -> true
          | Error e -> QCheck2.Test.fail_report e)
        [
          C.local_only;
          { C.default with C.mve_mode = Sp_core.Mve.Lcm };
          { C.default with C.mve_mode = Sp_core.Mve.Off };
          { C.default with C.if_exclusive = true };
        ])

(* ---- parallel compilation determinism ------------------------------- *)

(** Everything the compiler externalizes for a program, as one
    comparable value: emitted code, per-loop reports, the explain log,
    the trace's span names and [loop] attributes in recording order,
    and the cost profile — every recorder a parallel task's capture
    replays. [build] must construct a {e fresh} program per call —
    compiling draws register and op ids from the program's supplies. *)
let compile_fingerprint ~jobs (build : unit -> Program.t) =
  let p = build () in
  Sp_obs.Explain.enable ();
  Sp_obs.Trace.enable ();
  Sp_obs.Cost.enable ();
  (* the log is process-global and [disable] keeps it; [enable] starts
     an empty one, so later suites observe the empty-when-disabled
     contract *)
  Fun.protect ~finally:(fun () ->
      Sp_obs.Explain.enable ();
      Sp_obs.Explain.disable ();
      Sp_obs.Trace.disable ();
      Sp_obs.Cost.disable ();
      Sp_obs.Cost.clear ())
  @@ fun () ->
  let r, events =
    Sp_obs.Trace.collect (fun () ->
        C.program ~config:{ C.default with C.jobs } warp p)
  in
  let spans =
    List.filter_map
      (function
        | Sp_obs.Trace.Span { name; args; _ } ->
          Some (name, List.assoc_opt "loop" args)
        | Sp_obs.Trace.Instant _ -> None)
      events
  in
  ( Fmt.str "%a" Sp_vliw.Prog.pp r.C.code,
    r.C.code_size,
    List.map
      (fun (lr : C.loop_report) ->
        ( lr.C.l_id,
          lr.C.ii,
          lr.C.mii,
          C.status_to_string lr.C.status,
          lr.C.seq_len,
          lr.C.unroll ))
      r.C.loops,
    Sp_obs.Explain.report (),
    spans,
    Sp_obs.Cost.snapshot () )

let prop_parallel_determinism =
  QCheck2.Test.make
    ~name:"compile: jobs=8 byte-identical to jobs=1 (random programs)"
    ~count:40 ~print:(fun (sp, extra) ->
      Fmt.str "%a + %d sibling(s)" Gen.pp_spec sp extra)
    QCheck2.Gen.(pair Gen.spec_gen (int_range 0 3))
    (fun (sp, extra) ->
      (* several sibling innermost loops exercise the batched parallel
         analysis path; varied seeds give each sibling its own shape *)
      let specs =
        List.init (1 + extra) (fun i -> { sp with Gen.seed = sp.Gen.seed + i })
      in
      let build () =
        let p, _, _ = Gen.build_many specs in
        p
      in
      compile_fingerprint ~jobs:1 build = compile_fingerprint ~jobs:8 build)

let test_parallel_livermore () =
  List.iter
    (fun k ->
      let build () = Sp_kernels.Kernel.program k in
      Alcotest.(check bool)
        (k.Sp_kernels.Kernel.name ^ ": jobs=8 = jobs=1")
        true
        (compile_fingerprint ~jobs:1 build = compile_fingerprint ~jobs:8 build))
    Sp_kernels.Livermore.all

(* A -j 4 compile spawns workers only for a batch of sibling innermost
   loops: none for the Livermore kernels or the population, whose loops
   never batch, and one for the two loops of examples/siblings.w2. *)
let test_parallel_spawns () =
  let spawns build =
    let before = Sp_util.Pool.spawned () in
    ignore (C.program ~config:{ C.default with C.jobs = 4 } warp (build ()));
    Sp_util.Pool.spawned () - before
  in
  let kernels =
    Sp_kernels.Livermore.all
    @ List.map (fun e -> e.Sp_kernels.Suite.kernel) Sp_kernels.Suite.all
  in
  Alcotest.(check int)
    "Livermore and population spawn nothing" 0
    (List.fold_left
       (fun acc k -> acc + spawns (fun () -> Sp_kernels.Kernel.program k))
       0 kernels);
  let src =
    In_channel.with_open_bin "../examples/siblings.w2" In_channel.input_all
  in
  let build () = Sp_lang.Lower.compile_source src in
  Alcotest.(check int) "siblings.w2 spawns one worker" 1 (spawns build);
  Alcotest.(check bool)
    "siblings.w2: jobs=4 = jobs=1" true
    (compile_fingerprint ~jobs:1 build = compile_fingerprint ~jobs:4 build)

(* Every examples/*.w2, named by its file, over the arrays [w2c run]
   initializes. *)
let example_kernels () =
  List.filter_map
    (fun f ->
      if Filename.check_suffix f ".w2" then
        Some
          (Sp_kernels.Kernel.mk f
             ~init:(Sp_kernels.Kernel.init_all_arrays ~seed:1)
             (Sp_kernels.Kernel.W2
                (In_channel.with_open_bin
                   (Filename.concat "../examples" f)
                   In_channel.input_all)))
      else None)
    (List.sort compare (Array.to_list (Sys.readdir "../examples")))

(* Every counted unit of compile work lands in a named cost phase:
   hierarchical reduction, the basic blocks it compacts and the program's
   top level included, so no compile records a cell in the catch-all
   [other] phase. *)
let test_no_other_phase () =
  let kernels =
    List.map
      (fun k -> (k.Sp_kernels.Kernel.name, fun () -> Sp_kernels.Kernel.program k))
      (Sp_kernels.Livermore.all
      @ List.map (fun e -> e.Sp_kernels.Suite.kernel) Sp_kernels.Suite.all
      @ example_kernels ())
  in
  let wgen =
    List.init 64 (fun i ->
        ( Printf.sprintf "wgen/%d" (i + 1),
          fun () ->
            Sp_lang.Lower.compile_source
              (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed:(i + 1))) ))
  in
  Sp_obs.Cost.enable ();
  Fun.protect ~finally:Sp_obs.Cost.disable @@ fun () ->
  List.iter
    (fun (name, build) ->
      let p = build () in
      Sp_obs.Cost.clear ();
      ignore (C.program warp p);
      let others =
        List.filter
          (fun ((_, ph), _) -> ph = Sp_obs.Cost.P_other)
          (Sp_obs.Cost.cells (Sp_obs.Cost.snapshot ()))
      in
      Alcotest.(check int) (name ^ ": cells in phase other") 0
        (List.length others))
    (kernels @ wgen)

(* Compiling one lowered program twice gives the same result: the
   compiler draws its registers and operations from copies of the
   program's supplies, and the simulator sizes the register file from
   the code, so the second result also runs to the interpreter's
   state. *)
let test_compile_pure () =
  List.iter
    (fun (k : Sp_kernels.Kernel.t) ->
      let name = k.Sp_kernels.Kernel.name in
      let p = Sp_kernels.Kernel.program k in
      let r1 = C.program warp p in
      let r2 = C.program warp p in
      Alcotest.(check string)
        (name ^ ": listing") (C.listing warp p r1) (C.listing warp p r2);
      Alcotest.(check string)
        (name ^ ": fingerprint") (C.fingerprint r1) (C.fingerprint r2);
      Alcotest.(check bool)
        (name ^ ": loop reports") true (r1.C.loops = r2.C.loops);
      let init st = k.Sp_kernels.Kernel.init st p in
      let inputs = k.Sp_kernels.Kernel.inputs in
      let reference = Sp_ir.Interp.run ~inputs ~init p in
      let sim = Sp_vliw.Sim.run ~inputs ~init warp p r2.C.code in
      Alcotest.(check bool)
        (name ^ ": second compile simulates") true
        (Sp_ir.Machine_state.observably_equal reference.Sp_ir.Interp.state
           sim.Sp_vliw.Sim.state))
    (Sp_kernels.Livermore.all
    @ List.map (fun e -> e.Sp_kernels.Suite.kernel) Sp_kernels.Suite.all
    @ example_kernels ())

(* A loop whose body ([branch = false]) or whose conditional's branch
   holds 16 [exp] calls: a block and a loop body of several hundred
   units. *)
let long_body ~branch =
  let terms =
    String.concat " + "
      (List.init 16 (fun i ->
           Printf.sprintf "exp(x[k] * %.2f)" (0.05 *. float_of_int (i + 1))))
  in
  Printf.sprintf
    "program long;\nvar x, y : array [0..64] of float; k : int;\nbegin\n  \
     for k := 0 to 63 do begin\n    %s\n  end\nend.\n"
    (if branch then
       Printf.sprintf
         "if x[k] > 0.5 then y[k] := %s;\n    else y[k] := x[k];" terms
     else Printf.sprintf "y[k] := %s;" terms)

(** OCaml 5 forces a minor collection to make an array of more than 256
    words from a young element. Wgen seed 10 holds an [exp] call in a
    branch of its loop, so its compile builds fragments, extras and
    padded branches that long; seed 1031 pipelines a loop whose
    prolog, kernel and epilog together hold more than 256 words, which
    the fragment check lays out as one program. None may force a
    collection. The two long bodies also build unit, component and
    memory-effect arrays that long; their compiles allocate more than
    the default minor heap, so they run under a larger one. *)
let test_compile_no_forced_minor () =
  List.iter
    (fun seed ->
      let p =
        Sp_lang.Lower.compile_source
          (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed))
      in
      Alcotest.(check int)
        (Printf.sprintf "forced minor collections (Wgen %d)" seed)
        0
        (Alloc.minor_collections (fun () ->
             C.program Sp_machine.Machine.warp p)))
    [ 10; 1031 ];
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  List.iter
    (fun branch ->
      let p = Sp_lang.Lower.compile_source (long_body ~branch) in
      Alcotest.(check int)
        (Printf.sprintf "forced minor collections (%s)"
           (if branch then "long branch" else "long body"))
        0
        (Alloc.minor_collections (fun () ->
             C.program Sp_machine.Machine.warp p)))
    [ true; false ]

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ("vadd on all machines", `Quick, test_vadd_all_machines);
    ("trip count sweep", `Quick, test_trip_count_sweep);
    ("runtime trip sweep", `Quick, test_runtime_trip_sweep);
    ("paper example: II and speed-up", `Quick, test_example_ii_and_speedup);
    ("conditional loop", `Quick, test_conditional_loop);
    ("nested conditionals", `Quick, test_nested_conditionals);
    ("loop nested in conditional", `Quick, test_loop_in_conditional);
    ("adjacent loops", `Quick, test_adjacent_loops);
    ("triple nest", `Quick, test_triple_nest);
    ("config matrix", `Quick, test_config_matrix);
    ("code size bounded", `Quick, test_code_size_reasonable);
    ("loop reports", `Quick, test_loop_reports);
    ("runtime prolog/kernel seam", `Quick, test_runtime_seam);
    ("dot export", `Quick, test_dot_export);
    ("profit margin (LFK20)", `Quick, test_profit_margin);
    ("parallel determinism (Livermore)", `Quick, test_parallel_livermore);
    qt prop_equivalence_default;
    qt prop_equivalence_toy;
    qt prop_equivalence_config;
    qt prop_parallel_determinism;
    ("parallel compile spawns per batch", `Quick, test_parallel_spawns);
    ("no work unit outside a named phase", `Quick, test_no_other_phase);
    ("compile is a function of its input", `Quick, test_compile_pure);
    ("compile forces no minor collection", `Quick, test_compile_no_forced_minor);
  ]

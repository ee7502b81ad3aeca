(** Tests for the exact modulo scheduler and the optimality certifier
    ([Sp_opt]): the exact interval is bracketed by the lower bound and
    the heuristic's interval, exact search never refutes an interval
    the heuristic scheduled, improved schedules survive the full
    compile–simulate–verify pass, and certification is deterministic
    under a fixed budget. *)

module C = Sp_core.Compile
module Ddg = Sp_core.Ddg
module Mii = Sp_core.Mii
module Listsched = Sp_core.Listsched
module Modsched = Sp_core.Modsched
module Exact = Sp_opt.Exact
module Certify = Sp_opt.Certify
module Kernel = Sp_kernels.Kernel

let m = Sp_machine.Machine.warp

(* random DDG with its heuristic scheduling context, shared by the
   properties below *)
let setup seed k =
  let units = Test_modsched.random_units seed k in
  let g = Ddg.build units in
  let pl = Listsched.compact m g in
  let seq_len = Listsched.restart_interval g pl in
  let analysis = Modsched.analyze ~s_max:seq_len g in
  let mii = (Mii.compute m units ~rec_mii:analysis.Modsched.a_rec_mii).Mii.mii in
  (units, g, analysis, mii, seq_len)

let legal (g : Ddg.t) ~s times = Modsched.check m g ~s ~times = Ok ()

let spec_gen =
  QCheck2.Gen.(
    let* seed = int_bound 100_000 in
    let* k = int_range 1 8 in
    return (seed, k))

(* certifier budget for the random properties: ample for DDGs of <= 10
   nodes, and any overrun shows up as Unknown, never as a wrong answer *)
let prop_fuel = 400_000

let prop_exact_between_bounds =
  QCheck2.Test.make ~name:"mii <= exact II <= heuristic II" ~count:120 spec_gen
    (fun (seed, k) ->
      let units, g, analysis, mii, seq_len = setup seed k in
      match Modsched.schedule ~analysis m g ~mii ~max_ii:seq_len with
      | None -> true
      | Some heur -> (
        let o = Certify.run ~fuel:prop_fuel ~analysis m g ~mii ~ii:heur.Modsched.s in
        match o.Certify.cert with
        | Certify.Optimal -> true (* exact II = heuristic II *)
        | Certify.Unknown { proven_below } ->
          proven_below >= mii && proven_below <= heur.Modsched.s
        | Certify.Improved sched ->
          (* strictly better, still above the lower bound, and a valid
             schedule by independent re-checking *)
          sched.Modsched.s >= mii
          && sched.Modsched.s < heur.Modsched.s
          && legal g ~s:sched.Modsched.s sched.Modsched.times
          && Test_modsched.resources_ok units sched.Modsched.times
               ~s:sched.Modsched.s))

let prop_exact_complete =
  (* completeness: an interval the heuristic scheduled can never be
     refuted by the exact search *)
  QCheck2.Test.make ~name:"exact search never refutes a scheduled interval"
    ~count:120 spec_gen (fun (seed, k) ->
      let units, g, analysis, mii, seq_len = setup seed k in
      ignore units;
      match Modsched.schedule ~analysis m g ~mii ~max_ii:seq_len with
      | None -> true
      | Some heur -> (
        let r =
          Exact.solve ~fuel:prop_fuel m g ~scc:analysis.Modsched.a_scc
            ~spaths:analysis.Modsched.a_spaths ~s:heur.Modsched.s
        in
        match r.Exact.verdict with
        | Exact.Infeasible -> false
        | Exact.Feasible times -> legal g ~s:heur.Modsched.s times
        | Exact.Out_of_budget -> true))

let prop_certify_deterministic =
  QCheck2.Test.make ~name:"certification is deterministic under a fixed budget"
    ~count:60 spec_gen (fun (seed, k) ->
      let _, g, analysis, mii, seq_len = setup seed k in
      match Modsched.schedule ~analysis m g ~mii ~max_ii:seq_len with
      | None -> true
      | Some heur ->
        let run () =
          Certify.run ~fuel:10_000 ~analysis m g ~mii ~ii:heur.Modsched.s
        in
        let a = run () and b = run () in
        a.Certify.spent = b.Certify.spent
        && a.Certify.intervals = b.Certify.intervals
        &&
        (match (a.Certify.cert, b.Certify.cert) with
        | Certify.Optimal, Certify.Optimal -> true
        | Certify.Unknown { proven_below = x }, Certify.Unknown { proven_below = y }
          -> x = y
        | Certify.Improved x, Certify.Improved y ->
          x.Modsched.s = y.Modsched.s && x.Modsched.times = y.Modsched.times
        | _ -> false))

let prop_nogood_sound =
  (* soundness of the learner: any assignment covered by a learned
     primitive nogood must be infeasible when replayed against the raw
     constraints — pin the nogood's literals, disable learning, and
     search the rest of the space *)
  QCheck2.Test.make ~name:"learned nogoods replay as infeasible pins" ~count:80
    spec_gen (fun (seed, k) ->
      let _, g, analysis, mii, seq_len = setup seed k in
      ignore seq_len;
      let scc = analysis.Modsched.a_scc
      and spaths = analysis.Modsched.a_spaths in
      let s = max 1 (max mii analysis.Modsched.a_rec_mii) in
      let bank = Sp_opt.Nogood.create () in
      let (_ : Exact.result) =
        Exact.solve ~fuel:prop_fuel ~bank m g ~scc ~spaths ~s
      in
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      List.for_all
        (fun (ng : Sp_opt.Nogood.nogood) ->
          match ng.Sp_opt.Nogood.cert with
          | Sp_opt.Nogood.C_derived ->
            true (* anchor-dependent; not replayable under a pin *)
          | _ -> (
            let pin =
              Array.to_list
                (Array.map
                   (fun (l : Sp_opt.Nogood.lit) ->
                     (l.Sp_opt.Nogood.var, l.Sp_opt.Nogood.res))
                   ng.Sp_opt.Nogood.lits)
            in
            let r =
              Exact.solve ~fuel:prop_fuel
                ~config:{ Exact.default_config with Exact.learn = false }
                ~pin m g ~scc ~spaths ~s
            in
            match r.Exact.verdict with
            | Exact.Feasible _ -> false
            | Exact.Infeasible | Exact.Out_of_budget -> true))
        (take 20 (Sp_opt.Nogood.entries bank)))

let prop_portfolio_deterministic =
  (* the proof portfolio is determinized: with ample fuel, K members
     commit exactly what the single default member produces *)
  QCheck2.Test.make ~name:"portfolio 4 outcome equals portfolio 1" ~count:40
    spec_gen (fun (seed, k) ->
      let _, g, analysis, mii, seq_len = setup seed k in
      match Modsched.schedule ~analysis m g ~mii ~max_ii:seq_len with
      | None -> true
      | Some heur ->
        let run p =
          Certify.run ~fuel:prop_fuel ~analysis ~portfolio:p m g ~mii
            ~ii:heur.Modsched.s
        in
        let a = run 1 and b = run 4 in
        (match (a.Certify.cert, b.Certify.cert) with
        | Certify.Unknown _, _ | _, Certify.Unknown _ ->
          true (* budget ran out somewhere; equivalence is about proofs *)
        | Certify.Optimal, Certify.Optimal -> true
        | Certify.Improved x, Certify.Improved y ->
          x.Modsched.s = y.Modsched.s && x.Modsched.times = y.Modsched.times
        | _ -> false)
        && a.Certify.intervals = b.Certify.intervals)

let prop_carry_invariant =
  (* carrying a learned bank across the II scan must never change a
     verdict: nogoods only prune assignments that are infeasible, so
     the scan's outcome — including the schedule found — equals a
     fresh chronological solve per interval *)
  QCheck2.Test.make ~name:"carried bank never changes a verdict" ~count:60
    spec_gen (fun (seed, k) ->
      let _, g, analysis, mii, seq_len = setup seed k in
      match Modsched.schedule ~analysis m g ~mii ~max_ii:seq_len with
      | None -> true
      | Some heur -> (
        let scc = analysis.Modsched.a_scc
        and spaths = analysis.Modsched.a_spaths in
        let o =
          Certify.run ~fuel:prop_fuel ~analysis ~learn:true m g ~mii
            ~ii:heur.Modsched.s
        in
        let lo = max 1 (max mii analysis.Modsched.a_rec_mii) in
        let rec scan s =
          if s >= heur.Modsched.s then `Optimal
          else
            let r =
              Exact.solve ~fuel:prop_fuel
                ~config:{ Exact.default_config with Exact.learn = false }
                m g ~scc ~spaths ~s
            in
            match r.Exact.verdict with
            | Exact.Feasible times -> `Feasible (s, times)
            | Exact.Infeasible -> scan (s + 1)
            | Exact.Out_of_budget -> `Budget
        in
        match (o.Certify.cert, scan lo) with
        | _, `Budget | Certify.Unknown _, _ -> true
        | Certify.Optimal, `Optimal -> true
        | Certify.Improved sched, `Feasible (s, times) ->
          sched.Modsched.s = s && sched.Modsched.times = times
        | _ -> false))

let prop_certified_compile_equivalent =
  (* the central property, with the certifier in the loop: improved
     schedules flow through MVE and emission and must still compute
     exactly what the sequential interpreter computes *)
  QCheck2.Test.make ~name:"certified compilation preserves semantics" ~count:60
    Gen.spec_gen (fun sp ->
      let config =
        { C.default with C.certifier = Some (Certify.hook ~fuel:prop_fuel ()) }
      in
      match Gen.check_equivalence ~config m sp with
      | Ok () -> true
      | Error e -> QCheck2.Test.fail_reportf "%a: %s" Gen.pp_spec sp e)

(* ---- deterministic cases -------------------------------------------- *)

let cert_of_config config k =
  let meas = Kernel.run ~config m k in
  List.filter_map (fun (lr : C.loop_report) -> lr.C.cert) meas.Kernel.loops

let test_optimal_at_bound () =
  (* a loop the heuristic schedules at mii: the scan range is empty and
     the certificate is free *)
  let config = { C.default with C.certifier = Some (Certify.hook ()) } in
  let k =
    Kernel.mk "saxpy" ~init:(Kernel.init_all_arrays ~seed:1)
      (Kernel.W2
         {|program s;
var x, y : array [0..127] of float; k : int;
begin for k := 0 to 127 do y[k] := 2.5 * x[k] + y[k]; end.|})
  in
  match cert_of_config config k with
  | [ C.Cert_optimal { spent } ] ->
    Alcotest.(check int) "empty scan costs nothing" 0 spent
  | _ -> Alcotest.fail "expected a single optimal certificate"

let test_improves_lfk16 () =
  (* LFK16's heuristic interval is above the optimum; the exact
     certifier closes the gap and the improved kernel still simulates
     correctly *)
  let config = { C.default with C.certifier = Some (Certify.hook ()) } in
  let meas = Kernel.run ~config m Sp_kernels.Livermore.k16_monte_carlo in
  Alcotest.(check bool) "semantics preserved" true meas.Kernel.sem_ok;
  Alcotest.(check bool) "resources clean" true meas.Kernel.resource_ok;
  match
    List.filter_map (fun (lr : C.loop_report) -> lr.C.cert) meas.Kernel.loops
  with
  | [ C.Cert_improved { heur_ii; _ } ] ->
    let ii =
      List.find_map (fun (lr : C.loop_report) -> lr.C.ii) meas.Kernel.loops
    in
    Alcotest.(check bool) "adopted interval below heuristic" true
      (match ii with Some s -> s < heur_ii | None -> false)
  | _ -> Alcotest.fail "expected LFK16 to improve"

let test_unknown_under_tiny_fuel () =
  (* same kernel, starved certifier: the outcome degrades to Unknown
     with the infeasibility frontier recorded, never to an error *)
  let config = { C.default with C.certifier = Some (Certify.hook ~fuel:3 ()) } in
  match cert_of_config config Sp_kernels.Livermore.k16_monte_carlo with
  | [ C.Cert_unknown { proven_below; spent } ] ->
    Alcotest.(check bool) "frontier within scan range" true (proven_below >= 1);
    Alcotest.(check bool) "spent bounded by budget" true (spent <= 3)
  | _ -> Alcotest.fail "expected an unknown certificate under tiny fuel"

let test_infeasible_below_mii () =
  (* resource-bound case: three loads through one port cannot fit in
     s = 2, and the exact search proves it *)
  let open Sp_ir in
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let segs = Memseg.Supply.create () in
  let seg = Memseg.Supply.fresh segs ~name:"a" ~size:64 () in
  let iv = Vreg.Supply.fresh sup ~name:"i" Vreg.I in
  let mk off =
    Op.Supply.mk ops
      ~dst:(Vreg.Supply.fresh sup Vreg.F)
      ~addr:
        { Op.seg; base = None; idx = Some iv; off;
          sub = Some (Subscript.of_iv ~off iv) }
      Sp_machine.Opkind.Load
  in
  let units =
    Array.of_list
      (List.mapi
         (fun i op -> Sp_core.Sunit.of_op m ~sid:i op)
         [ mk 0; mk 1; mk 2 ])
  in
  let g = Ddg.build units in
  let analysis = Modsched.analyze ~s_max:10 g in
  let r =
    Exact.solve m g ~scc:analysis.Modsched.a_scc
      ~spaths:analysis.Modsched.a_spaths ~s:2
  in
  match r.Exact.verdict with
  | Exact.Infeasible -> ()
  | Exact.Feasible _ -> Alcotest.fail "three loads cannot share two slots"
  | Exact.Out_of_budget -> Alcotest.fail "unlimited fuel cannot run out"

let test_exact_counters () =
  (* the process-wide counters advance by exactly the returned stats on
     every exit; re-solving an interval with its own bank hits nogoods *)
  let counters =
    List.map
      (fun (name, f) -> (name, Sp_obs.Metrics.counter ("exact." ^ name), f))
      [ ("nodes_expanded", fun (st : Exact.stats) -> st.Exact.nodes);
        ("pruned", fun st -> st.Exact.pruned_window + st.Exact.pruned_resource);
        ("nogood_hits", fun st -> st.Exact.nogood_hits);
        ("backjumps", fun st -> st.Exact.backjumps) ]
  in
  let verdicts = ref [] and totals = Array.make (List.length counters) 0 in
  let solve ?fuel ~bank g (a : Modsched.analysis) ~s =
    let before =
      List.map (fun (_, c, _) -> Sp_obs.Metrics.counter_value c) counters
    in
    let r =
      Exact.solve ?fuel ~bank m g ~scc:a.Modsched.a_scc
        ~spaths:a.Modsched.a_spaths ~s
    in
    List.iteri
      (fun i ((name, c, f), b) ->
        let d = Sp_obs.Metrics.counter_value c - b in
        Alcotest.(check int) name (f r.Exact.stats) d;
        totals.(i) <- totals.(i) + d)
      (List.combine counters before);
    verdicts :=
      (match r.Exact.verdict with
      | Exact.Feasible _ -> "feasible"
      | Exact.Infeasible -> "infeasible"
      | Exact.Out_of_budget -> "out-of-budget")
      :: !verdicts
  in
  for seed = 1 to 40 do
    let _, g, a, mii, seq_len = setup seed 8 in
    match Modsched.schedule ~analysis:a m g ~mii ~max_ii:seq_len with
    | None -> ()
    | Some heur ->
      for s = max 1 (mii - 1) to heur.Modsched.s do
        let bank = Sp_opt.Nogood.create () in
        solve ~fuel:20_000 ~bank g a ~s;
        solve ~fuel:20_000 ~bank g a ~s;
        solve ~fuel:3 ~bank:(Sp_opt.Nogood.create ()) g a ~s
      done
  done;
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " solves ran") true (List.mem v !verdicts))
    [ "feasible"; "infeasible"; "out-of-budget" ];
  List.iteri
    (fun i (name, _, _) ->
      Alcotest.(check bool) (name ^ " advanced") true (totals.(i) > 0))
    counters

(* The portfolio replays only the committed member's recording, so a
   certified compile's trace records the same [exact.solve] instants at
   portfolio 4 as at portfolio 1, where member 0 runs alone. Before, the
   members on spawned domains wrote theirs straight into the shared
   buffer. *)
let test_portfolio_trace () =
  let solves portfolio (k : Kernel.t) =
    let config =
      {
        C.default with
        C.certifier = Some (Certify.hook ~fuel:200_000 ~portfolio ());
      }
    in
    let p = Kernel.program k in
    Sp_obs.Trace.enable ();
    Fun.protect ~finally:Sp_obs.Trace.disable @@ fun () ->
    let _, events =
      Sp_obs.Trace.collect (fun () -> C.program ~config m p)
    in
    List.filter_map
      (function
        | Sp_obs.Trace.Instant { name = "exact.solve" as name; args; _ } ->
          Some (name, args)
        | _ -> None)
      events
  in
  List.iter
    (fun (k : Kernel.t) ->
      let one = solves 1 k in
      Alcotest.(check bool) (k.Kernel.name ^ ": solves traced") true (one <> []);
      Alcotest.(check bool)
        (k.Kernel.name ^ ": portfolio 4 trace = portfolio 1 trace")
        true
        (solves 4 k = one))
    [ Sp_kernels.Livermore.k21_matmul; Sp_kernels.Livermore.k16_monte_carlo ]

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    qt prop_exact_between_bounds;
    qt prop_exact_complete;
    qt prop_certify_deterministic;
    qt prop_nogood_sound;
    qt prop_portfolio_deterministic;
    qt prop_carry_invariant;
    qt prop_certified_compile_equivalent;
    ("optimal certificate at the bound", `Quick, test_optimal_at_bound);
    ("LFK16 improves and stays correct", `Quick, test_improves_lfk16);
    ("unknown under tiny fuel", `Quick, test_unknown_under_tiny_fuel);
    ("exact infeasibility below mii", `Quick, test_infeasible_below_mii);
    ("exact counters advance by the solve's stats", `Quick,
     test_exact_counters);
    ("portfolio trace follows the committed member", `Quick,
     test_portfolio_trace);
  ]

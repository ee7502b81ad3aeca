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
  Alcotest.(check bool) "semantics preserved" true
    (match meas.Kernel.sim with
    | Ok s -> s.Sp_core.Report.sem_ok = Some true
    | Error _ -> false);
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
  (* under [Cost.collect], each solve adds exactly its returned stats to
     the cost counters [w2c --metrics] reads, on every exit; re-solving
     an interval with its own bank hits nogoods *)
  let module Cost = Sp_obs.Cost in
  let counters =
    [ (Cost.Exact_node, fun (st : Exact.stats) -> st.Exact.nodes);
      (Cost.Exact_prune_window, fun st -> st.Exact.pruned_window);
      (Cost.Exact_prune_resource, fun st -> st.Exact.pruned_resource);
      (Cost.Exact_nogood_hit, fun st -> st.Exact.nogood_hits);
      (Cost.Exact_backjump, fun st -> st.Exact.backjumps) ]
  in
  let verdicts = ref [] and totals = Array.make (List.length counters) 0 in
  Cost.enable ();
  Fun.protect ~finally:Cost.disable @@ fun () ->
  let solve ?fuel ~bank g (a : Modsched.analysis) ~s =
    let r, prof =
      Cost.collect (fun () ->
          Exact.solve ?fuel ~bank m g ~scc:a.Modsched.a_scc
            ~spaths:a.Modsched.a_spaths ~s)
    in
    let added = Cost.counter_totals prof in
    List.iteri
      (fun i (c, f) ->
        let d = List.assoc c added in
        Alcotest.(check int) (Cost.counter_name c) (f r.Exact.stats) d;
        totals.(i) <- totals.(i) + d)
      counters;
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
  (* nodes, prunes (either reason), nogood hits and backjumps all occur *)
  List.iter
    (fun (name, idx) ->
      Alcotest.(check bool) (name ^ " advanced") true
        (List.fold_left (fun acc i -> acc + totals.(i)) 0 idx > 0))
    [ ("nodes", [ 0 ]); ("pruned", [ 1; 2 ]); ("nogood hits", [ 3 ]);
      ("backjumps", [ 4 ]) ]

let population name =
  (List.find
     (fun (e : Sp_kernels.Suite.entry) ->
       e.Sp_kernels.Suite.kernel.Kernel.name = name)
     Sp_kernels.Suite.all)
    .Sp_kernels.Suite.kernel

(* The portfolio replays only the committed member's recording, so a
   certified compile's trace records the same [exact.solve] instants at
   portfolio 4 as at portfolio 1, where member 0 runs alone. Before, the
   members on spawned domains wrote theirs straight into the shared
   buffer. branch2.0's pipelined loop improves only through a search. *)
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
    [ population "branch2.0"; Sp_kernels.Livermore.k16_monte_carlo ]

(* The certifier is consulted only for a schedule the compiler would
   emit: one whose MVE plan passes the inner-loop, register and
   trip-count checks. Such a loop can end unpipelined only when the
   certifier replaced its schedule with an [Improved] one that fails
   them. Over the [certify] corpus, the Livermore kernels at 400k fuel
   and the population, every call is recorded with its loop, and every
   certified loop that does not pipeline must hold [Improved]. *)
let test_certify_only_emittable () =
  let calls = ref [] in
  let record (hook : C.certifier) : C.certifier =
   fun m g ~analysis ~mii heur ->
    let ((_, c) as r) = hook m g ~analysis ~mii heur in
    calls := (Sp_obs.Explain.current_loop (), c) :: !calls;
    r
  in
  let set name =
    match Compile_sets.find ~certifier:record name with
    | Some (progs, config, _) -> (progs, config)
    | None -> Alcotest.fail ("no compile set " ^ name)
  in
  let population_set =
    ( List.map
        (fun (e : Sp_kernels.Suite.entry) ->
          let k = e.Sp_kernels.Suite.kernel in
          (k.Kernel.name, Kernel.program k))
        Sp_kernels.Suite.all,
      { C.default with C.certifier = Some (record (Certify.hook ())) } )
  in
  let certified = ref 0 in
  List.iter
    (fun (progs, config) ->
      List.iter
        (fun (name, p) ->
          calls := [];
          let r = C.program ~config m p in
          Alcotest.(check int)
            (name ^ ": one call per certified loop")
            (List.length !calls)
            (List.length (List.sort_uniq compare (List.map fst !calls)));
          List.iter
            (fun (lr : C.loop_report) ->
              match List.assoc_opt lr.C.l_id !calls with
              | None -> ()
              | Some c ->
                incr certified;
                if lr.C.status <> C.Pipelined then
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "%s loop%d (%s) holds an improved certificate" name
                       lr.C.l_id (C.status_to_string lr.C.status))
                    true
                    (match c with C.Cert_improved _ -> true | _ -> false))
            r.C.loops)
        progs)
    [ set "certify"; set "livermore"; population_set ];
  Alcotest.(check bool) "loops were certified" true (!certified > 0)

(* Wgen 147's loop2 runs 4 times around an inner loop, and its heuristic
   schedule needs an unrolled kernel: the compiler keeps it serial, so
   the certifier never searches it, where a search would expand 398,609
   nodes to find a shorter interval. loop0 still certifies optimal. *)
let test_rejected_loop_unsearched () =
  let p =
    Sp_lang.Lower.compile_source
      (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed:147))
  in
  let config = { C.default with C.certifier = Some (Certify.hook ()) } in
  Sp_obs.Cost.enable ();
  Fun.protect ~finally:Sp_obs.Cost.disable @@ fun () ->
  let r, prof = Sp_obs.Cost.collect (fun () -> C.program ~config m p) in
  let report l =
    List.find (fun (lr : C.loop_report) -> lr.C.l_id = l) r.C.loops
  in
  Alcotest.(check string) "loop2 stays serial" "not-profitable"
    (C.status_to_string (report 2).C.status);
  Alcotest.(check int) "loop2 charges no exact node" 0
    (List.assoc Sp_obs.Cost.Exact_node
       (Sp_obs.Cost.loop_counters prof ~loop:2));
  Alcotest.(check bool) "loop0 certified optimal" true
    (match (report 0).C.cert with Some (C.Cert_optimal _) -> true | _ -> false)

(* The search trajectory, pinned: per program, the MD5 of every
   [Exact_probe] record (interval, verdict, fuel, nodes, both prune
   counts, nogood hits, backjumps, learned, reused) of a certified
   compile. It covers the [certify] benchmark corpus and the population
   at default fuel, and the Livermore kernels at the 400k fuel of the
   [livermore] workload. A change to the search's data structures must
   leave every line as it is. *)
let test_exact_probe_golden () =
  let b = Buffer.create 16384 in
  let add label ?fuel p =
    let config = { C.default with C.certifier = Some (Certify.hook ?fuel ()) } in
    Sp_obs.Explain.enable ();
    let _, events =
      Fun.protect ~finally:Sp_obs.Explain.disable (fun () ->
          Sp_obs.Explain.collect (fun () -> C.program ~config m p))
    in
    let probes = Buffer.create 256 in
    List.iter
      (function
        | _, Sp_obs.Explain.Exact_probe r ->
          Printf.bprintf probes "%d %s %d %d %d %d %d %d %d %d\n" r.s r.verdict
            r.spent r.nodes r.pruned_window r.pruned_resource r.nogood_hits
            r.backjumps r.learned r.reused
        | _ -> ())
      events;
    Printf.bprintf b "%s %s\n" label
      (Digest.to_hex (Digest.string (Buffer.contents probes)))
  in
  for seed = 1 to 240 do
    if not (List.mem seed [ 45; 87; 115; 116 ]) then
      add (Printf.sprintf "wgen/%d" seed)
        (Sp_lang.Lower.compile_source
           (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed)))
  done;
  List.iter
    (fun (e : Sp_kernels.Suite.entry) ->
      let k = e.Sp_kernels.Suite.kernel in
      add ("pop/" ^ k.Kernel.name) (Kernel.program k))
    Sp_kernels.Suite.all;
  List.iter
    (fun (k : Kernel.t) ->
      add ("lfk/" ^ k.Kernel.name) ~fuel:400_000 (Kernel.program k))
    Sp_kernels.Livermore.all;
  Golden.check "golden/exact_probe_md5.golden" (Buffer.contents b)

(* ---- the nogood bank's consultation index --------------------------- *)

module Nogood = Sp_opt.Nogood

(* What [consult] must return, read off the bank itself: the newest
   nogood whose deepest literal under [depth] is [(var, res)] and whose
   other literals all match [assigned]. *)
let reference_consult bank ~depth ~var ~res ~assigned =
  List.find_opt
    (fun (ng : Nogood.nogood) ->
      let deepest =
        Array.fold_left
          (fun (b : Nogood.lit) (l : Nogood.lit) ->
            if depth.(l.Nogood.var) > depth.(b.Nogood.var) then l else b)
          ng.Nogood.lits.(0) ng.Nogood.lits
      in
      deepest.Nogood.var = var && deepest.Nogood.res = res
      && Array.for_all
           (fun (l : Nogood.lit) ->
             l.Nogood.var = var || assigned.(l.Nogood.var) = l.Nogood.res)
           ng.Nogood.lits)
    (Nogood.entries bank)

(* A nogood over the variables of [vars] (distinct), each at the
   residue [res_of] gives it, certified either as derived, which no
   carry keeps, or as a cycle of positive weight at any interval, which
   every carry keeps. *)
let make_nogood st vars res_of =
  let vars = List.sort Int.compare vars in
  let lits =
    Array.of_list (List.map (fun var -> { Nogood.var; res = res_of var }) vars)
  in
  let v0 = List.hd vars in
  let cert =
    if Random.State.bool st then Nogood.C_derived
    else Nogood.C_cycle { edges = [ (v0, v0, 1000, 0) ] }
  in
  { Nogood.lits; cert }

(* A nogood over 1–4 distinct variables of [n], residues up to [s + 1]
   (so some lie outside [0, s)). *)
let random_nogood st ~n ~s =
  make_nogood st
    (List.sort_uniq Int.compare
       (List.init (1 + Random.State.int st (min n 4)) (fun _ ->
            Random.State.int st n)))
    (fun _ -> Random.State.int st (s + 2))

(* A nogood whose literals on placed variables all hold, as the search
   learns them: some of the [placed] variables at their residues, plus,
   half the time or when none is picked, [next] at a random residue. *)
let held_nogood st ~placed ~next ~assigned ~s =
  let vars = List.filter (fun _ -> Random.State.bool st) placed in
  let vars =
    if vars = [] || (next >= 0 && Random.State.bool st) then
      if next >= 0 then next :: vars else placed
    else vars
  in
  make_nogood st vars (fun v ->
      if v = next then Random.State.int st s else assigned.(v))

let random_depth st n =
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let depth = Array.make n 0 in
  Array.iteri (fun p v -> depth.(v) <- p) order;
  depth

let prop_consult_is_a_scan =
  QCheck2.Test.make ~name:"consult returns the reference scan's nogood"
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let* s = int_range 1 5 in
      let* grow = int_range 1 3 in
      let* seed = int_bound 1_000_000 in
      return (n, s, grow, seed))
    (fun (n, s, grow, seed) ->
      let st = Random.State.make [| seed |] in
      let bank = Nogood.create () in
      let add k =
        for _ = 1 to k do
          ignore (Nogood.add bank (random_nogood st ~n ~s))
        done
      in
      (* A random chronological walk at [s] under a random order:
         place down the order at random residues, unplace back to
         random levels, add nogoods on the way; at every step each
         (var, res) of the next unplaced variable must get the
         reference scan's nogood. *)
      let walk ~s =
        let depth = random_depth st n in
        let order = Array.make n 0 in
        Array.iteri (fun v p -> order.(p) <- v) depth;
        let assigned = Array.make n (-1) in
        Nogood.reindex bank ~depth ~s ~assigned;
        let placed = ref 0 in
        let agrees () =
          !placed = n
          ||
          let var = order.(!placed) in
          List.for_all
            (fun res ->
              match
                ( Nogood.consult bank ~var ~res,
                  reference_consult bank ~depth ~var ~res ~assigned )
              with
              | None, None -> true
              | Some a, Some b -> a == b
              | _ -> false)
            (List.init s Fun.id)
        in
        let ok = ref (agrees ()) in
        for _ = 1 to 4 * n do
          (match Random.State.int st 6 with
          | 0 -> add (1 + Random.State.int st 3)
          | 1 ->
            ignore
              (Nogood.add bank
                 (held_nogood st
                    ~placed:(List.init !placed (fun p -> order.(p)))
                    ~next:(if !placed < n then order.(!placed) else -1)
                    ~assigned ~s))
          | 2 ->
            let level = Random.State.int st (!placed + 1) in
            while !placed > level do
              decr placed;
              let v = order.(!placed) in
              Nogood.unassign bank v;
              assigned.(v) <- -1
            done
          | _ ->
            if !placed < n then begin
              let v = order.(!placed) in
              assigned.(v) <- Random.State.int st s;
              Nogood.assign bank v;
              incr placed
            end);
          ok := !ok && agrees ()
        done;
        !ok
      in
      add (Random.State.int st 30);
      let at_s = walk ~s in
      let ctx =
        { Nogood.units = [||]; limit = (fun _ -> 0);
          window = (fun ~u:_ ~v:_ -> None) }
      in
      let s' = s + grow in
      ignore (Nogood.carry bank ctx ~s:s');
      let cleared =
        List.for_all
          (fun var ->
            List.for_all
              (fun res -> Nogood.consult bank ~var ~res = None)
              (List.init s' Fun.id))
          (List.init n Fun.id)
      in
      at_s && cleared && walk ~s:s')

let test_consult_allocation () =
  let lit var res = { Nogood.var; res } in
  let bank = Nogood.create () in
  let derived lits = { Nogood.lits; cert = Nogood.C_derived } in
  let first = derived [| lit 0 0; lit 2 1 |] in
  List.iter
    (fun ng -> ignore (Nogood.add bank ng))
    [ first; derived [| lit 1 1; lit 2 1 |];
      derived [| lit 0 1; lit 1 0; lit 2 1 |] ];
  let assigned = Array.make 3 (-1) in
  Nogood.reindex bank ~depth:[| 0; 1; 2 |] ~s:3 ~assigned;
  let place v r =
    assigned.(v) <- r;
    Nogood.assign bank v
  and unplace v =
    Nogood.unassign bank v;
    assigned.(v) <- -1
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = words (fun () -> ()) in
  let consults ~var ~res () =
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (Nogood.consult bank ~var ~res))
    done
  in
  (* 0 at 2, 1 at 2: no nogood keyed (2, 1) fires *)
  place 0 2;
  place 1 2;
  Alcotest.(check bool) "the index misses" true
    (Nogood.consult bank ~var:2 ~res:1 = None);
  Alcotest.(check (float 0.)) "10,000 missing consults allocate nothing" 0.
    (words (consults ~var:2 ~res:1) -. base);
  Alcotest.(check (float 0.)) "10,000 empty slots allocate nothing" 0.
    (words (consults ~var:1 ~res:2) -. base);
  (* back to the root, then 0 at 0, 1 at 2: the oldest nogood fires *)
  let replace () =
    unplace 1;
    unplace 0;
    place 0 0;
    place 1 2
  in
  replace ();
  Alcotest.(check bool) "the oldest entry of the slot fires" true
    (match Nogood.consult bank ~var:2 ~res:1 with
    | Some ng -> ng == first
    | None -> false);
  Alcotest.(check (float 0.)) "10,000 hits allocate nothing" 0.
    (words (consults ~var:2 ~res:1) -. base);
  Alcotest.(check (float 0.)) "10,000 rounds of placements allocate nothing"
    0.
    (words (fun () ->
         for _ = 1 to 10_000 do
           replace ()
         done)
    -. base)

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
    ("exact probe golden", `Quick, test_exact_probe_golden);
    qt prop_consult_is_a_scan;
    ("consult allocates nothing on a miss", `Quick, test_consult_allocation);
    ("only emittable schedules are certified", `Quick,
     test_certify_only_emittable);
    ("a rejected loop gets no search", `Quick, test_rejected_loop_unsearched);
  ]

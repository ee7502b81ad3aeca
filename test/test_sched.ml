(** Tests for the scheduling substrates: strongly connected components,
    symbolic longest paths, reservation tables, list scheduling. *)

module Scc = Sp_core.Scc
module Spath = Sp_core.Spath
module Mrt = Sp_core.Mrt
module Listsched = Sp_core.Listsched
module Ddg = Sp_core.Ddg
module Sunit = Sp_core.Sunit
open Sp_ir

(* ---- SCC ------------------------------------------------------------ *)

let scc_of_edges n edges =
  let succs v = List.filter_map (fun (a, b) -> if a = v then Some b else None) edges in
  Scc.compute ~n ~succs

let test_scc_basic () =
  (* 0 -> 1 -> 2 -> 1, 2 -> 3 : components {0} {1,2} {3} *)
  let scc = scc_of_edges 4 [ (0, 1); (1, 2); (2, 1); (2, 3) ] in
  Alcotest.(check int) "three components" 3 (Scc.num_components scc);
  Alcotest.(check bool) "1 and 2 together" true
    (scc.Scc.comp_of.(1) = scc.Scc.comp_of.(2));
  Alcotest.(check bool) "0 separate" true
    (scc.Scc.comp_of.(0) <> scc.Scc.comp_of.(1));
  Alcotest.(check bool) "{1,2} nontrivial" true
    scc.Scc.nontrivial.(scc.Scc.comp_of.(1));
  Alcotest.(check bool) "{0} trivial" false
    scc.Scc.nontrivial.(scc.Scc.comp_of.(0))

let test_scc_self_loop () =
  let scc = scc_of_edges 2 [ (0, 0) ] in
  Alcotest.(check bool) "self loop nontrivial" true
    scc.Scc.nontrivial.(scc.Scc.comp_of.(0));
  Alcotest.(check bool) "no self loop trivial" false
    scc.Scc.nontrivial.(scc.Scc.comp_of.(1))

let test_scc_topo_order () =
  let scc = scc_of_edges 4 [ (0, 1); (1, 2); (2, 1); (2, 3) ] in
  let order = Scc.topo_components scc in
  let pos c = Option.get (List.find_index (fun x -> x = c) order) in
  Alcotest.(check bool) "0 before {1,2}" true
    (pos scc.Scc.comp_of.(0) < pos scc.Scc.comp_of.(1));
  Alcotest.(check bool) "{1,2} before 3" true
    (pos scc.Scc.comp_of.(1) < pos scc.Scc.comp_of.(3))

(* random-graph property: mutual reachability = same component *)
let graph_gen =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* edges = list_size (int_bound 20) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    return (n, edges))

let reachable n edges =
  let r = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    r.(i).(i) <- true
  done;
  List.iter (fun (a, b) -> r.(a).(b) <- true) edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if r.(i).(k) && r.(k).(j) then r.(i).(j) <- true
      done
    done
  done;
  r

let prop_scc =
  QCheck2.Test.make ~name:"scc = mutual reachability" ~count:300 graph_gen
    (fun (n, edges) ->
      let scc = scc_of_edges n edges in
      let r = reachable n edges in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let same = scc.Scc.comp_of.(i) = scc.Scc.comp_of.(j) in
          let mutual = r.(i).(j) && r.(j).(i) in
          if same <> mutual then ok := false
        done
      done;
      !ok)

(* ---- Spath ----------------------------------------------------------- *)

(* brute force: longest constraint over all paths up to a length bound *)
let brute_query ~n ~edges ~s i j =
  let best = ref None in
  let rec go v acc len =
    if v = j && len > 0 then
      best :=
        Some (match !best with None -> acc | Some b -> max b acc);
    if len < 2 * n then
      List.iter
        (fun (a, b, d, w) -> if a = v then go b (acc + d - (s * w)) (len + 1))
        edges
  in
  go i 0 0;
  !best

let sedge_gen ~n =
  QCheck2.Gen.(
    let* src = int_bound (n - 1) in
    let* dst = int_bound (n - 1) in
    let* d = int_range (-3) 8 in
    let* w = int_bound 2 in
    return (src, dst, d, w))

let sgraph_gen =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let* edges = list_size (int_range 1 8) (sedge_gen ~n) in
    return (n, edges))

(* [Spath.query] with its no-path value as [None] *)
let query sp ~s i j =
  let d = Spath.query sp ~s i j in
  if d = Spath.no_path then None else Some d

let prop_spath_matches_bruteforce =
  QCheck2.Test.make ~name:"spath query = brute force (at s >= rec bound)"
    ~count:300 sgraph_gen (fun (n, edges) ->
      let s_max = 40 in
      let rec_b = Spath.rec_mii_bound ~n ~edges ~s_max in
      if rec_b > s_max then true (* out of range: nothing to check *)
      else begin
        let sp = Spath.compute ~n ~edges ~s_min:rec_b ~s_max in
        (* at s >= rec bound all cycles are <= 0, so path sups are
           finite and attained within bounded length *)
        List.for_all
          (fun s ->
            let ok = ref true in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                let q = query sp ~s i j in
                let b = brute_query ~n ~edges ~s i j in
                match (q, b) with
                | None, None -> ()
                | Some a, Some b -> if a < b then ok := false
                (* [query] may know longer paths than the brute-force
                   length bound explores, so only >= is required;
                   equality is checked via the constraint use below *)
                | None, Some _ -> ok := false
                | Some _, None -> ok := false
              done
            done;
            !ok)
          [ rec_b; min s_max (rec_b + 3) ]
      end)

let prop_rec_mii_is_threshold =
  QCheck2.Test.make ~name:"rec_mii_bound is the positivity threshold"
    ~count:300 sgraph_gen (fun (n, edges) ->
      let s_max = 40 in
      let b = Spath.rec_mii_bound ~n ~edges ~s_max in
      if b > s_max then Spath.has_positive_cycle ~n ~edges ~s:(s_max + 1)
      else
        (not (Spath.has_positive_cycle ~n ~edges ~s:b))
        && (b = 1 || Spath.has_positive_cycle ~n ~edges ~s:(b - 1)))

let test_spath_simple_cycle () =
  (* u -> v (d 7), v -> u (d 1, omega 1): RecMII = 8 *)
  let edges = [ (0, 1, 7, 0); (1, 0, 1, 1) ] in
  Alcotest.(check int) "recurrence bound" 8
    (Spath.rec_mii_bound ~n:2 ~edges ~s_max:100);
  let sp = Spath.compute ~n:2 ~edges ~s_min:8 ~s_max:100 in
  Alcotest.(check (option int)) "path 0->1 at s=8" (Some 7)
    (query sp ~s:8 0 1);
  Alcotest.(check (option int)) "cycle at s=8" (Some 0)
    (query sp ~s:8 0 0)

(* ---- Mrt -------------------------------------------------------------- *)

let test_modulo_table () =
  let m = Sp_machine.Machine.warp in
  let t = Mrt.Modulo.create m ~s:3 in
  let fadd = (Sp_machine.Machine.find_resource m "fadd").Sp_machine.Machine.rid in
  let resv = [ (0, fadd) ] in
  Alcotest.(check bool) "fits empty" true (Mrt.Modulo.fits t ~at:0 resv);
  Mrt.Modulo.add t ~at:0 resv;
  Alcotest.(check bool) "slot 0 full" false (Mrt.Modulo.fits t ~at:0 resv);
  Alcotest.(check bool) "slot 3 = slot 0 (mod)" false
    (Mrt.Modulo.fits t ~at:3 resv);
  Alcotest.(check bool) "slot 1 free" true (Mrt.Modulo.fits t ~at:1 resv);
  Mrt.Modulo.remove t ~at:0 resv;
  Alcotest.(check bool) "freed" true (Mrt.Modulo.fits t ~at:3 resv);
  (* multi-use within one reservation at congruent offsets *)
  let double = [ (0, fadd); (3, fadd) ] in
  Alcotest.(check bool) "double-booking detected" false
    (Mrt.Modulo.fits t ~at:0 double)

let test_linear_table () =
  let m = Sp_machine.Machine.warp in
  let t = Mrt.Linear.create m in
  let mem = (Sp_machine.Machine.find_resource m "mem").Sp_machine.Machine.rid in
  let resv = [ (0, mem) ] in
  Mrt.Linear.add t ~at:5 resv;
  Alcotest.(check bool) "occupied" false (Mrt.Linear.fits t ~at:5 resv);
  Alcotest.(check bool) "free elsewhere" true (Mrt.Linear.fits t ~at:6 resv);
  (* grows on demand *)
  Alcotest.(check bool) "far future" true (Mrt.Linear.fits t ~at:5000 resv)

let test_linear_growth_boundary () =
  let m = Sp_machine.Machine.warp in
  let t = Mrt.Linear.create m in
  let mem = (Sp_machine.Machine.find_resource m "mem").Sp_machine.Machine.rid in
  let resv = [ (0, mem) ] in
  (* fill every slot straight across the initial 16-slot capacity:
     occupancy (counters and bitword rows alike) must survive the
     amortized-doubling regrowth *)
  for at = 0 to 40 do
    Mrt.Linear.add t ~at resv
  done;
  for at = 0 to 40 do
    Alcotest.(check bool)
      (Printf.sprintf "slot %d occupied after growth" at)
      false
      (Mrt.Linear.fits t ~at resv)
  done;
  Alcotest.(check bool) "first free slot past the filled range" true
    (Mrt.Linear.fits t ~at:41 resv);
  (* a distant placement forces a second, larger regrowth *)
  Mrt.Linear.add t ~at:1000 resv;
  Alcotest.(check bool) "distant slot occupied" false
    (Mrt.Linear.fits t ~at:1000 resv);
  Alcotest.(check bool) "old-boundary slot still occupied" false
    (Mrt.Linear.fits t ~at:16 resv);
  Alcotest.(check bool) "gap stays free" true (Mrt.Linear.fits t ~at:999 resv)

(* ---- Listsched -------------------------------------------------------- *)

let test_compact_respects_dependences () =
  let m = Sp_machine.Machine.warp in
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let a = Vreg.Supply.fresh sup Vreg.F and b = Vreg.Supply.fresh sup Vreg.F in
  let c = Vreg.Supply.fresh sup Vreg.F and d = Vreg.Supply.fresh sup Vreg.F in
  let o1 = Op.Supply.mk ops ~dst:c ~srcs:[ a; b ] Sp_machine.Opkind.Fmul in
  let o2 = Op.Supply.mk ops ~dst:d ~srcs:[ c; b ] Sp_machine.Opkind.Fadd in
  let units =
    Array.of_list
      (List.mapi (fun i op -> Sunit.of_op m ~sid:i op) [ o1; o2 ])
  in
  let g = Ddg.build units in
  let p = Listsched.compact m g in
  Alcotest.(check int) "producer first" 0 p.Listsched.times.(0);
  Alcotest.(check int) "consumer waits out the latency" 7
    p.Listsched.times.(1);
  Alcotest.(check int) "length" 8 p.Listsched.len

let test_compact_resource_serialization () =
  (* two independent loads on a single memory port end up in different
     cycles *)
  let m = Sp_machine.Machine.warp in
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let segs = Memseg.Supply.create () in
  let seg = Memseg.Supply.fresh segs ~name:"a" ~size:8 () in
  let mk_load off =
    Op.Supply.mk ops
      ~dst:(Vreg.Supply.fresh sup Vreg.F)
      ~addr:{ Op.seg; base = None; idx = None; off; sub = Some (Subscript.constant off) }
      Sp_machine.Opkind.Load
  in
  let units =
    Array.of_list
      (List.mapi (fun i op -> Sunit.of_op m ~sid:i op) [ mk_load 0; mk_load 1 ])
  in
  let g = Ddg.build units in
  let p = Listsched.compact m g in
  Alcotest.(check bool) "different cycles" true
    (p.Listsched.times.(0) <> p.Listsched.times.(1))

let test_restart_interval () =
  (* accumulator: restart >= latency even if the block is shorter *)
  let m = Sp_machine.Machine.warp in
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let acc = Vreg.Supply.fresh sup Vreg.F in
  let x = Vreg.Supply.fresh sup Vreg.F in
  let add = Op.Supply.mk ops ~dst:acc ~srcs:[ acc; x ] Sp_machine.Opkind.Fadd in
  let units = [| Sunit.of_op m ~sid:0 add |] in
  let g = Ddg.build units in
  let p = Listsched.compact m g in
  Alcotest.(check int) "block length 1" 1 p.Listsched.len;
  Alcotest.(check int) "restart covers the carried latency" 7
    (Listsched.restart_interval g p)

let prop_spath_query_antitone =
  (* with non-negative iteration differences, the binding constraint
     only relaxes as the interval grows *)
  QCheck2.Test.make ~name:"spath query is antitone in s" ~count:200
    sgraph_gen (fun (n, edges) ->
      let s_max = 30 in
      let rec_b = Spath.rec_mii_bound ~n ~edges ~s_max in
      if rec_b > s_max - 1 then true
      else begin
        let sp = Spath.compute ~n ~edges ~s_min:rec_b ~s_max in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            for s = rec_b to s_max - 1 do
              match (query sp ~s i j, query sp ~s:(s + 1) i j) with
              | Some a, Some b -> if b > a then ok := false
              | None, None -> ()
              | _ -> ok := false
            done
          done
        done;
        !ok
      end)

let prop_mrt_add_remove =
  QCheck2.Test.make ~name:"modulo table add/remove cancel" ~count:200
    QCheck2.Gen.(
      let* s = int_range 1 8 in
      let* places = list_size (int_range 1 10) (int_bound 40) in
      return (s, places))
    (fun (s, places) ->
      let m = Sp_machine.Machine.warp in
      let t = Mrt.Modulo.create m ~s in
      let fadd =
        (Sp_machine.Machine.find_resource m "fadd").Sp_machine.Machine.rid
      in
      let resv = [ (0, fadd) ] in
      (* record which placements succeeded, then undo them all *)
      let done_ = List.filter (fun at ->
          if Mrt.Modulo.fits t ~at resv then (Mrt.Modulo.add t ~at resv; true)
          else false)
          places
      in
      List.iter (fun at -> Mrt.Modulo.remove t ~at resv) done_;
      (* empty again: every slot accepts a placement *)
      List.for_all
        (fun at -> Mrt.Modulo.fits t ~at resv)
        (List.init s (fun k -> k)))

let prop_mrt_conflict_accounting =
  (* per-resource conflict counters charge exactly one conflict per
     failed probe — the attribution the decision log and the --render
     occupancy grids rely on *)
  QCheck2.Test.make ~name:"conflict counters sum to failed probes" ~count:300
    QCheck2.Gen.(
      let m = Sp_machine.Machine.warp in
      let nres = Sp_machine.Machine.num_resources m in
      let* s = int_range 1 6 in
      let* acts =
        list_size (int_range 1 40)
          (pair (int_bound 11)
             (list_size (int_range 1 4) (pair (int_bound 6) (int_bound (nres - 1)))))
      in
      return (s, acts))
    (fun (s, acts) ->
      let m = Sp_machine.Machine.warp in
      let run fits add conflicts last_conflict =
        let failed = ref 0 in
        List.iter
          (fun (at, resv) -> if fits ~at resv then add ~at resv else incr failed)
          acts;
        Array.fold_left ( + ) 0 (conflicts ()) = !failed
        && (!failed > 0) = (last_conflict () <> None)
      in
      let mt = Mrt.Modulo.create m ~s in
      let lt = Mrt.Linear.create m in
      run (Mrt.Modulo.fits mt) (Mrt.Modulo.add mt)
        (fun () -> Mrt.Modulo.conflicts mt)
        (fun () -> Mrt.Modulo.last_conflict mt)
      && run (Mrt.Linear.fits lt) (Mrt.Linear.add lt)
           (fun () -> Mrt.Linear.conflicts lt)
           (fun () -> Mrt.Linear.last_conflict lt))

let prop_earliest_matches_scan =
  (* [Linear.earliest] jumps over origins that provably fail; it must
     agree with the one-slot loop over [fits] on the slot, the conflict
     it leaves and the probes it charges — on tables with demand over
     limit, reservations with repeated entries (failures the
     reservation causes itself) and negative offsets *)
  let m = Sp_machine.Machine.warp_scaled ~width:2 in
  let nres = Sp_machine.Machine.num_resources m in
  let count rid = (Sp_machine.Machine.resource m rid).Sp_machine.Machine.count in
  let entry = QCheck2.Gen.(pair (int_range (-3) 5) (int_bound (nres - 1))) in
  (* a reservation that fits somewhere: no (offset, resource) entry
     repeated more often than the resource has units *)
  let feasible resv =
    List.filteri
      (fun k (e : int * int) ->
        let before = List.filteri (fun k' e' -> k' < k && e' = e) resv in
        List.length before < count (snd e))
      resv
  in
  QCheck2.Test.make ~name:"earliest equals the one-slot scan" ~count:500
    QCheck2.Gen.(
      let* adds =
        list_size (int_range 0 60)
          (pair (int_range 3 40) (list_size (int_range 1 3) entry))
      in
      let* resv = list_size (int_range 1 5) entry in
      let* repeat = int_bound 2 in
      let resv = List.concat (List.init (repeat + 1) (fun _ -> resv)) in
      let* est = int_bound 45 in
      return (adds, feasible resv, est))
    (fun (adds, resv, est) ->
      let table () =
        let t = Mrt.Linear.create m in
        List.iter (fun (at, r) -> Mrt.Linear.add t ~at r) adds;
        t
      in
      let probes f =
        Sp_obs.Cost.enable ();
        Fun.protect ~finally:Sp_obs.Cost.disable (fun () ->
            let r, prof = Sp_obs.Cost.collect f in
            ( r,
              List.assoc Sp_obs.Cost.Mrt_probe
                (Sp_obs.Cost.counter_totals prof) ))
      in
      let scan_t = table () and jump_t = table () in
      let scanned =
        probes (fun () ->
            let t = ref est in
            while not (Mrt.Linear.fits scan_t ~at:!t resv) do
              incr t
            done;
            (!t, Mrt.Linear.last_conflict scan_t))
      in
      let jumped =
        probes (fun () ->
            let t = Mrt.Linear.earliest jump_t ~est resv in
            (t, Mrt.Linear.last_conflict jump_t))
      in
      scanned = jumped)

(* A probe that fits and one that fails, on both tables, and a search
   that stalls past several occupied slots, allocate nothing. *)
let test_probes_allocate_nothing () =
  let m = Sp_machine.Machine.warp in
  let rid name = (Sp_machine.Machine.find_resource m name).Sp_machine.Machine.rid in
  let resv = [ (0, rid "fadd"); (1, rid "mem"); (-1, rid "agu") ] in
  let mt = Mrt.Modulo.create m ~s:4 in
  Mrt.Modulo.add mt ~at:0 resv;
  let lt = Mrt.Linear.create m in
  for at = 1 to 8 do
    Mrt.Linear.add lt ~at resv
  done;
  (* grow the table past every slot probed below *)
  Alcotest.(check bool) "far slot fits" true (Mrt.Linear.fits lt ~at:60 resv);
  let none label expect f =
    Alcotest.(check bool) label expect (f ());
    Alcotest.(check (float 0.)) (label ^ ": minor words") 0.
      (Alloc.minor_words f)
  in
  none "modulo fits" true (fun () -> Mrt.Modulo.fits mt ~at:1 resv);
  none "modulo fails" false (fun () -> Mrt.Modulo.fits mt ~at:4 resv);
  none "linear fits" true (fun () -> Mrt.Linear.fits lt ~at:20 resv);
  none "linear fails" false (fun () -> Mrt.Linear.fits lt ~at:3 resv);
  none "earliest stalls to slot 9" true (fun () ->
      Mrt.Linear.earliest lt ~est:1 resv = 9)

let prop_compact_valid =
  (* list scheduling respects every intra-iteration constraint and the
     resource limits, for arbitrary op soups *)
  QCheck2.Test.make ~name:"compaction satisfies constraints" ~count:200
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 12))
    (fun (seed, k) ->
      let m = Sp_machine.Machine.warp in
      let units = Test_modsched.random_units seed k in
      let g = Ddg.build units in
      let p = Listsched.compact m g in
      List.for_all
        (fun (e : Ddg.edge) ->
          e.Ddg.omega > 0
          || p.Listsched.times.(e.Ddg.dst) - p.Listsched.times.(e.Ddg.src)
             >= e.Ddg.delay)
        g.Ddg.edges
      &&
      (* resources: rebuild a linear usage table *)
      let usage = Hashtbl.create 64 in
      Array.for_all2
        (fun (u : Sunit.t) t ->
          List.for_all
            (fun (off, rid) ->
              let key = (t + off, rid) in
              let c = 1 + Option.value ~default:0 (Hashtbl.find_opt usage key) in
              Hashtbl.replace usage key c;
              c <= (Sp_machine.Machine.resource m rid).Sp_machine.Machine.count)
            u.Sunit.resv)
        g.Ddg.units p.Listsched.times)

(* What list scheduling returns and charges on one graph: the
   placement, the restart interval, and its ready-heap operations and
   reservation probes. *)
let compaction_outcome (g : Ddg.t) =
  let p, cost =
    Sp_obs.Cost.collect (fun () -> Listsched.compact Sp_machine.Machine.warp g)
  in
  let counts = Sp_obs.Cost.counter_totals cost in
  ( (p.Listsched.times, p.Listsched.len, Listsched.restart_interval g p),
    ( List.assoc Sp_obs.Cost.Heap_op counts,
      List.assoc Sp_obs.Cost.Mrt_probe counts ) )

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let prop_compact_order_free =
  (* only the modulo scheduler reads the edge order: list scheduling's
     graphs are left in emission order, so permuting [edges], [succs]
     and [preds] of every graph a compile list-schedules must change
     nothing compaction returns or counts *)
  let graphs k =
    let gs = Lazy.force Corpus.compaction_graphs in
    gs.(k mod Array.length gs)
  in
  QCheck2.Test.make ~name:"compaction ignores edge order" ~count:200
    ~print:(fun (k, seed) -> Printf.sprintf "%s, seed %d" (fst (graphs k)) seed)
    QCheck2.Gen.(pair (int_bound 100_000) (int_bound 1_000_000))
    (fun (k, seed) ->
      let rng = Random.State.make [| seed |] in
      let permuted (g : Ddg.t) =
        { g with
          Ddg.edges = shuffle rng g.Ddg.edges;
          succs = Array.map (shuffle rng) g.Ddg.succs;
          preds = Array.map (shuffle rng) g.Ddg.preds }
      in
      Sp_obs.Cost.enable ();
      Fun.protect ~finally:Sp_obs.Cost.disable @@ fun () ->
      List.for_all
        (fun g -> compaction_outcome g = compaction_outcome (permuted g))
        (snd (graphs k)))

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ("scc basics", `Quick, test_scc_basic);
    ("scc self loop", `Quick, test_scc_self_loop);
    ("scc topological order", `Quick, test_scc_topo_order);
    qt prop_scc;
    ("spath simple cycle", `Quick, test_spath_simple_cycle);
    qt prop_spath_matches_bruteforce;
    qt prop_rec_mii_is_threshold;
    qt prop_spath_query_antitone;
    qt prop_mrt_add_remove;
    qt prop_mrt_conflict_accounting;
    qt prop_compact_valid;
    qt prop_compact_order_free;
    qt prop_earliest_matches_scan;
    ("reservation probes allocate nothing", `Quick, test_probes_allocate_nothing);
    ("modulo reservation table", `Quick, test_modulo_table);
    ("linear reservation table", `Quick, test_linear_table);
    ("linear table growth boundary", `Quick, test_linear_growth_boundary);
    ("compact: dependences", `Quick, test_compact_respects_dependences);
    ("compact: resources", `Quick, test_compact_resource_serialization);
    ("restart interval", `Quick, test_restart_interval);
  ]

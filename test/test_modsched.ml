(** Property tests for the modulo scheduler: every schedule it produces
    satisfies all dependence constraints and the modulo resource
    reservation discipline, at an interval no smaller than the bounds. *)

open Sp_ir
module Opkind = Sp_machine.Opkind
module Ddg = Sp_core.Ddg
module Sunit = Sp_core.Sunit
module Modsched = Sp_core.Modsched
module Mii = Sp_core.Mii
module Listsched = Sp_core.Listsched
module Mrt = Sp_core.Mrt

let m = Sp_machine.Machine.warp

(* ---- random loop bodies as raw unit arrays -------------------------- *)

type rng = { mutable s : int }

let next rng n =
  rng.s <- ((rng.s * 1103515245) + 12345) land 0x3FFFFFFF;
  rng.s mod n

let random_units seed k : Sunit.t array =
  let rng = { s = seed + 17 } in
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let segs = Memseg.Supply.create () in
  let seg = Memseg.Supply.fresh segs ~name:"a" ~size:64 () in
  let iv = Vreg.Supply.fresh sup ~name:"i" Vreg.I in
  let il = Vreg.Supply.fresh sup ~name:"i'" Vreg.I in
  let regs = ref [ Vreg.Supply.fresh sup Vreg.F; Vreg.Supply.fresh sup Vreg.F ] in
  let pick () = List.nth !regs (next rng (List.length !regs)) in
  let fresh () =
    let r = Vreg.Supply.fresh sup Vreg.F in
    regs := r :: !regs;
    r
  in
  let mk_op () =
    match next rng 6 with
    | 0 | 1 ->
      Op.Supply.mk ops ~dst:(fresh ()) ~srcs:[ pick (); pick () ] Opkind.Fadd
    | 2 ->
      Op.Supply.mk ops ~dst:(fresh ()) ~srcs:[ pick (); pick () ] Opkind.Fmul
    | 3 ->
      let off = next rng 8 in
      Op.Supply.mk ops ~dst:(fresh ())
        ~addr:
          { Op.seg; base = None; idx = Some il; off;
            sub = Some (Subscript.of_iv ~off il) }
        Opkind.Load
    | 4 ->
      let off = next rng 8 in
      Op.Supply.mk ops ~srcs:[ pick () ]
        ~addr:
          { Op.seg; base = None; idx = Some il; off;
            sub = Some (Subscript.of_iv ~off il) }
        Opkind.Store
    | _ ->
      (* accumulator step: a carried dependence *)
      let a = pick () in
      Op.Supply.mk ops ~dst:a ~srcs:[ a; pick () ] Opkind.Fadd
  in
  let body = List.init k (fun _ -> mk_op ()) in
  (* the synthesized counter copy and update, as the compiler adds them *)
  let copy = Op.Supply.mk ops ~dst:il ~srcs:[ iv ] Opkind.Amov in
  let upd = Op.Supply.mk ops ~dst:iv ~srcs:[ iv; iv ] Opkind.Aadd in
  Array.of_list
    (List.mapi (fun i op -> Sunit.of_op m ~sid:i op) ((copy :: body) @ [ upd ]))

(* the kind of a checker verdict, for messages and comparisons *)
let kind = function
  | Ok () -> "ok"
  | Error Modsched.Shape -> "shape"
  | Error (Modsched.Negative _) -> "negative"
  | Error (Modsched.Edge _) -> "edge"
  | Error (Modsched.Wrap _) -> "wrap"
  | Error (Modsched.Resource _) -> "resource"

let spec_gen =
  QCheck2.Gen.(
    let* seed = int_bound 100_000 in
    let* k = int_range 1 10 in
    return (seed, k))

(* rebuild a modulo table from a schedule and check it is legal *)
let resources_ok units times ~s =
  let nres = Sp_machine.Machine.num_resources m in
  let counts = Array.make_matrix s nres 0 in
  let ok = ref true in
  Array.iteri
    (fun i (u : Sunit.t) ->
      List.iter
        (fun (off, rid) ->
          let slot = (times.(i) + off) mod s in
          counts.(slot).(rid) <- counts.(slot).(rid) + 1;
          if
            counts.(slot).(rid)
            > (Sp_machine.Machine.resource m rid).Sp_machine.Machine.count
          then ok := false)
        u.Sunit.resv)
    units;
  !ok

let prop_schedule_valid =
  QCheck2.Test.make ~name:"modulo schedules satisfy all constraints"
    ~count:200 spec_gen (fun (seed, k) ->
      let units = random_units seed k in
      let g = Ddg.build units in
      let pl = Listsched.compact m g in
      let seq_len = Listsched.restart_interval g pl in
      let analysis = Modsched.analyze ~s_max:seq_len g in
      let mii =
        Mii.compute m units ~rec_mii:analysis.Modsched.a_rec_mii
      in
      match
        Modsched.schedule ~analysis m g ~mii:mii.Mii.mii ~max_ii:seq_len
      with
      | None -> true (* nothing schedulable in range: acceptable *)
      | Some sched ->
        let s = sched.Modsched.s in
        let times = sched.Modsched.times in
        (* 1. interval within bounds *)
        s >= mii.Mii.mii
        && s <= seq_len
        (* 2. every dependence satisfied *)
        && List.for_all
             (fun (e : Ddg.edge) ->
               times.(e.Ddg.dst) - times.(e.Ddg.src)
               >= e.Ddg.delay - (s * e.Ddg.omega))
             g.Ddg.edges
        (* 3. all times non-negative *)
        && Array.for_all (fun t -> t >= 0) times
        (* 4. modulo resource discipline *)
        && resources_ok units times ~s)

let prop_schedule_at_least_rec_bound =
  QCheck2.Test.make ~name:"achieved interval >= recurrence bound" ~count:200
    spec_gen (fun (seed, k) ->
      let units = random_units seed k in
      let g = Ddg.build units in
      let pl = Listsched.compact m g in
      let seq_len = Listsched.restart_interval g pl in
      let analysis = Modsched.analyze ~s_max:seq_len g in
      match
        Modsched.schedule ~analysis m g ~mii:1 ~max_ii:seq_len
      with
      | None -> true
      | Some sched -> sched.Modsched.s >= analysis.Modsched.a_rec_mii)

(* ---- deterministic cases -------------------------------------------- *)

let test_vadd_hits_bound () =
  (* load / add / store + induction on the toy machine (separate read
     and write ports): all bounds are 1, and the scheduler finds II = 1
     — the paper's Section 2 example *)
  let m = Sp_machine.Machine.toy in
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let segs = Memseg.Supply.create () in
  let seg = Memseg.Supply.fresh segs ~name:"a" ~size:64 () in
  let iv = Vreg.Supply.fresh sup ~name:"i" Vreg.I in
  let il = Vreg.Supply.fresh sup ~name:"i'" Vreg.I in
  let k = Vreg.Supply.fresh sup ~name:"k" Vreg.F in
  let x = Vreg.Supply.fresh sup Vreg.F in
  let y = Vreg.Supply.fresh sup Vreg.F in
  let addr off =
    { Op.seg; base = None; idx = Some il; off; sub = Some (Subscript.of_iv ~off il) }
  in
  (* mirror the builder: addresses use a per-iteration copy of the
     counter so the counter's update does not serialize the pipeline *)
  let body =
    [
      Op.Supply.mk ops ~dst:il ~srcs:[ iv ] Opkind.Amov;
      Op.Supply.mk ops ~dst:x ~addr:(addr 0) Opkind.Load;
      Op.Supply.mk ops ~dst:y ~srcs:[ x; k ] Opkind.Fadd;
      Op.Supply.mk ops ~srcs:[ y ] ~addr:(addr 0) Opkind.Store;
      Op.Supply.mk ops ~dst:iv ~srcs:[ iv; iv ] Opkind.Aadd;
    ]
  in
  let units =
    Array.of_list (List.mapi (fun i op -> Sunit.of_op m ~sid:i op) body)
  in
  let g = Ddg.build units in
  let pl = Listsched.compact m g in
  let seq_len = Listsched.restart_interval g pl in
  let analysis = Modsched.analyze ~s_max:seq_len g in
  let mii = Mii.compute m units ~rec_mii:analysis.Modsched.a_rec_mii in
  Alcotest.(check int) "mii is 1" 1 mii.Mii.mii;
  match Modsched.schedule ~analysis m g ~mii:1 ~max_ii:seq_len with
  | Some sched -> Alcotest.(check int) "II = 1" 1 sched.Modsched.s
  | None -> Alcotest.fail "vadd must schedule"

let test_accumulator_rec_bound () =
  (* acc += x: II pinned to the adder latency *)
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let acc = Vreg.Supply.fresh sup Vreg.F in
  let x = Vreg.Supply.fresh sup Vreg.F in
  let add = Op.Supply.mk ops ~dst:acc ~srcs:[ acc; x ] Opkind.Fadd in
  let units = [| Sunit.of_op m ~sid:0 add |] in
  let g = Ddg.build units in
  let analysis = Modsched.analyze ~s_max:50 g in
  Alcotest.(check int) "recurrence bound = adder latency" 7
    analysis.Modsched.a_rec_mii

let test_resource_bound () =
  (* three loads per iteration through one memory port: ResMII = 3 *)
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
      Opkind.Load
  in
  let units =
    Array.of_list
      (List.mapi (fun i op -> Sunit.of_op m ~sid:i op) [ mk 0; mk 1; mk 2 ])
  in
  Alcotest.(check int) "ResMII 3" 3 (Mii.compute m units ~rec_mii:1).Mii.res_mii

let test_binary_search_exists () =
  (* the ablation path returns a legal schedule too *)
  let units = random_units 42 6 in
  let g = Ddg.build units in
  let pl = Listsched.compact m g in
  let seq_len = Listsched.restart_interval g pl in
  match Modsched.schedule ~search:Modsched.Binary m g ~mii:1 ~max_ii:seq_len with
  | Some sched ->
    Alcotest.(check string) "constraints hold" "ok"
      (kind
         (Modsched.check m g ~s:sched.Modsched.s ~times:sched.Modsched.times))
  | None -> Alcotest.fail "binary search should find something"

(* ---- the legality checker ------------------------------------------- *)

(* a heuristic schedule of [random_units seed k], when there is one *)
let scheduled seed k =
  let g = Ddg.build (random_units seed k) in
  let seq_len = Listsched.restart_interval g (Listsched.compact m g) in
  let analysis = Modsched.analyze ~s_max:seq_len g in
  let mii = Mii.compute m g.Ddg.units ~rec_mii:analysis.Modsched.a_rec_mii in
  Option.map
    (fun (sch : Modsched.schedule) -> (g, sch.Modsched.s, sch.Modsched.times))
    (Modsched.schedule ~analysis m g ~mii:mii.Mii.mii ~max_ii:seq_len)

(* [k] operations that share no register and store nothing: no edges *)
let edge_free_units seed k : Sunit.t array =
  let rng = { s = seed + 29 } in
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let segs = Memseg.Supply.create () in
  let seg = Memseg.Supply.fresh segs ~name:"a" ~size:64 () in
  let f () = Vreg.Supply.fresh sup Vreg.F in
  let i () = Vreg.Supply.fresh sup Vreg.I in
  Array.init k (fun sid ->
      let op =
        match next rng 4 with
        | 0 -> Op.Supply.mk ops ~dst:(f ()) ~srcs:[ f (); f () ] Opkind.Fadd
        | 1 -> Op.Supply.mk ops ~dst:(f ()) ~srcs:[ f (); f () ] Opkind.Fmul
        | 2 -> Op.Supply.mk ops ~dst:(i ()) ~srcs:[ i () ] Opkind.Amov
        | _ ->
          Op.Supply.mk ops ~dst:(f ())
            ~addr:
              { Op.seg; base = None; idx = Some (i ()); off = 0; sub = None }
            Opkind.Load
      in
      Sunit.of_op m ~sid op)

let edge_free seed k =
  let g = Ddg.build (edge_free_units seed k) in
  assert (g.Ddg.edges = []);
  g

(* [k] adds on the one adder, unit [v] a [len]-word no-wrap construct,
   in a legal schedule: [v] at residue 0, every other unit [i] at
   residue [i + 1] *)
let wrap_case (seed, k, len) =
  let rng = { s = seed } in
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let f () = Vreg.Supply.fresh sup Vreg.F in
  let add sid =
    Sunit.of_op m ~sid
      (Op.Supply.mk ops ~dst:(f ()) ~srcs:[ f (); f () ] Opkind.Fadd)
  in
  let v = next rng k in
  let units =
    Array.init k (fun sid ->
        if sid = v then { (add sid) with Sunit.len; no_wrap = true }
        else add sid)
  in
  let s = k + len + 1 in
  let times =
    Array.init k (fun i -> (if i = v then 0 else i + 1) + (s * next rng 3))
  in
  (Ddg.build units, s, v, times)

let case_gen = QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 10))

let prop_check_accepts_shifts =
  QCheck2.Test.make ~name:"checker: heuristic schedules and their shifts by s"
    ~count:200 case_gen (fun (seed, k) ->
      match scheduled seed k with
      | None -> true
      | Some (g, s, times) ->
        List.for_all
          (fun j ->
            Modsched.check m g ~s ~times:(Array.map (( + ) (j * s)) times)
            = Ok ())
          [ 0; 1; 3 ])

let prop_check_edge =
  QCheck2.Test.make ~name:"checker: one time moved across an edge" ~count:200
    case_gen (fun (seed, k) ->
      match scheduled seed k with
      | None -> true
      | Some (g, s, times) -> (
        match
          List.filter (fun (e : Ddg.edge) -> e.src <> e.dst) g.Ddg.edges
        with
        | [] -> true
        | es ->
          let e = List.nth es (seed mod List.length es) in
          let times = Array.copy times in
          (* one past the latest start the edge allows: never negative *)
          times.(e.src) <- times.(e.dst) - e.delay + (s * e.omega) + 1;
          kind (Modsched.check m g ~s ~times) = "edge"))

let prop_check_negative =
  QCheck2.Test.make ~name:"checker: one negative time" ~count:200 case_gen
    (fun (seed, k) ->
      match scheduled seed k with
      | None -> true
      | Some (g, s, times) ->
        let v = seed mod Array.length times in
        let times = Array.copy times in
        times.(v) <- -1 - (seed mod 5);
        Modsched.check m g ~s ~times = Error (Modsched.Negative v))

let prop_check_reservation =
  QCheck2.Test.make ~name:"checker: one reservation over its count" ~count:200
    case_gen (fun (seed, k) ->
      match scheduled seed k with
      | None -> true
      | Some (g, s, times) -> (
        let v = seed mod Array.length times in
        let u = g.Ddg.units.(v) in
        match u.Sunit.resv with
        | [] -> true
        | (off, rid) :: _ ->
          (* as many more reservations of [rid] as the machine has units *)
          let count =
            (Sp_machine.Machine.resource m rid).Sp_machine.Machine.count
          in
          let more = List.init count (fun _ -> (off, rid)) in
          let units = Array.copy g.Ddg.units in
          units.(v) <- { u with Sunit.resv = u.Sunit.resv @ more };
          Modsched.check m { g with Ddg.units } ~s ~times
          = Error (Modsched.Resource { slot = (times.(v) + off) mod s; rid })))

let prop_check_resources_reference =
  QCheck2.Test.make ~name:"checker: resource verdict agrees with the reference"
    ~count:300
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 8) (int_range 1 6))
    (fun (seed, k, s) ->
      let g = edge_free seed k in
      let rng = { s = seed } in
      let times = Array.init k (fun _ -> next rng (3 * s)) in
      Result.is_ok (Modsched.check m g ~s ~times)
      = resources_ok g.Ddg.units times ~s)

let prop_check_full_residue =
  QCheck2.Test.make ~name:"checker: one time moved onto a full residue"
    ~count:200
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 2 8))
    (fun (seed, k) ->
      let g, s, v, times = wrap_case (seed, k, 1) in
      let w = (v + 1 + (seed mod (k - 1))) mod k in
      let moved = Array.copy times in
      moved.(w) <- times.(v) + (s * (seed mod 3));
      List.for_all
        (fun j ->
          Modsched.check m g ~s ~times:(Array.map (( + ) (j * s)) times) = Ok ())
        [ 0; 2 ]
      && kind (Modsched.check m g ~s ~times:moved) = "resource")

let prop_check_wrap =
  QCheck2.Test.make ~name:"checker: a no-wrap unit moved across the window end"
    ~count:200
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 8) (int_range 1 3))
    (fun (seed, k, len) ->
      let g, s, v, times = wrap_case (seed, k, len) in
      let ok = Modsched.check m g ~s ~times = Ok () in
      let times = Array.copy times in
      (* residues s - len .. s - 1 put its end on or past the boundary *)
      times.(v) <- s - len + (seed mod len) + (s * (seed mod 3));
      ok && Modsched.check m g ~s ~times = Error (Modsched.Wrap v))

let test_check_shape () =
  let g = edge_free 7 3 in
  let verdict ~s times = kind (Modsched.check m g ~s ~times) in
  Alcotest.(check string) "legal" "ok" (verdict ~s:3 [| 0; 1; 2 |]);
  Alcotest.(check string) "interval 0" "shape" (verdict ~s:0 [| 0; 1; 2 |]);
  Alcotest.(check string) "a time missing" "shape" (verdict ~s:3 [| 0; 1 |]);
  Alcotest.(check string) "a time too many" "shape"
    (verdict ~s:3 [| 0; 1; 2; 3 |]);
  Alcotest.(check string) "shape before sign" "shape"
    (verdict ~s:0 [| -1; 1; 2 |])

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    qt prop_schedule_valid;
    qt prop_schedule_at_least_rec_bound;
    ("vadd reaches II=1", `Quick, test_vadd_hits_bound);
    ("accumulator recurrence bound", `Quick, test_accumulator_rec_bound);
    ("resource bound", `Quick, test_resource_bound);
    ("binary search ablation", `Quick, test_binary_search_exists);
    qt prop_check_accepts_shifts;
    qt prop_check_edge;
    qt prop_check_negative;
    qt prop_check_reservation;
    qt prop_check_resources_reference;
    qt prop_check_full_residue;
    qt prop_check_wrap;
    ("checker: malformed shapes", `Quick, test_check_shape);
  ]

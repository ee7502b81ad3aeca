(** Tests for modulo variable expansion: lifetimes, unroll degrees,
    register-count rounding, renaming and pressure accounting. *)

open Sp_ir
module Opkind = Sp_machine.Opkind
module Ddg = Sp_core.Ddg
module Sunit = Sp_core.Sunit
module Modsched = Sp_core.Modsched
module Mve = Sp_core.Mve
module Listsched = Sp_core.Listsched
module Mii = Sp_core.Mii

let m = Sp_machine.Machine.warp

(* an expandable chain with a value read twice (late): its lifetime
   exceeds the initiation interval, so it needs several copies *)
let chain_units () =
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let segs = Memseg.Supply.create () in
  let a = Memseg.Supply.fresh segs ~name:"a" ~size:64 () in
  let b = Memseg.Supply.fresh segs ~name:"b" ~size:64 () in
  let iv = Vreg.Supply.fresh sup ~name:"i" Vreg.I in
  let il = Vreg.Supply.fresh sup ~name:"i'" Vreg.I in
  let t = Vreg.Supply.fresh sup ~name:"t" Vreg.F in
  let u = Vreg.Supply.fresh sup ~name:"u" Vreg.F in
  let addr seg off =
    { Op.seg; base = None; idx = Some il; off; sub = Some (Subscript.of_iv ~off il) }
  in
  let v = Vreg.Supply.fresh sup ~name:"v" Vreg.F in
  let body =
    [
      Op.Supply.mk ops ~dst:il ~srcs:[ iv ] Opkind.Amov;
      Op.Supply.mk ops ~dst:t ~addr:(addr a 0) Opkind.Load;
      Op.Supply.mk ops ~dst:v ~srcs:[ t; t ] Opkind.Fadd;
      (* t read again here, 7 cycles later: lifetime > II *)
      Op.Supply.mk ops ~dst:u ~srcs:[ v; t ] Opkind.Fmul;
      Op.Supply.mk ops ~srcs:[ u ] ~addr:(addr b 0) Opkind.Store;
      Op.Supply.mk ops ~dst:iv ~srcs:[ iv; iv ] Opkind.Aadd;
    ]
  in
  ( sup,
    Array.of_list (List.mapi (fun i op -> Sunit.of_op m ~sid:i op) body),
    (t, u) )

let schedule_units units =
  let g = Ddg.build units in
  let pl = Listsched.compact m g in
  let seq_len = Listsched.restart_interval g pl in
  let analysis = Modsched.analyze ~s_max:seq_len g in
  let mii = Mii.compute m units ~rec_mii:analysis.Modsched.a_rec_mii in
  match Modsched.schedule ~analysis m g ~mii:mii.Mii.mii ~max_ii:seq_len with
  | Some sched -> (g, sched)
  | None -> Alcotest.fail "expected a schedule"

let test_expansion_basics () =
  let sup, units, (t, u) = chain_units () in
  let g, sched = schedule_units units in
  Alcotest.(check int) "II = 2 (single memory port)" 2 sched.Modsched.s;
  let mve = Mve.compute m g sched ~supply:sup in
  Alcotest.(check bool) "t expanded" true
    (List.exists (fun a -> Vreg.equal a.Mve.reg t) mve.Mve.allocs);
  Alcotest.(check bool) "u expanded" true
    (List.exists (fun a -> Vreg.equal a.Mve.reg u) mve.Mve.allocs);
  let alloc r = List.find (fun a -> Vreg.equal a.Mve.reg r) mve.Mve.allocs in
  (* t lands at load+3, read by the multiply at its issue; at II=1 the
     number of live values is the land-to-last-read span / 1 + 1 *)
  Alcotest.(check bool) "q >= 2" true ((alloc t).Mve.q >= 2);
  Alcotest.(check bool) "unroll = max q" true
    (mve.Mve.unroll
    = List.fold_left (fun acc a -> max acc a.Mve.q) 1 mve.Mve.allocs);
  (* every allocation divides the unroll *)
  List.iter
    (fun a ->
      Alcotest.(check int)
        (Printf.sprintf "n | u for %s" (Vreg.to_string a.Mve.reg))
        0
        (mve.Mve.unroll mod a.Mve.n))
    mve.Mve.allocs;
  Alcotest.(check bool) "fits the register files" true mve.Mve.fits

let test_rename_rotation () =
  let sup, units, (t, _) = chain_units () in
  let g, sched = schedule_units units in
  let mve = Mve.compute m g sched ~supply:sup in
  let a = List.find (fun a -> Vreg.equal a.Mve.reg t) mve.Mve.allocs in
  let n = a.Mve.n in
  (* iteration i and i+n use the same copy; i and i+1 differ (n > 1) *)
  let r0 = Mve.rename mve ~iter:0 t in
  let rn = Mve.rename mve ~iter:n t in
  let r1 = Mve.rename mve ~iter:1 t in
  Alcotest.(check bool) "period n" true (Vreg.equal r0 rn);
  if n > 1 then
    Alcotest.(check bool) "adjacent iterations differ" false
      (Vreg.equal r0 r1);
  (* copy 0 is the original register *)
  Alcotest.(check bool) "copy 0 = original" true (Vreg.equal r0 t);
  (* negative iteration indices (epilog accounting) are well-defined *)
  let rneg = Mve.rename mve ~iter:(-1) t in
  Alcotest.(check bool) "negative iters wrap" true
    (Vreg.equal rneg (Mve.rename mve ~iter:(n - 1) t));
  (* non-candidates are untouched *)
  let other = Vreg.Supply.fresh sup ~name:"z" Vreg.F in
  Alcotest.(check bool) "others untouched" true
    (Vreg.equal other (Mve.rename mve ~iter:3 other))

let test_mode_off () =
  let sup, units, _ = chain_units () in
  let g, sched = schedule_units units in
  let mve = Mve.compute ~mode:Mve.Off m g sched ~supply:sup in
  Alcotest.(check int) "no unrolling" 1 mve.Mve.unroll;
  Alcotest.(check int) "no allocations" 0 (List.length mve.Mve.allocs)

let test_mode_lcm_geq_maxq () =
  let sup, units, _ = chain_units () in
  let g, sched = schedule_units units in
  let maxq = Mve.compute ~mode:Mve.Max_q m g sched ~supply:sup in
  (* fresh supply state is shared; reuse is fine for a size comparison *)
  let lcm = Mve.compute ~mode:Mve.Lcm m g sched ~supply:sup in
  Alcotest.(check bool) "lcm unroll >= max-q unroll" true
    (lcm.Mve.unroll >= maxq.Mve.unroll);
  Alcotest.(check int) "lcm unroll is the lcm" 0
    (List.fold_left
       (fun acc a -> acc + (lcm.Mve.unroll mod a.Mve.q))
       0 lcm.Mve.allocs)

(* with expansion off, the identity expansion: no unrolling, no
   allocations, within the register files *)
let test_identity () =
  let sup, units, _ = chain_units () in
  let g, sched = schedule_units units in
  let mve = Mve.compute ~mode:Mve.Off m g sched ~supply:sup in
  Alcotest.(check int) "identity unroll" 1 mve.Mve.unroll;
  Alcotest.(check bool) "identity fits" true mve.Mve.fits;
  Alcotest.(check int) "identity allocates nothing" 0
    (List.length mve.Mve.allocs)

let suite =
  [
    ("expansion basics", `Quick, test_expansion_basics);
    ("rename rotation", `Quick, test_rename_rotation);
    ("mode off", `Quick, test_mode_off);
    ("mode lcm", `Quick, test_mode_lcm_geq_maxq);
    ("identity", `Quick, test_identity);
  ]

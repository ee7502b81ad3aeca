(** Tests for dependence-graph construction: edge kinds, delays,
    iteration distances, disambiguation, channel ordering, MVE
    candidate detection. *)

open Sp_ir
module Opkind = Sp_machine.Opkind
module Ddg = Sp_core.Ddg
module Sunit = Sp_core.Sunit

let m = Sp_machine.Machine.warp

(* build units straight from ops *)
let units_of ops =
  Array.of_list (List.mapi (fun i op -> Sunit.of_op m ~sid:i op) ops)

let find_edge g ~src ~dst ~omega =
  List.find_opt
    (fun (e : Ddg.edge) -> e.Ddg.src = src && e.Ddg.dst = dst && e.Ddg.omega = omega)
    g.Ddg.edges

let edge_exn g ~src ~dst ~omega =
  match find_edge g ~src ~dst ~omega with
  | Some e -> e
  | None ->
    Alcotest.failf "missing edge u%d -> u%d (omega %d)" src dst omega

type setup = {
  sup : Vreg.Supply.supply;
  ops : Op.Supply.supply;
  segs : Memseg.Supply.supply;
}

let setup () =
  {
    sup = Vreg.Supply.create ();
    ops = Op.Supply.create ();
    segs = Memseg.Supply.create ();
  }

let freg s n = Vreg.Supply.fresh s.sup ~name:n Vreg.F

let test_flow_delay () =
  let s = setup () in
  let a = freg s "a" and b = freg s "b" and c = freg s "c" in
  let mul = Op.Supply.mk s.ops ~dst:c ~srcs:[ a; b ] Opkind.Fmul in
  let add = Op.Supply.mk s.ops ~dst:a ~srcs:[ c; b ] Opkind.Fadd in
  let g = Ddg.build (units_of [ mul; add ]) in
  (* flow c: delay = multiplier latency *)
  let e = edge_exn g ~src:0 ~dst:1 ~omega:0 in
  Alcotest.(check int) "flow delay = latency" 7 e.Ddg.delay

let test_anti_delay () =
  let s = setup () in
  let a = freg s "a" and b = freg s "b" and c = freg s "c" in
  (* use of a, then redefinition of a *)
  let use = Op.Supply.mk s.ops ~dst:c ~srcs:[ a; b ] Opkind.Fadd in
  let def = Op.Supply.mk s.ops ~dst:a ~srcs:[ b; b ] Opkind.Fmul in
  let g = Ddg.build (units_of [ use; def ]) in
  (* anti: read at issue, write lands at +7 => delay 0 - 7 + 1 = -6 *)
  let e = edge_exn g ~src:0 ~dst:1 ~omega:0 in
  Alcotest.(check int) "anti delay = 1 - latency" (-6) e.Ddg.delay

let test_output_delay () =
  let s = setup () in
  let a = freg s "a" and b = freg s "b" in
  let d1 = Op.Supply.mk s.ops ~dst:a ~srcs:[ b; b ] Opkind.Fadd in
  let d2 = Op.Supply.mk s.ops ~dst:a ~srcs:[ b; b ] Opkind.Fmul in
  let g = Ddg.build ~mve:false (units_of [ d1; d2 ]) in
  let e = edge_exn g ~src:0 ~dst:1 ~omega:0 in
  Alcotest.(check int) "output delay" 1 e.Ddg.delay

let test_carried_accumulator () =
  let s = setup () in
  let acc = freg s "acc" and x = freg s "x" in
  (* acc := acc + x : carried flow with distance 1, delay = latency *)
  let add = Op.Supply.mk s.ops ~dst:acc ~srcs:[ acc; x ] Opkind.Fadd in
  let g = Ddg.build (units_of [ add ]) in
  let e = edge_exn g ~src:0 ~dst:0 ~omega:1 in
  Alcotest.(check int) "self flow delay" 7 e.Ddg.delay;
  (* not an MVE candidate: first access is a use *)
  Alcotest.(check bool) "accumulator not expandable" false
    (Vreg.Set.mem acc g.Ddg.mve_candidates)

let test_mve_candidate () =
  let s = setup () in
  let t = freg s "t" and x = freg s "x" and y = freg s "y" in
  (* t defined at top of every iteration, then used: a candidate;
     without MVE there would be a carried anti t(use)->t(def) *)
  let def = Op.Supply.mk s.ops ~dst:t ~srcs:[ x; x ] Opkind.Fmul in
  let use = Op.Supply.mk s.ops ~dst:y ~srcs:[ t; x ] Opkind.Fadd in
  let g = Ddg.build (units_of [ def; use ]) in
  Alcotest.(check bool) "t is a candidate" true
    (Vreg.Set.mem t g.Ddg.mve_candidates);
  Alcotest.(check bool) "carried anti removed" true
    (find_edge g ~src:1 ~dst:0 ~omega:1 = None);
  (* with expansion disabled the carried edges come back *)
  let g0 = Ddg.build ~mve:false (units_of [ def; use ]) in
  Alcotest.(check bool) "no candidates" true
    (Vreg.Set.is_empty g0.Ddg.mve_candidates);
  Alcotest.(check bool) "carried anti present" true
    (find_edge g0 ~src:1 ~dst:0 ~omega:1 <> None)

let test_live_out_excluded () =
  let s = setup () in
  let t = freg s "t" and x = freg s "x" in
  let def = Op.Supply.mk s.ops ~dst:t ~srcs:[ x; x ] Opkind.Fmul in
  let g =
    Ddg.build ~live_out:(fun r -> Vreg.equal r t) (units_of [ def ])
  in
  Alcotest.(check bool) "live-out not expandable" false
    (Vreg.Set.mem t g.Ddg.mve_candidates)

let mem_ops s ?(independent = false) () =
  let seg =
    Memseg.Supply.fresh s.segs ~independent ~name:"a" ~size:100 ()
  in
  let iv = Vreg.Supply.fresh s.sup ~name:"i" Vreg.I in
  let v = freg s "v" in
  let load off =
    Op.Supply.mk s.ops ~dst:(freg s "l")
      ~addr:
        { Op.seg; base = None; idx = Some iv; off;
          sub = Some (Subscript.of_iv ~off iv) }
      Opkind.Load
  in
  let store off =
    Op.Supply.mk s.ops ~srcs:[ v ]
      ~addr:
        { Op.seg; base = None; idx = Some iv; off;
          sub = Some (Subscript.of_iv ~off iv) }
      Opkind.Store
  in
  (load, store)

let test_memory_distance () =
  let s = setup () in
  let load, store = mem_ops s () in
  (* store a[i], load a[i-2]: the load reads what was stored 2
     iterations ago: flow edge with omega 2 *)
  let st = store 0 and ld = load (-2) in
  let g = Ddg.build (units_of [ st; ld ]) in
  let e = edge_exn g ~src:0 ~dst:1 ~omega:2 in
  Alcotest.(check int) "store->load delay" 1 e.Ddg.delay;
  (* and no same-iteration edge: distinct addresses *)
  Alcotest.(check bool) "no omega-0 edge" true
    (find_edge g ~src:0 ~dst:1 ~omega:0 = None)

let test_memory_same_iteration () =
  let s = setup () in
  let load, store = mem_ops s () in
  let ld = load 0 and st = store 0 in
  (* load then store, same address: anti, same iteration *)
  let g = Ddg.build (units_of [ ld; st ]) in
  let e = edge_exn g ~src:0 ~dst:1 ~omega:0 in
  Alcotest.(check int) "load->store anti delay" 0 e.Ddg.delay

let test_memory_never_alias () =
  let s = setup () in
  let load, store = mem_ops s () in
  (* stride-1 accesses at different offsets never... they alias at
     distance 3; but a backwards distance (load ahead of the store)
     means the store never feeds the load *)
  let st = store 0 and ld = load 3 in
  (* store a[i] iter i; load a[i+3]: the load of iteration j reads
     a[j+3], written by the store of iteration j+3: dependence goes
     load -> store with omega 3 *)
  let g = Ddg.build (units_of [ st; ld ]) in
  Alcotest.(check bool) "load->store anti carried" true
    (find_edge g ~src:1 ~dst:0 ~omega:3 <> None);
  Alcotest.(check bool) "no store->load flow" true
    (List.for_all
       (fun (e : Ddg.edge) -> not (e.Ddg.src = 0 && e.Ddg.dst = 1))
       g.Ddg.edges)

let test_independent_directive () =
  let s = setup () in
  (* opaque subscripts on an independent segment: no cross-iteration
     edges; on a normal segment: conservative both ways *)
  let mk_opaque independent =
    let seg =
      Memseg.Supply.fresh s.segs ~independent
        ~name:(if independent then "ind" else "dep")
        ~size:100 ()
    in
    let idx = Vreg.Supply.fresh s.sup ~name:"x" Vreg.I in
    let v = freg s "v" in
    let ld =
      Op.Supply.mk s.ops ~dst:(freg s "l")
        ~addr:{ Op.seg; base = None; idx = Some idx; off = 0; sub = None }
        Opkind.Load
    in
    let st =
      Op.Supply.mk s.ops ~srcs:[ v ]
        ~addr:{ Op.seg; base = None; idx = Some idx; off = 0; sub = None }
        Opkind.Store
    in
    Ddg.build (units_of [ ld; st ])
  in
  let g_dep = mk_opaque false in
  Alcotest.(check bool) "conservative carried edge" true
    (find_edge g_dep ~src:1 ~dst:0 ~omega:1 <> None);
  let g_ind = mk_opaque true in
  Alcotest.(check bool) "directive removes carried edges" true
    (find_edge g_ind ~src:1 ~dst:0 ~omega:1 = None);
  Alcotest.(check bool) "program order kept" true
    (find_edge g_ind ~src:0 ~dst:1 ~omega:0 = None)

let test_channel_ordering () =
  let s = setup () in
  let r1 = Op.Supply.mk s.ops ~dst:(freg s "a") (Opkind.Recv 0) in
  let r2 = Op.Supply.mk s.ops ~dst:(freg s "b") (Opkind.Recv 0) in
  let r_other = Op.Supply.mk s.ops ~dst:(freg s "c") (Opkind.Recv 1) in
  let g = Ddg.build (units_of [ r1; r2; r_other ]) in
  Alcotest.(check bool) "same channel ordered" true
    (find_edge g ~src:0 ~dst:1 ~omega:0 <> None);
  Alcotest.(check bool) "carried order back" true
    (find_edge g ~src:1 ~dst:0 ~omega:1 <> None);
  Alcotest.(check bool) "self across iterations" true
    (find_edge g ~src:0 ~dst:0 ~omega:1 <> None);
  Alcotest.(check bool) "different channels independent" true
    (List.for_all
       (fun (e : Ddg.edge) ->
         (* the self ordering across iterations remains; no cross edges *)
         e.Ddg.src = e.Ddg.dst || not (e.Ddg.src = 2 || e.Ddg.dst = 2))
       g.Ddg.edges)

let test_intra_edges_forward () =
  (* intra-iteration edges always point forward in program order (the
     property the list scheduler's reverse sweep relies on) *)
  let s = setup () in
  let load, store = mem_ops s () in
  let a = freg s "a" and b = freg s "b" in
  let ops =
    [ load 0;
      Op.Supply.mk s.ops ~dst:a ~srcs:[ b; b ] Opkind.Fadd;
      Op.Supply.mk s.ops ~dst:b ~srcs:[ a; a ] Opkind.Fmul;
      store 1 ]
  in
  let g = Ddg.build ~mve:false (units_of ops) in
  List.iter
    (fun (e : Ddg.edge) ->
      if e.Ddg.omega = 0 then
        Alcotest.(check bool) "forward" true (e.Ddg.src < e.Ddg.dst))
    g.Ddg.edges

(* ---- the builder's rules ------------------------------------------- *)

(* A unit with the given register accesses around a no-op payload. *)
let custom s ?payload ?(len = 1) ?(barrier = false) ~sid ~uses ~defs () =
  let u = Sunit.of_op m ~sid (Op.Supply.mk s.ops Opkind.Nop) in
  { u with
    Sunit.uses;
    defs;
    len;
    barrier;
    payload = Option.value ~default:u.Sunit.payload payload }

(* A reduced loop's payload with a [prolog]-slot mergeable prolog. *)
let loop_payload ~prolog =
  Sunit.P_loop
    { prolog = Sunit.empty_frag prolog;
      epilog = Sunit.empty_frag 0;
      mid = { Sunit.emit_mid = (fun ~rename:_ ~depth:_ _ -> ()) } }

let delay g ~src ~dst ~omega = (edge_exn g ~src ~dst ~omega).Ddg.delay

let test_anti_skips_own_def () =
  let s = setup () in
  let r = freg s "r" in
  (* u1 reads r at 5 and rewrites it at 1: its anti edge goes to u2's
     def (5 - 1 + 1), past its own def; u1's output edge alone would
     bound u2 by 1 - 1 + 1 *)
  let g =
    Ddg.build ~mve:false
      [| custom s ~sid:0 ~uses:[] ~defs:[ (r, 1) ] ();
         custom s ~sid:1 ~uses:[ (r, 5) ] ~defs:[ (r, 1) ] ();
         custom s ~sid:2 ~uses:[] ~defs:[ (r, 1) ] () |]
  in
  Alcotest.(check int) "anti past own def" 5 (delay g ~src:1 ~dst:2 ~omega:0);
  Alcotest.(check bool) "no same-iteration self edge" true
    (List.for_all
       (fun (e : Ddg.edge) -> e.Ddg.src <> e.Ddg.dst || e.Ddg.omega > 0)
       g.Ddg.edges)

let test_two_defs_in_one_unit () =
  let s = setup () in
  let r = freg s "r" in
  (* u2 lists defs of r at 2 and at 6 *)
  let g =
    Ddg.build ~mve:false
      [| custom s ~sid:0 ~uses:[] ~defs:[ (r, 3) ] ();
         custom s ~sid:1 ~uses:[ (r, 0) ] ~defs:[] ();
         custom s ~sid:2 ~uses:[] ~defs:[ (r, 2); (r, 6) ] ();
         custom s ~sid:3 ~uses:[ (r, 0) ] ~defs:[] () |]
  in
  Alcotest.(check int) "output into the first def" 2
    (delay g ~src:0 ~dst:2 ~omega:0);
  Alcotest.(check int) "anti into the first def" (-1)
    (delay g ~src:1 ~dst:2 ~omega:0);
  Alcotest.(check int) "flow from the last def" 6
    (delay g ~src:2 ~dst:3 ~omega:0);
  Alcotest.(check int) "carried output from the last def" 4
    (delay g ~src:2 ~dst:0 ~omega:1)

let test_loop_def_clamp () =
  let s = setup () in
  let r = freg s "r" in
  (* the next iteration's def of r is the loop's, at 10; the carried
     anti from the read at 0 would allow -9, and the clamp keeps the
     read before the loop's mid slot: 1 - 3 prolog slots *)
  let units payload =
    [| custom s ?payload ~sid:0 ~uses:[] ~defs:[ (r, 10) ] ();
       custom s ~sid:1 ~uses:[ (r, 0) ] ~defs:[] () |]
  in
  let g = Ddg.build ~mve:false (units (Some (loop_payload ~prolog:3))) in
  Alcotest.(check int) "into a loop's def" (-2)
    (delay g ~src:1 ~dst:0 ~omega:1);
  Alcotest.(check int) "out of a loop's def" 10
    (delay g ~src:0 ~dst:1 ~omega:0);
  let g_op = Ddg.build ~mve:false (units None) in
  Alcotest.(check int) "into an operation's def" (-9)
    (delay g_op ~src:1 ~dst:0 ~omega:1)

let test_expanding_clamp () =
  let s = setup () in
  let a = freg s "a" and b = freg s "b" in
  let use () =
    Op.Supply.mk s.ops ~dst:(freg s "c") ~srcs:[ a; b ] Opkind.Fadd
  in
  let def = Op.Supply.mk s.ops ~dst:a ~srcs:[ b; b ] Opkind.Fmul in
  let plain = units_of [ use (); def; use () ] in
  let g = Ddg.build ~mve:false plain in
  Alcotest.(check int) "anti without expansion" (-6)
    (delay g ~src:0 ~dst:1 ~omega:0);
  (* an inner loop anywhere in the body clamps it to 0; the carried
     anti keeps its negative delay *)
  let loop =
    custom s ~payload:(loop_payload ~prolog:1) ~sid:3 ~uses:[] ~defs:[] ()
  in
  let g = Ddg.build ~mve:false (Array.append plain [| loop |]) in
  Alcotest.(check int) "anti clamped" 0 (delay g ~src:0 ~dst:1 ~omega:0);
  Alcotest.(check int) "carried anti kept" (-6)
    (delay g ~src:2 ~dst:1 ~omega:1)

let test_barrier_edges () =
  let s = setup () in
  let x = freg s "x" and y = freg s "y" in
  let mul () =
    Op.Supply.mk s.ops ~dst:(freg s "p") ~srcs:[ x; y ] Opkind.Fmul
  in
  let ops = units_of [ mul (); mul (); mul (); mul () ] in
  ops.(1) <- custom s ~len:2 ~barrier:true ~sid:1 ~uses:[] ~defs:[] ();
  let g = Ddg.build ops in
  Alcotest.(check int) "before: its completion" 7
    (delay g ~src:0 ~dst:1 ~omega:0);
  Alcotest.(check int) "after: the barrier's" 2
    (delay g ~src:1 ~dst:2 ~omega:0);
  Alcotest.(check int) "after, further" 2 (delay g ~src:1 ~dst:3 ~omega:0);
  Alcotest.(check int) "only barrier edges" 3 (List.length g.Ddg.edges)

let test_strongest_edge_kept () =
  let s = setup () in
  let load, _ = mem_ops s () in
  let a = freg s "a" and b = freg s "b" in
  let one (g : Ddg.t) =
    List.length
      (List.filter
         (fun (e : Ddg.edge) ->
           e.Ddg.src = 0 && e.Ddg.dst = 1 && e.Ddg.omega = 0)
         g.Ddg.edges)
  in
  (* two flow edges, one per register, in either order *)
  List.iter
    (fun (ta, tb) ->
      let g =
        Ddg.build
          [| custom s ~sid:0 ~uses:[] ~defs:[ (a, ta); (b, tb) ] ();
             custom s ~sid:1 ~uses:[ (a, 0); (b, 0) ] ~defs:[] () |]
      in
      Alcotest.(check int) "one edge" 1 (one g);
      Alcotest.(check int) "larger flow delay" 7
        (delay g ~src:0 ~dst:1 ~omega:0))
    [ (2, 7); (7, 2) ];
  (* the register anti (0 - 3 + 1) comes first, the memory flow
     (store -> load, 1) second *)
  let v = freg s "v" in
  let ld = load 0 in
  let ld = { ld with Op.dst = Some v } in
  let st =
    Op.Supply.mk s.ops ~srcs:[ v ] ?addr:ld.Op.addr Opkind.Store
  in
  let g = Ddg.build (units_of [ st; ld ]) in
  Alcotest.(check int) "one edge" 1 (one g);
  Alcotest.(check int) "later, larger rule" 1 (delay g ~src:0 ~dst:1 ~omega:0);
  (* and the register flow (3) over the memory anti (0) *)
  let g = Ddg.build (units_of [ ld; st ]) in
  Alcotest.(check int) "one edge" 1 (one g);
  Alcotest.(check int) "earlier, larger rule" 3 (delay g ~src:0 ~dst:1 ~omega:0)

(* Everything a graph exposes, for equality. *)
let same_graph (a : Ddg.t) (b : Ddg.t) =
  a.Ddg.edges = b.Ddg.edges && a.Ddg.succs = b.Ddg.succs
  && a.Ddg.preds = b.Ddg.preds
  && Vreg.Set.equal a.Ddg.mve_candidates b.Ddg.mve_candidates

let test_streams_shared () =
  let body k =
    match
      Sp_core.Compile.innermost_ddgs m (Sp_kernels.Kernel.program k)
    with
    | (_, (g : Ddg.t)) :: _ -> g.Ddg.units
    | [] -> Alcotest.fail "no innermost loop"
  in
  let a = body Sp_kernels.Livermore.k18_hydro2d
  and b = body Sp_kernels.Livermore.k1_hydro in
  let live_out (r : Vreg.t) = r.Vreg.id mod 3 = 0 in
  let s = Ddg.streams a in
  let serial = Ddg.of_streams ~mve:false s in
  let pipelining = Ddg.of_streams ~live_out s in
  Alcotest.(check bool) "serial graph" true
    (same_graph serial (Ddg.build ~mve:false a));
  Alcotest.(check bool) "pipelining graph from the same streams" true
    (same_graph pipelining (Ddg.build ~live_out a));
  (* still the same after another analysis, and on another domain *)
  ignore (Ddg.streams b);
  let again = Ddg.of_streams ~live_out s in
  Alcotest.(check bool) "after another analysis" true
    (same_graph again pipelining);
  let d = Domain.spawn (fun () -> Ddg.of_streams ~live_out s) in
  Alcotest.(check bool) "on another domain" true
    (same_graph (Domain.join d) pipelining);
  (* bodies of 256 accesses or more keep their streams in the domain's
     reused buffers: a second long analysis takes them over *)
  let long seed =
    let st = setup () in
    let regs = Array.init 40 (fun i -> freg st (string_of_int i)) in
    units_of
      (List.init 150 (fun i ->
           Op.Supply.mk st.ops
             ~dst:regs.((i * seed) mod 40)
             ~srcs:[ regs.(i mod 40); regs.((i + seed) mod 40) ]
             Opkind.Fadd))
  in
  let a = long 7 and b = long 11 in
  let s = Ddg.streams a in
  let serial = Ddg.of_streams ~mve:false s in
  ignore (Ddg.streams b);
  Alcotest.(check bool) "long streams taken over" true
    (same_graph (Ddg.of_streams ~mve:false s) serial);
  Alcotest.(check bool) "long streams" true
    (same_graph serial (Ddg.build ~mve:false a))

(* ---- Graphviz export ------------------------------------------------ *)

(** Golden-file check of the dot export: the accumulator recurrence is
    clustered as [scc 0], the carried edge is dashed and labelled with
    its iteration distance, and the independent multiply stays outside
    the cluster. Regenerate [golden/dot_recurrence.golden] by pasting
    the new output when the format changes deliberately. *)
let test_dot_golden () =
  let s = setup () in
  let acc = freg s "acc" and x = freg s "x" in
  let y = freg s "y" and k = freg s "k" in
  let mul = Op.Supply.mk s.ops ~dst:y ~srcs:[ x; k ] Opkind.Fmul in
  let add = Op.Supply.mk s.ops ~dst:acc ~srcs:[ acc; y ] Opkind.Fadd in
  let g = Ddg.build (units_of [ mul; add ]) in
  let got = Sp_core.Dot.to_string ~name:"recurrence" g in
  let ic = open_in "golden/dot_recurrence.golden" in
  let n = in_channel_length ic in
  let expected = really_input_string ic n in
  close_in ic;
  Alcotest.(check string) "dot export" expected got

(* ---- edge-order golden ---------------------------------------------- *)

(* Every order the graph exposes: the edge list, each unit's [succs]
   and [preds], and the candidate ids (a set, so sorted). *)
let add_graph b (g : Ddg.t) =
  let edge (e : Ddg.edge) =
    Printf.bprintf b " %d>%d:%d/%d" e.Ddg.src e.Ddg.dst e.Ddg.delay e.Ddg.omega
  in
  List.iter edge g.Ddg.edges;
  let adj tag a =
    Array.iteri
      (fun i l ->
        Printf.bprintf b "\n%s%d" tag i;
        List.iter edge l)
      a
  in
  adj "s" g.Ddg.succs;
  adj "p" g.Ddg.preds;
  Buffer.add_string b "\nc";
  List.iter (Printf.bprintf b " %d")
    (List.sort compare
       (List.map (fun (r : Vreg.t) -> r.Vreg.id)
          (Vreg.Set.elements g.Ddg.mve_candidates)));
  Buffer.add_char b '\n'

(** MD5, per program, of every innermost-loop graph in order and of the
    [~mve:false] graph rebuilt on the same units, over the 20 Livermore
    kernels and Wgen seeds 1–400. Listings hide most edge-order
    changes; this pins the order the scheduler reads. Regenerate
    [golden/ddg_md5.golden] only from the commit before a change. *)
let test_ddg_golden () =
  let b = Buffer.create 32768 in
  let add label p =
    let g = Buffer.create 4096 in
    List.iter
      (fun ((iv : Vreg.t), (d : Ddg.t)) ->
        Printf.bprintf g "loop %d\n" iv.Vreg.id;
        add_graph g d;
        add_graph g (Ddg.build ~mve:false d.Ddg.units))
      (Sp_core.Compile.innermost_ddgs m p);
    Printf.bprintf b "%s %s\n" label
      (Digest.to_hex (Digest.string (Buffer.contents g)))
  in
  List.iter
    (fun (k : Sp_kernels.Kernel.t) ->
      add ("lfk/" ^ k.Sp_kernels.Kernel.name) (Sp_kernels.Kernel.program k))
    Sp_kernels.Livermore.all;
  for seed = 1 to 400 do
    add
      (Printf.sprintf "wgen/%d" seed)
      (Sp_lang.Lower.compile_source
         (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed)))
  done;
  Golden.check "golden/ddg_md5.golden" (Buffer.contents b)

let suite =
  [
    ("flow delay", `Quick, test_flow_delay);
    ("anti delay", `Quick, test_anti_delay);
    ("output delay", `Quick, test_output_delay);
    ("carried accumulator", `Quick, test_carried_accumulator);
    ("mve candidate", `Quick, test_mve_candidate);
    ("live-out excluded from mve", `Quick, test_live_out_excluded);
    ("memory distance", `Quick, test_memory_distance);
    ("memory same-iteration anti", `Quick, test_memory_same_iteration);
    ("memory backward distance", `Quick, test_memory_never_alias);
    ("independent directive", `Quick, test_independent_directive);
    ("channel ordering", `Quick, test_channel_ordering);
    ("intra edges forward", `Quick, test_intra_edges_forward);
    ("anti edge skips the unit's own def", `Quick, test_anti_skips_own_def);
    ("two defs in one unit", `Quick, test_two_defs_in_one_unit);
    ("edges into a loop's def", `Quick, test_loop_def_clamp);
    ("expanding unit clamps negative delays", `Quick, test_expanding_clamp);
    ("barrier edges", `Quick, test_barrier_edges);
    ("strongest duplicate edge kept", `Quick, test_strongest_edge_kept);
    ("streams shared by two graphs", `Quick, test_streams_shared);
    ("dot export golden", `Quick, test_dot_golden);
    ("edge order golden", `Quick, test_ddg_golden);
  ]

(** Observability-layer tests: the JSON value type round-trips through
    its own strict parser, tracing is inert when disabled and faithful
    when enabled, every name of the [w2c --metrics] document reads the
    record that keeps it, and schedule-quality profiles expose the
    fields the bench harness and CI validators rely on.

    Tracing and cost recording are process-global; every test that
    enables one disables it again so the rest of the suite runs with
    the zero-cost path. *)

open Sp_obs
module C = Sp_core.Compile
module Report = Sp_core.Report
module Machine = Sp_machine.Machine

(* ---- Json ----------------------------------------------------------- *)

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("n", Json.Int (-42));
      ("x", Json.Float 2.5);
      ("s", Json.Str "hi \"there\"\\ \n\t \x01");
      ("l", Json.List [ Json.Int 1; Json.Str "two"; Json.Obj [] ]);
      ("o", Json.Obj [ ("b", Json.Int 2); ("a", Json.Int 1) ]);
    ]

let rec json_eq a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> Float.abs (x -. y) < 1e-9
  | Json.Int x, Json.Float y | Json.Float y, Json.Int x ->
    Float.abs (float_of_int x -. y) < 1e-9
  | Json.Str x, Json.Str y -> x = y
  | Json.List x, Json.List y ->
    List.length x = List.length y && List.for_all2 json_eq x y
  | Json.Obj x, Json.Obj y ->
    List.length x = List.length y
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_eq v v') x y
  | _ -> false

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      let s = Json.to_string ~pretty sample in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip pretty=%b" pretty)
        true
        (json_eq sample (Json.of_string s)))
    [ false; true ]

let test_json_ordering () =
  (* objects serialize in insertion order — the determinism the bench
     harness relies on for byte-stable artifacts *)
  Alcotest.(check string)
    "insertion order" {|{"b":2,"a":1}|}
    (Json.to_string (Json.Obj [ ("b", Json.Int 2); ("a", Json.Int 1) ]))

let test_json_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "1 x"; "\"\\q\""; "nul" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | _ -> Alcotest.failf "parser accepted %S" s
      | exception Json.Parse_error _ -> ())
    bad;
  Alcotest.check_raises "non-finite float"
    (Invalid_argument "Json: non-finite float has no JSON representation")
    (fun () -> ignore (Json.to_string (Json.Float Float.nan)))

let test_json_error_positions () =
  (* parse errors carry 1-based line and column of the offending byte,
     so a hand-edited artifact fails with an actionable message *)
  List.iter
    (fun (src, msg) ->
      match Json.of_string src with
      | _ -> Alcotest.failf "parser accepted %S" src
      | exception Json.Parse_error got ->
        Alcotest.(check string) (Printf.sprintf "position for %S" src) msg got)
    [
      ("{", "line 1, column 2: expected '\"', found end of input");
      ("[1,]", "line 1, column 4: unexpected ']'");
      ("{\n  \"a\": }", "line 2, column 8: unexpected '}'");
      ("nul", "line 1, column 1: bad literal (wanted null)");
      ("1 x", "line 1, column 3: trailing garbage");
      ("{\"a\":1,\n\"b\":[1,\n2,]}", "line 3, column 3: unexpected ']'");
    ]

let test_json_member_path () =
  let j = Json.of_string {|{"a":{"b":[10,20]},"c":3}|} in
  Alcotest.(check bool)
    "member c" true
    (Json.member "c" j = Some (Json.Int 3));
  Alcotest.(check bool) "member missing" true (Json.member "z" j = None);
  Alcotest.(check bool)
    "path a.b" true
    (match Json.path [ "a"; "b" ] j with Some (Json.List _) -> true | _ -> false);
  Alcotest.(check bool) "path dead end" true (Json.path [ "c"; "x" ] j = None)

(* ---- Trace ---------------------------------------------------------- *)

let span_name = function
  | Trace.Span { name; _ } | Trace.Instant { name; _ } -> name

let test_trace_disabled () =
  Trace.enable ();
  Trace.disable ();
  let forced = ref false in
  let v =
    Trace.span ~args:(fun () -> forced := true; []) "off" (fun () -> 7)
  in
  Trace.instant ~args:(fun () -> forced := true; []) "off2";
  Alcotest.(check int) "span returns value" 7 v;
  Alcotest.(check bool) "no events buffered" true (Trace.events () = []);
  Alcotest.(check bool) "args thunk not forced" false !forced

let test_trace_enabled () =
  Trace.enable ();
  let v =
    Trace.span ~args:(fun () -> [ ("k", Trace.I 1) ]) "outer" (fun () ->
        Trace.instant "mid";
        Trace.span "inner" (fun () -> 42))
  in
  Trace.disable ();
  Alcotest.(check int) "nested result" 42 v;
  let evs = Trace.events () in
  Alcotest.(check (list string))
    "start-time order" [ "outer"; "mid"; "inner" ] (List.map span_name evs);
  (match evs with
  | Trace.Span { args; dur; _ } :: _ ->
    Alcotest.(check bool) "args recorded" true (args = [ ("k", Trace.I 1) ]);
    Alcotest.(check bool) "non-negative duration" true (Int64.compare dur 0L >= 0)
  | _ -> Alcotest.fail "first event is not the outer span");
  match Json.member "traceEvents" (Trace.to_chrome ()) with
  | Some (Json.List l) ->
    Alcotest.(check int) "chrome event count" 3 (List.length l)
  | _ -> Alcotest.fail "to_chrome lacks traceEvents"

let test_trace_error_span () =
  Trace.enable ();
  (try ignore (Trace.span "boom" (fun () -> failwith "bang")) with
  | Failure m -> Alcotest.(check string) "re-raised" "bang" m);
  Trace.disable ();
  match Trace.events () with
  | [ Trace.Span { name = "boom"; args; _ } ] ->
    Alcotest.(check bool)
      "error attribute" true
      (List.mem_assoc "error" args)
  | _ -> Alcotest.fail "escaping exception did not record a span"

let test_trace_compile_coverage () =
  (* every compile phase shows up as a span — the w2c --trace contract;
     the conditional makes hierarchical reduction reduce an if *)
  Trace.enable ();
  let b = Sp_ir.Builder.create "cov" in
  let a = Sp_ir.Builder.farray b "a" 48 in
  let k = Sp_ir.Builder.fconst b 2.0 in
  Sp_ir.Builder.for_ b (Sp_ir.Region.Const 40) (fun i ->
      let x = Sp_ir.Builder.load_iv b a i 0 in
      Sp_ir.Builder.store_iv b a i 0 (Sp_ir.Builder.fmul b x k));
  let c = Sp_ir.Builder.fcmp b Sp_machine.Opkind.Gt k k in
  Sp_ir.Builder.if_ b c
    ~then_:(fun () -> Sp_ir.Builder.store b ~off:0 a k)
    ~else_:(fun () -> Sp_ir.Builder.store b ~off:1 a k);
  ignore (C.program Machine.warp (Sp_ir.Builder.finish b));
  Trace.disable ();
  let names = List.map span_name (Trace.events ()) in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (phase ^ " span present") true (List.mem phase names))
    [
      "compile"; "compile.ddg"; "compile.compact"; "compile.mii";
      "compile.modsched"; "compile.mve"; "compile.emit"; "compile.validate";
      "compile.reduce";
    ]

(* ---- the --metrics document ----------------------------------------- *)

module Service = Sp_serve.Service

let metrics_names =
  [ "exact.backjumps"; "exact.fuel_spent"; "exact.nodes_expanded";
    "exact.nogood_hits"; "exact.pruned"; "modsched.fuel_spent";
    "modsched.intervals_probed"; "serve.cache.evict"; "serve.cache.hit";
    "serve.cache.insert"; "serve.cache.miss"; "serve.cache.reject";
    "sim.cycles"; "sim.dyn_ops" ]

(* The (name, value) pairs of a rendered document, in document order;
   fails unless schema_version is 1 and every entry is a counter. *)
let metric_values j =
  Alcotest.(check bool)
    "schema_version" true
    (Json.member "schema_version" j = Some (Json.Int 1));
  match Json.member "metrics" j with
  | Some (Json.Obj kvs) ->
    List.map
      (fun (name, v) ->
        match (Json.member "type" v, Json.member "value" v) with
        | Some (Json.Str "counter"), Some (Json.Int n) -> (name, n)
        | _ -> Alcotest.failf "%s is not a counter" name)
      kvs
  | _ -> Alcotest.fail "document lacks a metrics object"

let check_metric vs name expected =
  Alcotest.(check int) name expected (List.assoc name vs)

let test_metrics_shape () =
  let vs = metric_values (Service.metrics_json Cost.empty []) in
  Alcotest.(check (list string))
    "the kept names, sorted" metrics_names (List.map fst vs);
  Alcotest.(check (list string))
    "sorted" (List.sort compare (List.map fst vs)) (List.map fst vs);
  List.iter (fun name -> check_metric vs name 0) metrics_names

(* The population program branch2.0 certifies only through a search:
   every [modsched.*] and [exact.*] name reads the loop reports or the
   cost profile. The pinned values are what [w2c compile --opt exact
   --metrics] reports for it ([devtools/smoke/branch2.w2]). *)
let test_metrics_compile () =
  let k =
    (List.find
       (fun (e : Sp_kernels.Suite.entry) ->
         e.Sp_kernels.Suite.kernel.Sp_kernels.Kernel.name = "branch2.0")
       Sp_kernels.Suite.all)
      .Sp_kernels.Suite.kernel
  in
  let config =
    { C.default with C.certifier = Some (Sp_opt.Certify.hook ()) }
  in
  let p = Sp_kernels.Kernel.program k in
  Cost.enable ();
  Fun.protect ~finally:Cost.disable @@ fun () ->
  let r, cost = Cost.collect (fun () -> C.program ~config Machine.warp p) in
  let vs = metric_values (Service.metrics_json cost r.C.loops) in
  let sum f = List.fold_left (fun acc lr -> acc + f lr) 0 r.C.loops in
  let units c = List.assoc c (Cost.counter_totals cost) in
  check_metric vs "modsched.intervals_probed" (sum (fun lr -> lr.C.probed));
  check_metric vs "modsched.fuel_spent" (sum (fun lr -> lr.C.fuel_spent));
  check_metric vs "exact.fuel_spent"
    (sum (fun lr ->
         match lr.C.cert with
         | Some (C.Cert_optimal { spent } | C.Cert_improved { spent; _ }
                | C.Cert_unknown { spent; _ }) -> spent
         | None -> 0));
  check_metric vs "exact.nodes_expanded" (units Cost.Exact_node);
  check_metric vs "exact.pruned"
    (units Cost.Exact_prune_window + units Cost.Exact_prune_resource);
  check_metric vs "exact.nogood_hits" (units Cost.Exact_nogood_hit);
  check_metric vs "exact.backjumps" (units Cost.Exact_backjump);
  List.iter
    (fun (name, expected) -> check_metric vs name expected)
    [ ("modsched.intervals_probed", 5); ("modsched.fuel_spent", 104);
      ("exact.fuel_spent", 159); ("exact.nodes_expanded", 155);
      ("exact.pruned", 36); ("exact.nogood_hits", 67);
      ("exact.backjumps", 24) ]

(* A cached compile and its simulated run: the [sim.*] names read the
   simulator's result, the [serve.cache.*] names the cache's stats. *)
let test_metrics_run_cache () =
  let p =
    Sp_lang.Lower.compile_source
      (In_channel.with_open_bin "../examples/saxpy.w2" In_channel.input_all)
  in
  let cache = Sp_serve.Cache.create ~capacity:16 in
  let config = { C.default with C.cache = Some (Sp_serve.Cache.hook cache) } in
  let r = C.program ~config Machine.warp p in
  let sim =
    Sp_vliw.Sim.run
      ~init:(fun st -> Sp_kernels.Kernel.init_all_arrays st p)
      Machine.warp p r.C.code
  in
  let st = Sp_serve.Cache.stats cache in
  let vs =
    metric_values (Service.metrics_json ~sim ~cache:st Cost.empty r.C.loops)
  in
  check_metric vs "sim.cycles" sim.Sp_vliw.Sim.cycles;
  check_metric vs "sim.dyn_ops" sim.Sp_vliw.Sim.dyn_ops;
  check_metric vs "serve.cache.hit" st.Sp_serve.Cache.hits;
  check_metric vs "serve.cache.miss" st.Sp_serve.Cache.misses;
  check_metric vs "serve.cache.reject" st.Sp_serve.Cache.rejects;
  check_metric vs "serve.cache.insert" st.Sp_serve.Cache.inserts;
  check_metric vs "serve.cache.evict" st.Sp_serve.Cache.evictions;
  (* what [w2c run --cache 16 --metrics] reports for saxpy.w2 *)
  List.iter
    (fun (name, expected) -> check_metric vs name expected)
    [ ("sim.cycles", 445); ("sim.dyn_ops", 899); ("serve.cache.miss", 1);
      ("serve.cache.insert", 1); ("serve.cache.hit", 0) ]

(* ---- Report --------------------------------------------------------- *)

let compiled_report () =
  let b = Sp_ir.Builder.create "prof" in
  let a = Sp_ir.Builder.farray b "a" 48 in
  let k = Sp_ir.Builder.fconst b 1.5 in
  Sp_ir.Builder.for_ b (Sp_ir.Region.Const 40) (fun i ->
      let x = Sp_ir.Builder.load_iv b a i 0 in
      Sp_ir.Builder.store_iv b a i 0 (Sp_ir.Builder.fadd b x k));
  let r = C.program Machine.warp (Sp_ir.Builder.finish b) in
  match r.C.loops with
  | lr :: _ -> lr
  | [] -> Alcotest.fail "no loop report"

(* One loop's object of the program report, read through the public
   renderer. *)
let loop_json lr =
  match
    Json.member "loops"
      (Report.to_json Machine.warp ~name:"t" ~code_size:0 [ lr ])
  with
  | Some (Json.List [ j ]) -> j
  | _ -> Alcotest.fail "report carries no loop object"

let test_report_loop () =
  let lr = compiled_report () in
  let j = loop_json lr in
  Alcotest.(check bool)
    "status" true
    (Json.member "status" j = Some (Json.Str "pipelined"));
  Alcotest.(check bool)
    "achieved ii" true
    (Json.member "achieved_ii" j = Option.map (fun ii -> Json.Int ii) lr.C.ii);
  (match Json.member "efficiency" j with
  | Some (Json.Float eff) ->
    Alcotest.(check bool) "efficiency in (0,1]" true (eff > 0. && eff <= 1.0)
  | _ -> Alcotest.fail "efficiency is not a float");
  Alcotest.(check bool)
    "prolog words = (sc-1)*ii" true
    (Json.member "prolog_words" j
    = Some (Json.Int ((lr.C.sc - 1) * Option.get lr.C.ii)));
  (match Json.member "mrt_occupancy" j with
  | Some (Json.Obj occ) when occ <> [] ->
    List.iter
      (fun (rname, occ) ->
        Alcotest.(check bool)
          (rname ^ " occupancy in (0,1]") true
          (match occ with Json.Float x -> x > 0. && x <= 1.0 | _ -> false))
      occ
  | _ -> Alcotest.fail "no mrt occupancy");
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (key ^ " present") true (Json.member key j <> None))
    [
      "loop"; "depth"; "status"; "res_mii"; "rec_mii"; "mii"; "seq_len";
      "achieved_ii"; "optimal_ii"; "efficiency"; "sc"; "unroll";
      "prolog_words"; "epilog_words"; "kernel_words"; "overhead";
      "intervals_probed"; "fuel_spent"; "mrt_occupancy";
    ]

let test_report_json () =
  let lr = compiled_report () in
  let sim =
    {
      Report.cycles = 100;
      flops = 40;
      mflops = 4.0;
      dyn_ops = 120;
      sem_ok = Some true;
      utilization = [ ("fadd", 0.4) ];
    }
  in
  let report () =
    Report.to_json Machine.warp ~name:"prof" ~code_size:10 ~sim [ lr ]
  in
  let j = report () in
  Alcotest.(check bool)
    "schema_version" true
    (Json.member "schema_version" j = Some (Json.Int 1));
  Alcotest.(check bool)
    "utilization nested" true
    (Json.path [ "utilization"; "fadd" ] j <> None);
  (* serialization is deterministic: same report, same bytes *)
  Alcotest.(check string)
    "byte-stable" (Json.to_string j)
    (Json.to_string (report ()))

(* ---- degraded-path statistics (the stats formerly dropped) ---------- *)

let test_degraded_stats () =
  let b = Sp_ir.Builder.create "starved" in
  let a = Sp_ir.Builder.farray b "a" 48 in
  let k = Sp_ir.Builder.fconst b 2.0 in
  Sp_ir.Builder.for_ b (Sp_ir.Region.Const 40) (fun i ->
      let x = Sp_ir.Builder.load_iv b a i 0 in
      let y = Sp_ir.Builder.load_iv b a i 1 in
      Sp_ir.Builder.store_iv b a i 0
        (Sp_ir.Builder.fadd b (Sp_ir.Builder.fmul b x k) y));
  let p = Sp_ir.Builder.finish b in
  let config = { C.default with C.fuel = Some 1 } in
  let r = C.program ~config Machine.warp p in
  match r.C.loops with
  | lr :: _ ->
    Alcotest.(check string)
      "status" "budget-exhausted"
      (C.status_to_string lr.C.status);
    Alcotest.(check bool) "probed recorded" true (lr.C.probed > 0);
    Alcotest.(check bool) "fuel recorded" true (lr.C.fuel_spent > 0)
  | [] -> Alcotest.fail "no loop report"

(* ---- Explain: the scheduler decision log ---------------------------- *)

let pipelined_program () =
  let b = Sp_ir.Builder.create "xpl" in
  let a = Sp_ir.Builder.farray b "a" 48 in
  let k = Sp_ir.Builder.fconst b 1.5 in
  Sp_ir.Builder.for_ b (Sp_ir.Region.Const 40) (fun i ->
      let x = Sp_ir.Builder.load_iv b a i 0 in
      Sp_ir.Builder.store_iv b a i 0 (Sp_ir.Builder.fadd b x k));
  Sp_ir.Builder.finish b

let test_explain_disabled () =
  Explain.disable ();
  ignore (C.program Machine.warp (pipelined_program ()));
  Alcotest.(check bool) "no events when disabled" true (Explain.events () = [])

let test_explain_compile () =
  Explain.enable ();
  ignore (C.program Machine.warp (pipelined_program ()));
  let evs = Explain.events () in
  Explain.disable ();
  let has f = List.exists f evs in
  Alcotest.(check bool)
    "bounds recorded with a binding constraint" true
    (has (function
      | l, Explain.Bounds { mii; res_mii; rec_mii; binding; critical; _ } ->
        l = 0 && mii >= res_mii && mii >= rec_mii
        && List.mem binding [ "resource"; "recurrence"; "control" ]
        && critical <> ""
      | _ -> false));
  Alcotest.(check bool)
    "probe success recorded" true
    (has (function
      | 0, Explain.Probe_ok { s; span; sc } -> s > 0 && span > 0 && sc > 0
      | _ -> false));
  Alcotest.(check bool)
    "mve decision recorded" true
    (has (function
      | 0, Explain.Mve_choice { unroll; binding_q; _ } ->
        unroll >= 1 && binding_q >= 1
      | _ -> false));
  Alcotest.(check bool)
    "outcome recorded" true
    (has (function
      | 0, Explain.Outcome { status = "pipelined"; ii = Some _; _ } -> true
      | _ -> false));
  (* straight-line code outside the loop is stamped loop -1, never 0 *)
  Alcotest.(check bool)
    "loop stamps are -1 or 0 only" true
    (List.for_all (fun (l, _) -> l = -1 || l = 0) evs)

let test_explain_json_stable () =
  let run () =
    Explain.enable ();
    ignore (C.program Machine.warp (pipelined_program ()));
    let s = Json.to_string ~pretty:true (Explain.to_json ()) in
    Explain.disable ();
    s
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-stable across identical runs" a b;
  (* and the artifact is valid JSON of the parser's own dialect *)
  match Json.of_string a with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "explain artifact is not an object"

let test_explain_fuel_out () =
  Explain.enable ();
  let config = { C.default with C.fuel = Some 1 } in
  ignore (C.program ~config Machine.warp (pipelined_program ()));
  let evs = Explain.events () in
  Explain.disable ();
  Alcotest.(check bool)
    "fuel exhaustion recorded" true
    (List.exists
       (function 0, Explain.Fuel_out { s } -> s > 0 | _ -> false)
       evs);
  Alcotest.(check bool)
    "budget-exhausted outcome recorded" true
    (List.exists
       (function
         | 0, Explain.Outcome { status = "budget-exhausted"; _ } -> true
         | _ -> false)
       evs)

(* ---- Render: visual schedule artifacts ------------------------------ *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_render_views () =
  Render.disable ();
  let r0 = C.program Machine.warp (pipelined_program ()) in
  Alcotest.(check bool)
    "no views when disabled" true
    (List.for_all (fun lr -> lr.C.view = None) r0.C.loops);
  Render.enable ();
  let r = C.program Machine.warp (pipelined_program ()) in
  Render.disable ();
  match r.C.loops with
  | [ { C.view = Some v; ii = Some ii; sc; unroll; _ } ] ->
    Alcotest.(check int) "view ii" ii v.Render.v_ii;
    Alcotest.(check int) "view sc" sc v.Render.v_sc;
    Alcotest.(check int) "view unroll" unroll v.Render.v_unroll;
    Alcotest.(check bool) "ops present" true (v.Render.v_ops <> []);
    List.iter
      (fun (o : Render.op_row) ->
        Alcotest.(check int)
          "stage = time / ii" (o.Render.op_time / ii) o.Render.op_stage)
      v.Render.v_ops;
    (* MRT demand never exceeds the resource limit in a valid schedule,
       and every row has exactly II residues *)
    List.iter
      (fun (rr : Render.res_row) ->
        Alcotest.(check int) "II residues" ii (Array.length rr.Render.rr_counts);
        Array.iter
          (fun c ->
            Alcotest.(check bool)
              (rr.Render.rr_name ^ " within limit") true
              (c >= 0 && c <= rr.Render.rr_limit))
          rr.Render.rr_counts)
      v.Render.v_mrt;
    List.iter
      (fun (lf : Render.life_row) ->
        Alcotest.(check bool)
          "death >= birth" true
          (lf.Render.lf_death >= lf.Render.lf_birth);
        Alcotest.(check bool) "q >= 1" true (lf.Render.lf_q >= 1))
      v.Render.v_lifetimes;
    let ascii = Render.to_ascii v in
    List.iter
      (fun frag ->
        Alcotest.(check bool)
          (frag ^ " in ascii") true
          (contains ~affix:frag ascii))
      [ "loop 0"; "kernel gantt"; "mrt occupancy" ];
    let html = Render.to_html ~title:"t" [ v ] in
    Alcotest.(check bool)
      "html has inline svg" true
      (contains ~affix:"<svg" html);
    (* self-contained: no external fetches of any kind *)
    List.iter
      (fun banned ->
        Alcotest.(check bool)
          ("no " ^ banned) false
          (contains ~affix:banned html))
      [ "http://"; "https://"; "<script src"; "<link" ];
    Alcotest.(check string)
      "html deterministic" html
      (Render.to_html ~title:"t" [ v ])
  | _ -> Alcotest.fail "expected one pipelined loop with a view"

(* ---- Report over degraded loops ------------------------------------- *)

module Kernel = Sp_kernels.Kernel

let test_profile_degraded () =
  (* a fault mid-placement degrades the loop to serial code; reporting
     the measurement must not raise and must carry the search stats *)
  let report (meas : Kernel.measurement) =
    Report.to_json Machine.warp ~name:meas.Kernel.kernel
      ~code_size:meas.Kernel.code_size ?sim:(Result.to_option meas.Kernel.sim)
      meas.Kernel.loops
  in
  let starved = pipelined_program () in
  Sp_util.Fault.arm ~site:"modsched.place" ~after:1;
  let meas =
    Kernel.run Machine.warp
      (Kernel.mk "deg" ~init:(Kernel.init_all_arrays ~seed:1)
         (Kernel.Ir (fun () -> starved)))
  in
  Sp_util.Fault.disarm ();
  Alcotest.(check bool) "run completed" true (Result.is_ok meas.Kernel.sim);
  (match meas.Kernel.loops with
  | [ lr ] ->
    let j = loop_json lr in
    let status =
      match Json.member "status" j with Some (Json.Str s) -> s | _ -> ""
    in
    Alcotest.(check bool)
      "degraded status" true
      (String.length status >= 8 && String.sub status 0 8 = "degraded");
    Alcotest.(check bool)
      "not pipelined" true
      (Json.member "achieved_ii" j = Some Json.Null);
    ignore (Json.to_string (report meas))
  | _ -> Alcotest.fail "expected one loop report");
  (* same contract on the fuel-exhaustion path *)
  let config = { C.default with C.fuel = Some 1 } in
  let meas2 =
    Kernel.run ~config Machine.warp
      (Kernel.mk "bex" ~init:(Kernel.init_all_arrays ~seed:1)
         (Kernel.Ir (fun () -> pipelined_program ())))
  in
  match meas2.Kernel.loops with
  | [ lr ] ->
    let j = loop_json lr in
    Alcotest.(check bool)
      "budget-exhausted status" true
      (Json.member "status" j = Some (Json.Str "budget-exhausted"));
    let positive key =
      match Json.member key j with Some (Json.Int n) -> n > 0 | _ -> false
    in
    Alcotest.(check bool) "probed > 0" true (positive "intervals_probed");
    Alcotest.(check bool) "fuel spent > 0" true (positive "fuel_spent");
    ignore (Json.to_string (report meas2))
  | _ -> Alcotest.fail "expected one loop report"

(* ---- simulator utilization accounting ------------------------------- *)

(** On [Machine.serial] every operation reserves exactly one slot of
    the single universal resource, so the simulator's per-resource
    issue-slot uses must total the dynamic operation count — and
    {!Sp_vliw.Stats.utilization} must invert back to the same total. *)
let prop_utilization_sums =
  QCheck2.Test.make ~name:"res_busy sums to dyn_ops (serial)" ~count:40
    ~print:(Fmt.str "%a" Gen.pp_spec) Gen.spec_gen (fun sp ->
      let m = Machine.serial in
      let p, init, inputs = Gen.build sp in
      let r = C.program m p in
      let sim = Sp_vliw.Sim.run ~init ~inputs m p r.C.code in
      let busy = Array.fold_left ( + ) 0 sim.Sp_vliw.Sim.res_busy in
      if busy <> sim.Sp_vliw.Sim.dyn_ops then
        QCheck2.Test.fail_reportf "res_busy total %d <> dyn_ops %d" busy
          sim.Sp_vliw.Sim.dyn_ops;
      let util =
        Sp_vliw.Stats.utilization m ~cycles:sim.Sp_vliw.Sim.cycles
          ~res_busy:sim.Sp_vliw.Sim.res_busy
      in
      let recovered =
        List.fold_left
          (fun acc (rname, u) ->
            let res = Machine.find_resource m rname in
            acc +. (u *. float_of_int (sim.Sp_vliw.Sim.cycles * res.Machine.count)))
          0. util
      in
      Float.abs (recovered -. float_of_int sim.Sp_vliw.Sim.dyn_ops) < 1e-6)

(* ---- Series: rolling time series on a logical clock ----------------- *)

let test_series_ring () =
  let s =
    Series.create ~capacity:4 ~window:4 ~lo:0.0 ~width:1.0 ~buckets:8 ()
  in
  for i = 0 to 9 do
    Series.add s (float_of_int i)
  done;
  Alcotest.(check int) "total count survives eviction" 10 (Series.count s);
  Alcotest.(check (list (pair int (float 1e-9))))
    "newest capacity retained, oldest first"
    [ (6, 6.0); (7, 7.0); (8, 8.0); (9, 9.0) ]
    (Series.retained s)

let test_series_windows () =
  let s =
    Series.create ~capacity:64 ~window:4 ~lo:0.0 ~width:1.0 ~buckets:16 ()
  in
  (* seqs 0..9 fall into windows 0 (0..3), 1 (4..7), 2 (8..9) *)
  for i = 0 to 9 do
    Series.add s (float_of_int i)
  done;
  (match Series.windows s with
  | [ w0; w1; w2 ] ->
    Alcotest.(check int) "w0 index" 0 w0.Series.w_index;
    Alcotest.(check int) "w0 count" 4 w0.Series.w_count;
    Alcotest.(check (float 1e-9)) "w0 sum" 6.0 w0.Series.w_sum;
    Alcotest.(check (float 1e-9)) "w1 min" 4.0 w1.Series.w_min;
    Alcotest.(check (float 1e-9)) "w1 max" 7.0 w1.Series.w_max;
    Alcotest.(check int) "w2 count" 2 w2.Series.w_count;
    (match Series.quantile w1 0.5 with
    | Some v ->
      Alcotest.(check bool) "w1 median in range" true (v >= 4.0 && v <= 7.0)
    | None -> Alcotest.fail "median of a full window")
  | ws ->
    Alcotest.fail (Printf.sprintf "expected 3 windows, got %d" (List.length ws)));
  (* a window index with no samples is empty, and empty windows have no
     quantiles *)
  let empty = Series.window_at s 7 in
  Alcotest.(check int) "empty window count" 0 empty.Series.w_count;
  Alcotest.(check bool)
    "empty window quantiles are None" true
    (Series.quantile empty 0.5 = None && Series.quantile empty 0.99 = None)

let test_series_shard_merge () =
  let shape () =
    Series.create ~capacity:8 ~window:4 ~lo:0.0 ~width:1.0 ~buckets:8 ()
  in
  let a = shape () and b = shape () in
  List.iter (fun i -> Series.add ~seq:i a 1.0) [ 0; 1; 2 ];
  List.iter (fun i -> Series.add ~seq:i b 0.0) [ 5; 6 ];
  let m = Series.merge a b in
  Alcotest.(check int) "merged total" 5 (Series.count m);
  Alcotest.(check (list int))
    "merged seqs in order" [ 0; 1; 2; 5; 6 ]
    (List.map fst (Series.retained m));
  let j = Series.to_json m in
  Alcotest.(check bool)
    "series snapshot is versioned" true
    (Json.member "schema" j = Some (Json.Str "series/1"));
  Alcotest.(check string)
    "snapshot deterministic" (Json.to_string j)
    (Json.to_string (Series.to_json m))

let win_eq a b =
  a.Series.w_index = b.Series.w_index
  && a.Series.w_count = b.Series.w_count
  && Float.abs (a.Series.w_sum -. b.Series.w_sum) < 1e-9
  && (a.Series.w_count = 0
     || Float.abs (a.Series.w_min -. b.Series.w_min) < 1e-9
        && Float.abs (a.Series.w_max -. b.Series.w_max) < 1e-9)
  && a.Series.w_hist.Sp_util.Histogram.counts
     = b.Series.w_hist.Sp_util.Histogram.counts

let prop_series_merge_window =
  (* shards that each saw a slice of one window combine into its true
     aggregate in any order: associative, commutative, empty identity *)
  let slice =
    QCheck2.Gen.(
      small_list
        (pair (int_range 8 11) (map (fun i -> float_of_int i /. 2.0) (int_range 0 19))))
  in
  QCheck2.Test.make
    ~name:"series: window merge associative, commutative, unital" ~count:100
    QCheck2.Gen.(triple slice slice slice)
    (fun (xs, ys, zs) ->
      let mk samples =
        let s =
          Series.create ~capacity:64 ~window:4 ~lo:0.0 ~width:1.0 ~buckets:10 ()
        in
        List.iter (fun (seq, v) -> Series.add ~seq s v) samples;
        Series.window_at s 2
      in
      let wa = mk xs and wb = mk ys and wc = mk zs in
      win_eq
        (Series.merge_window (Series.merge_window wa wb) wc)
        (Series.merge_window wa (Series.merge_window wb wc))
      && win_eq (Series.merge_window wa wb) (Series.merge_window wb wa)
      && win_eq wa (Series.merge_window wa (mk [])))

(* ---- span-tree reconstruction --------------------------------------- *)

let test_trace_tree () =
  let shared_before = Trace.events () in
  let r, evs =
    Trace.with_recording (fun () ->
        Trace.span "outer" (fun () ->
            Trace.span "inner1" (fun () -> ());
            Trace.instant "mark";
            Trace.span "inner2" (fun () -> ());
            17))
  in
  (match r with
  | Result.Ok v -> Alcotest.(check int) "result" 17 v
  | Result.Error _ -> Alcotest.fail "no error expected");
  Alcotest.(check bool)
    "recording leaves global state untouched" true
    ((not (Trace.enabled ())) && Trace.events () = shared_before);
  match Trace.tree_of_events evs with
  | [ Trace.Node n ] ->
    Alcotest.(check string) "root" "outer" n.t_name;
    Alcotest.(check (list string))
      "children nest under their parent, oldest first"
      [ "inner1"; "mark"; "inner2" ]
      (List.map (fun (Trace.Node c) -> c.t_name) n.t_children);
    Alcotest.(check bool)
      "the children are leaves" true
      (List.for_all (fun (Trace.Node c) -> c.t_children = []) n.t_children);
    (* the full form carries durations in microseconds *)
    Alcotest.(check bool)
      "full json has dur_us" true
      (match Trace.tree_json (Trace.Node n) with
      | Json.Obj kvs -> List.mem_assoc "dur_us" kvs
      | _ -> false)
  | _ -> Alcotest.fail "expected one root span"

let qt = QCheck_alcotest.to_alcotest

(* ---- deterministic work-cost accounting ------------------------------ *)

(** Arbitrary profiles assembled from single-cell rows: loops -1..3,
    every phase and counter reachable, including duplicate cells (the
    interesting merge case). *)
let gen_cost_profile =
  QCheck2.Gen.(
    map
      (fun cells ->
        List.fold_left
          (fun acc (l, (p, (c, n))) ->
            Cost.merge acc
              (Cost.row ~loop:l
                 (List.nth Cost.all_phases p)
                 [ (List.nth Cost.all_counters c, n) ]))
          Cost.empty cells)
      (small_list
         (pair (int_range (-1) 3)
            (pair
               (int_range 0 (List.length Cost.all_phases - 1))
               (pair
                  (int_range 0 (List.length Cost.all_counters - 1))
                  (int_range 0 50))))))

(* A loop report and a simulated run to vary: the fields the document
   reads are overwritten per case. *)
let metrics_templates =
  lazy
    (let lr = compiled_report () in
     let b = Sp_ir.Builder.create "tmpl" in
     let a = Sp_ir.Builder.farray b "a" 8 in
     Sp_ir.Builder.store b a ~off:0 (Sp_ir.Builder.fconst b 1.0);
     let p = Sp_ir.Builder.finish b in
     let r = C.program Machine.warp p in
     (lr, Sp_vliw.Sim.run Machine.warp p r.C.code))

let prop_metrics_read_records =
  let gen_cert =
    QCheck2.Gen.(
      opt
        (map2
           (fun k spent ->
             match k with
             | 0 -> C.Cert_optimal { spent }
             | 1 -> C.Cert_improved { heur_ii = 9; spent }
             | _ -> C.Cert_unknown { spent; proven_below = 3 })
           (int_range 0 2) (int_range 0 500)))
  in
  QCheck2.Test.make
    ~name:"metrics: every name reads the record that keeps it" ~count:100
    QCheck2.Gen.(
      quad gen_cost_profile
        (small_list (triple (int_range 0 9) (int_range 0 999) gen_cert))
        (opt (pair (int_range 1 10_000) (int_range 0 10_000)))
        (opt (list_repeat 5 (int_range 0 99))))
    (fun (cost, loops, sim, cache) ->
      let lr, sim0 = Lazy.force metrics_templates in
      let loops =
        List.map
          (fun (probed, fuel_spent, cert) ->
            { lr with C.probed; fuel_spent; cert })
          loops
      in
      let sim =
        Option.map
          (fun (cycles, dyn_ops) -> { sim0 with Sp_vliw.Sim.cycles; dyn_ops })
          sim
      in
      let cache =
        Option.map
          (function
            | [ hits; misses; rejects; inserts; evictions ] ->
              { Sp_serve.Cache.hits; misses; rejects; inserts; evictions;
                entries = 0 }
            | _ -> assert false)
          cache
      in
      let vs = metric_values (Service.metrics_json ?sim ?cache cost loops) in
      let sum f = List.fold_left (fun acc lr -> acc + f lr) 0 loops in
      let units c = List.assoc c (Cost.counter_totals cost) in
      let ran f = match sim with Some s -> f s | None -> 0 in
      let cached f = match cache with Some s -> f s | None -> 0 in
      List.map fst vs = metrics_names
      && vs
         = [ ("exact.backjumps", units Cost.Exact_backjump);
             ( "exact.fuel_spent",
               sum (fun lr ->
                   match lr.C.cert with
                   | Some (C.Cert_optimal { spent }
                          | C.Cert_improved { spent; _ }
                          | C.Cert_unknown { spent; _ }) -> spent
                   | None -> 0) );
             ("exact.nodes_expanded", units Cost.Exact_node);
             ("exact.nogood_hits", units Cost.Exact_nogood_hit);
             ( "exact.pruned",
               units Cost.Exact_prune_window + units Cost.Exact_prune_resource
             );
             ("modsched.fuel_spent", sum (fun lr -> lr.C.fuel_spent));
             ("modsched.intervals_probed", sum (fun lr -> lr.C.probed));
             ( "serve.cache.evict",
               cached (fun s -> s.Sp_serve.Cache.evictions) );
             ("serve.cache.hit", cached (fun s -> s.Sp_serve.Cache.hits));
             ("serve.cache.insert", cached (fun s -> s.Sp_serve.Cache.inserts));
             ("serve.cache.miss", cached (fun s -> s.Sp_serve.Cache.misses));
             ("serve.cache.reject", cached (fun s -> s.Sp_serve.Cache.rejects));
             ("sim.cycles", ran (fun s -> s.Sp_vliw.Sim.cycles));
             ("sim.dyn_ops", ran (fun s -> s.Sp_vliw.Sim.dyn_ops)) ])

let prop_cost_merge_laws =
  (* the shard-merge contract the parallel driver and the campaign rely
     on: any bracketing and any order of shard merges yields the same
     profile, with the empty profile as identity and totals additive *)
  QCheck2.Test.make ~name:"cost: merge associative, commutative, unital"
    ~count:200
    QCheck2.Gen.(triple gen_cost_profile gen_cost_profile gen_cost_profile)
    (fun (a, b, c) ->
      Cost.equal
        (Cost.merge (Cost.merge a b) c)
        (Cost.merge a (Cost.merge b c))
      && Cost.equal (Cost.merge a b) (Cost.merge b a)
      && Cost.equal a (Cost.merge a Cost.empty)
      && Cost.equal a (Cost.merge Cost.empty a)
      && Cost.total (Cost.merge a b) = Cost.total a + Cost.total b)

(** The [-j 1 ≡ -j N] identity end to end: compiling the same program
    sequentially and on an 8-domain pool records byte-identical cost
    profiles (collect/inject in loop order + commutative merge). *)
let test_cost_jobs_identity () =
  let profile_of ~jobs p =
    let was = Cost.enabled () in
    if not was then Cost.enable ();
    Fun.protect
      ~finally:(fun () -> if not was then Cost.disable ())
      (fun () ->
        let (_ : C.result), prof =
          Cost.collect (fun () ->
              C.program
                ~config:{ C.default with C.jobs }
                Machine.warp p)
        in
        prof)
  in
  let check name p =
    let p1 = profile_of ~jobs:1 p and p8 = profile_of ~jobs:8 p in
    Alcotest.(check bool) (name ^ ": profile nonempty") false (Cost.is_empty p1);
    Alcotest.(check bool) (name ^ ": -j1 = -j8") true (Cost.equal p1 p8);
    Alcotest.(check string)
      (name ^ ": identical artifacts")
      (Json.to_string (Cost.to_json p1))
      (Json.to_string (Cost.to_json p8));
    Alcotest.(check string)
      (name ^ ": identical folded stacks")
      (Cost.folded p1) (Cost.folded p8)
  in
  List.iter
    (fun k ->
      check k.Sp_kernels.Kernel.name (Sp_kernels.Kernel.program k))
    (List.filteri (fun i _ -> i < 5) Sp_kernels.Livermore.all);
  (* random sibling-loop corpus — the shape the parallel driver batches *)
  let specs =
    List.init 6 (fun i ->
        {
          Gen.seed = 100 + i;
          trip = 17;
          n_stmts = 3;
          use_if = i mod 2 = 0;
          use_accum = true;
          use_chan = false;
          carried_store = i mod 3 = 0;
          empty_body = false;
          maxlat = false;
        })
  in
  let p, _, _ = Gen.build_many specs in
  check "gen corpus" p

let cost_fixture =
  List.fold_left Cost.merge Cost.empty
    [
      Cost.row ~loop:0 Cost.P_ddg [ (Cost.Ddg_edge, 12) ];
      Cost.row ~loop:0 Cost.P_search
        [ (Cost.Mrt_probe, 40); (Cost.Heap_op, 7) ];
      Cost.row ~loop:1 Cost.P_bounds [ (Cost.Spath_relax, 25) ];
      Cost.row ~loop:(-1) Cost.P_other [ (Cost.Heap_op, 3) ];
    ]

(** Golden-file check of the flame/treemap render: pure function of the
    profile (stable colors from a label hash, no clocks), so the HTML
    is byte-stable. Regenerate [golden/cost_flame.golden] by pasting
    the new output when the format changes deliberately. *)
let test_cost_flame_golden () =
  let got = Render.flame_html ~title:"cost profile" (Cost.flame cost_fixture) in
  let ic = open_in "golden/cost_flame.golden" in
  let n = in_channel_length ic in
  let expected = really_input_string ic n in
  close_in ic;
  Alcotest.(check string) "flame html" expected got

(** MD5 of the [w2c --profile] text of every Livermore kernel,
    population program and example, once from the compile alone and
    once with the facts of a simulated run: the report's bytes. *)
let test_profile_golden () =
  let m = Machine.warp in
  let md5 s = Digest.to_hex (Digest.string s) in
  let b = Buffer.create 8192 in
  List.iter
    (fun (k : Kernel.t) ->
      let p = Kernel.program k in
      let r = C.program m p in
      let static =
        Fmt.str "%a"
          (Report.pp m ~name:p.Sp_ir.Program.name ~code_size:r.C.code_size)
          r.C.loops
      in
      let meas = Kernel.run m k in
      let simulated =
        Fmt.str "%a"
          (Report.pp
             ?sim:(Result.to_option meas.Kernel.sim)
             m ~name:meas.Kernel.kernel
             ~code_size:meas.Kernel.code_size)
          meas.Kernel.loops
      in
      Printf.bprintf b "%s %s %s\n" k.Kernel.name (md5 static) (md5 simulated))
    (Sp_kernels.Livermore.all
    @ List.map
        (fun (e : Sp_kernels.Suite.entry) -> e.Sp_kernels.Suite.kernel)
        Sp_kernels.Suite.all
    @ Test_compile.example_kernels ());
  Golden.check "golden/profile_md5.golden" (Buffer.contents b)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json ordering" `Quick test_json_ordering;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json error positions" `Quick test_json_error_positions;
    Alcotest.test_case "json member/path" `Quick test_json_member_path;
    Alcotest.test_case "trace disabled" `Quick test_trace_disabled;
    Alcotest.test_case "trace enabled" `Quick test_trace_enabled;
    Alcotest.test_case "trace error span" `Quick test_trace_error_span;
    Alcotest.test_case "trace compile coverage" `Quick
      test_trace_compile_coverage;
    Alcotest.test_case "metrics document shape" `Quick test_metrics_shape;
    Alcotest.test_case "metrics compile facts" `Quick test_metrics_compile;
    Alcotest.test_case "metrics run and cache facts" `Quick
      test_metrics_run_cache;
    Alcotest.test_case "profile loop" `Quick test_report_loop;
    Alcotest.test_case "report json" `Quick test_report_json;
    Alcotest.test_case "degraded stats" `Quick test_degraded_stats;
    Alcotest.test_case "explain disabled" `Quick test_explain_disabled;
    Alcotest.test_case "explain compile" `Quick test_explain_compile;
    Alcotest.test_case "explain json stable" `Quick test_explain_json_stable;
    Alcotest.test_case "explain fuel out" `Quick test_explain_fuel_out;
    Alcotest.test_case "render views" `Quick test_render_views;
    Alcotest.test_case "profile degraded" `Quick test_profile_degraded;
    Alcotest.test_case "series ring wraparound" `Quick test_series_ring;
    Alcotest.test_case "series windows" `Quick test_series_windows;
    Alcotest.test_case "series shard merge" `Quick test_series_shard_merge;
    Alcotest.test_case "trace span tree" `Quick test_trace_tree;
    Alcotest.test_case "cost jobs identity" `Quick test_cost_jobs_identity;
    Alcotest.test_case "cost flame golden" `Quick test_cost_flame_golden;
    qt prop_series_merge_window;
    qt prop_utilization_sums;
    qt prop_metrics_read_records;
    qt prop_cost_merge_laws;
    Alcotest.test_case "profile text golden" `Quick test_profile_golden;
  ]

(** Campaign-layer tests: the differential oracle, the delta-debugging
    minimizer, the regression bank (including replay of every banked
    [.w2] under [test/campaign/]), and the campaign driver's
    resumability and parallel-invariance contracts. *)

module Oracle = Sp_camp.Oracle
module Campaign = Sp_camp.Campaign
module Bank = Sp_camp.Bank
module Minimize = Sp_camp.Minimize
module Wgen = Sp_lang.Wgen
module Fault = Sp_util.Fault
module Pool = Sp_util.Pool
module Histogram = Sp_util.Histogram
module C = Sp_core.Compile

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let test_kind_roundtrip () =
  List.iter
    (fun k ->
      let s = Oracle.kind_to_string k in
      Alcotest.(check bool)
        (s ^ " round-trips") true
        (Oracle.kind_of_string s = Some k))
    Oracle.all_kinds;
  Alcotest.(check bool)
    "unknown kind rejected" true
    (Oracle.kind_of_string "bogus" = None)

(** A source that definitely pipelines on warp: a flat float update
    with enough latency to hide and no recurrence beyond the array. *)
let pipelined_src =
  "program t;\n\
   var\n\
  \  a : array [0..63] of float;\n\
  \  b : array [0..63] of float;\n\
   begin\n\
  \  for i := 0 to 40 do begin\n\
  \    a[i] := b[i] * 2.0 + 1.5;\n\
   end\n\
   end.\n"

let compile_src src =
  C.program Sp_machine.Machine.warp (Sp_lang.Lower.compile_source src)

let find_pipelined () =
  let r = compile_src pipelined_src in
  match List.find_opt (fun lr -> lr.C.ii <> None) r.C.loops with
  | Some lr -> lr
  | None -> Alcotest.fail "reference source did not pipeline"

let test_ii_violation () =
  let lr = find_pipelined () in
  Alcotest.(check bool)
    "achieved interval is sane" true
    (Oracle.ii_violation lr = None);
  Alcotest.(check bool)
    "ii below mii is impossible" true
    (Oracle.ii_violation { lr with C.ii = Some (lr.C.mii - 1) } <> None);
  Alcotest.(check bool)
    "ii above the serial restart is pointless" true
    (Oracle.ii_violation { lr with C.ii = Some (lr.C.seq_len + 1) } <> None)

let test_degradation () =
  let lr = find_pipelined () in
  Alcotest.(check bool)
    "pipelined loop is not degraded" true
    (Oracle.degradation lr = None);
  Alcotest.(check bool)
    "caught-error fallback is flagged" true
    (Oracle.degradation { lr with C.status = C.Degraded "boom" } <> None);
  Alcotest.(check bool)
    "budget exhaustion is flagged" true
    (Oracle.degradation { lr with C.status = C.Budget_exhausted } <> None)

(* ------------------------------------------------------------------ *)
(* Generator determinism                                               *)
(* ------------------------------------------------------------------ *)

let test_wgen_determinism () =
  List.iter
    (fun seed ->
      let a = Wgen.generate ~seed and b = Wgen.generate ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d regenerates identically" seed)
        true
        (Wgen.equal_program a b);
      (* print -> parse -> print is a fixpoint: banked repros are the
         printed form, so replay must see the very program minimized *)
      let s = Wgen.print a in
      Alcotest.(check string)
        (Printf.sprintf "seed %d print/parse round-trip" seed)
        s
        (Wgen.print (Sp_lang.Parser.parse s)))
    [ 1; 7; 42; 123; 999 ]

let test_compile_fingerprint_deterministic () =
  let src = Wgen.print (Wgen.generate ~seed:42) in
  Alcotest.(check string)
    "same source fingerprints equal"
    (C.fingerprint (compile_src src))
    (C.fingerprint (compile_src src))

(* ------------------------------------------------------------------ *)
(* Minimizer                                                           *)
(* ------------------------------------------------------------------ *)

(** First generated seed whose program degrades (rather than passes)
    when the placement fault is armed — i.e. one that actually reaches
    modulo scheduling. *)
let find_degrading_seed ocfg =
  let rec go seed =
    if seed > 100 then Alcotest.fail "no seed reaches the placement site"
    else begin
      Fault.arm ~site:"modsched.place" ~after:1;
      let k =
        Fun.protect ~finally:Fault.disarm (fun () ->
            Oracle.kind_of ocfg (Wgen.print (Wgen.generate ~seed)))
      in
      if k = Oracle.Degraded then seed else go (seed + 1)
    end
  in
  go 1

let test_minimizer () =
  let ocfg = { Oracle.default with Oracle.check_jobs = false } in
  let seed = find_degrading_seed ocfg in
  let ast = Wgen.generate ~seed in
  let budget = 60 in
  let evals = ref 0 in
  let predicate c =
    incr evals;
    Fault.arm ~site:"modsched.place" ~after:1;
    Fun.protect ~finally:Fault.disarm (fun () ->
        Oracle.kind_of ocfg (Wgen.print c))
    = Oracle.Degraded
  in
  let minimized, st = Minimize.minimize ~budget ~predicate ast in
  Alcotest.(check bool)
    "minimized program still fails the same way" true (predicate minimized);
  Alcotest.(check bool)
    "never larger than the input" true
    (Wgen.size minimized <= Wgen.size ast);
  Alcotest.(check bool)
    "respects the evaluation budget" true
    (st.Minimize.evals <= budget && st.Minimize.evals = !evals - 1)

(* ------------------------------------------------------------------ *)
(* Bank                                                                *)
(* ------------------------------------------------------------------ *)

let test_bank_roundtrip () =
  let e =
    Bank.mk ~seed:5 ~inject:("modsched.place", 2) ~fuel:9 ~max_cycles:777
      ~detail:"a note" ~kind:"crash" "program t;\nbegin\nend.\n"
  in
  (match Bank.of_string (Bank.to_string e) with
  | Error m -> Alcotest.fail ("round-trip parse failed: " ^ m)
  | Ok e' ->
    Alcotest.(check string) "kind" e.Bank.kind e'.Bank.kind;
    Alcotest.(check bool) "seed" true (e'.Bank.seed = Some 5);
    Alcotest.(check bool)
      "inject" true
      (e'.Bank.inject = Some ("modsched.place", 2));
    Alcotest.(check bool) "fuel" true (e'.Bank.fuel = Some 9);
    Alcotest.(check bool) "max_cycles" true (e'.Bank.max_cycles = Some 777);
    Alcotest.(check string) "detail" e.Bank.detail e'.Bank.detail;
    Alcotest.(check string) "source" e.Bank.src e'.Bank.src);
  Alcotest.(check string) "deterministic filename" "crash_s5.w2"
    (Bank.filename e)

let test_bank_append_only () =
  (* a unique path that does not exist yet; Bank.save creates it *)
  let dir =
    let f = Filename.temp_file "campbank" "" in
    Sys.remove f;
    f
  in
  let e = Bank.mk ~seed:3 ~kind:"mismatch" "program t;\nbegin\nend.\n" in
  (match Bank.save ~dir e with
  | None -> Alcotest.fail "first save must write"
  | Some path ->
    Alcotest.(check bool) "file exists" true (Sys.file_exists path);
    (match Bank.load_file path with
    | Error m -> Alcotest.fail ("banked file unreadable: " ^ m)
    | Ok e' -> Alcotest.(check string) "kind survives" "mismatch" e'.Bank.kind));
  Alcotest.(check bool)
    "second save keeps the first repro" true
    (Bank.save ~dir e = None);
  Alcotest.(check bool)
    "bank listing finds it" true
    (List.length (Bank.list_dir dir) = 1)

(** Every banked regression under [test/campaign/] must (a) reproduce
    its recorded verdict kind under its recorded trigger and (b) pass
    clean when replayed trigger-less — the bank is a set of fixed
    compiler bugs plus pinned pass-cases, not a set of open failures. *)
let test_bank_replay () =
  let files = Bank.list_dir "campaign" in
  Alcotest.(check bool)
    "bank is not empty" true
    (List.length files >= 6);
  List.iter
    (fun path ->
      match Bank.load_file path with
      | Error m -> Alcotest.fail (path ^ ": " ^ m)
      | Ok e ->
        let name = Filename.basename path in
        let expected =
          match Oracle.kind_of_string e.Bank.kind with
          | Some k -> k
          | None -> Alcotest.fail (name ^ ": unknown kind " ^ e.Bank.kind)
        in
        let ocfg =
          {
            Oracle.default with
            Oracle.fuel = e.Bank.fuel;
            Oracle.max_cycles =
              Option.value ~default:Oracle.default.Oracle.max_cycles
                e.Bank.max_cycles;
            Oracle.check_opt = (expected = Oracle.Opt_diverge);
          }
        in
        let triggered =
          match e.Bank.inject with
          | None -> Oracle.kind_of ocfg e.Bank.src
          | Some (site, k) ->
            Fault.arm ~site ~after:k;
            Fun.protect ~finally:Fault.disarm (fun () ->
                Oracle.kind_of ocfg e.Bank.src)
        in
        Alcotest.(check string)
          (name ^ " reproduces under its trigger")
          (Oracle.kind_to_string expected)
          (Oracle.kind_to_string triggered);
        Alcotest.(check string)
          (name ^ " passes trigger-less")
          (Oracle.kind_to_string Oracle.Pass)
          (Oracle.kind_to_string (Oracle.kind_of Oracle.default e.Bank.src)))
    files

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

let hist_sig h =
  ( Histogram.count h,
    Histogram.mean h,
    Histogram.minimum h,
    Histogram.maximum h )

let check_summaries_equal what (a : Campaign.summary) (b : Campaign.summary) =
  Alcotest.(check int) (what ^ ": total") a.Campaign.total b.Campaign.total;
  Alcotest.(check int) (what ^ ": pass") a.Campaign.pass b.Campaign.pass;
  Alcotest.(check bool)
    (what ^ ": verdicts") true
    (a.Campaign.verdicts = b.Campaign.verdicts);
  Alcotest.(check bool)
    (what ^ ": statuses") true
    (List.sort compare a.Campaign.statuses
    = List.sort compare b.Campaign.statuses);
  List.iter
    (fun (tag, ha, hb) ->
      Alcotest.(check bool) (what ^ ": " ^ tag) true (hist_sig ha = hist_sig hb))
    [
      ("gap", a.Campaign.gap, b.Campaign.gap);
      ("eff", a.Campaign.eff, b.Campaign.eff);
      ("csize", a.Campaign.csize, b.Campaign.csize);
    ];
  Alcotest.(check bool)
    (what ^ ": failing seeds") true
    (List.map (fun f -> f.Campaign.f_seed) a.Campaign.failures
    = List.map (fun f -> f.Campaign.f_seed) b.Campaign.failures);
  Alcotest.(check int)
    (what ^ ": unminimized")
    a.Campaign.unminimized b.Campaign.unminimized

let base_cfg = { Campaign.default with Campaign.lo = 1; hi = 24; jobs = 1 }

let test_campaign_shard_merge () =
  let full = Campaign.run base_cfg in
  let left = Campaign.run { base_cfg with Campaign.hi = 12 } in
  let right = Campaign.run { base_cfg with Campaign.lo = 13 } in
  check_summaries_equal "1..24 = merge(1..12, 13..24)" full
    (Campaign.merge left right);
  Alcotest.(check int) "covers the range" 24 full.Campaign.total

let test_campaign_jobs_invariant () =
  let cfg = { base_cfg with Campaign.hi = 16 } in
  let seq = Campaign.run cfg in
  let par = Campaign.run { cfg with Campaign.jobs = 3 } in
  check_summaries_equal "jobs=1 = jobs=3" seq par

(* ------------------------------------------------------------------ *)
(* Pool.try_run (the campaign's survival primitive)                    *)
(* ------------------------------------------------------------------ *)

let test_pool_try_run () =
  let pool = Pool.create ~jobs:3 in
  let results =
    Pool.try_run pool
      (List.init 5 (fun i () ->
           if i = 1 then failwith "one"
           else if i = 3 then failwith "three"
           else i * 10))
  in
  let describe = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error (Failure m, _) -> "err:" ^ m
    | Error (e, _) -> "err:" ^ Printexc.to_string e
  in
  Alcotest.(check (list string))
    "each slot carries its own outcome"
    [ "ok:0"; "err:one"; "ok:20"; "err:three"; "ok:40" ]
    (List.map describe results)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ("oracle kind strings round-trip", `Quick, test_kind_roundtrip);
    ("oracle flags impossible intervals", `Quick, test_ii_violation);
    ("oracle flags degradations", `Quick, test_degradation);
    ("generator is deterministic by seed", `Quick, test_wgen_determinism);
    ( "compilation fingerprint is deterministic",
      `Quick,
      test_compile_fingerprint_deterministic );
    ("minimizer shrinks and preserves the kind", `Slow, test_minimizer);
    ("bank entry round-trips", `Quick, test_bank_roundtrip);
    ("bank is append-only", `Quick, test_bank_append_only);
    ("banked regressions replay", `Slow, test_bank_replay);
    ("campaign shard-merge resumability", `Slow, test_campaign_shard_merge);
    ("campaign summary is jobs-invariant", `Slow, test_campaign_jobs_invariant);
    ("pool try_run captures per-slot failures", `Quick, test_pool_try_run);
  ]

(** Graceful-degradation tests.

    The contract under test: no matter which internal pass fails — a
    deterministically injected fault at any registered site, or an
    exhausted placement budget — compilation terminates normally, the
    affected loop reverts to its serial schedule (reported as a
    degraded status), and the emitted program still validates and
    computes exactly what the interpreter computes. *)

module C = Sp_core.Compile
module Fault = Sp_util.Fault
module V = Sp_vliw.Validate
module Machine = Sp_machine.Machine

(** A spec that definitely pipelines on warp, so every fault site is
    actually reached. *)
let pipeline_spec =
  {
    Gen.seed = 7;
    trip = 40;
    n_stmts = 3;
    use_if = false;
    use_accum = false;
    use_chan = false;
    carried_store = false;
    empty_body = false;
    maxlat = false;
  }

(** Simulate [code] and compare final observable state against the
    sequential interpreter. *)
let equal_run m (p, init, inputs) code =
  let sim = Sp_vliw.Sim.run ~inputs ~init m p code in
  let oracle = Sp_ir.Interp.run ~inputs ~init p in
  Sp_ir.Machine_state.observably_equal oracle.Sp_ir.Interp.state
    sim.Sp_vliw.Sim.state

let expected_sites = [ "emit.kernel"; "modsched.place"; "mve.assign" ]

let test_sites_registered () =
  let sites = Fault.sites () in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " registered") true (List.mem s sites))
    expected_sites

let test_site_degrades site () =
  Fun.protect ~finally:Fault.disarm (fun () ->
      Fault.arm ~site ~after:1;
      let ((p, _, _) as built) = Gen.build pipeline_spec in
      let r = C.program Machine.warp p in
      Alcotest.(check bool) (site ^ " fired") true (Fault.fired () = Some site);
      Alcotest.(check bool)
        (Fmt.str "a loop degrades under %s" site)
        true
        (List.exists (fun lr -> C.is_degraded lr.C.status) r.C.loops);
      Alcotest.(check bool) "degraded code validates" true
        (V.ok (V.all Machine.warp r.C.code));
      Alcotest.(check bool) "degraded code matches the interpreter" true
        (equal_run Machine.warp built r.C.code));
  (* the fault is transient: disarmed, the same program pipelines *)
  match Gen.check_equivalence Machine.warp pipeline_spec with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("after disarm: " ^ e)

let test_fuel_exhausted () =
  let config = { C.default with C.fuel = Some 1 } in
  let ((p, _, _) as built) = Gen.build pipeline_spec in
  let r = C.program ~config Machine.warp p in
  Alcotest.(check bool) "interval search ran out of fuel" true
    (List.exists (fun lr -> lr.C.status = C.Budget_exhausted) r.C.loops);
  Alcotest.(check bool) "serial fallback validates" true
    (V.ok (V.all Machine.warp r.C.code));
  Alcotest.(check bool) "serial fallback matches the interpreter" true
    (equal_run Machine.warp built r.C.code)

let test_fuel_ample () =
  let config = { C.default with C.fuel = Some 1_000_000 } in
  let p, _, _ = Gen.build pipeline_spec in
  let r = C.program ~config Machine.warp p in
  Alcotest.(check bool) "ample fuel still pipelines" true
    (List.exists (fun lr -> lr.C.status = C.Pipelined) r.C.loops)

(* ---- property: no armed fault ever escapes -------------------------- *)

let prop_fault_resilient =
  let gen =
    QCheck2.Gen.(triple Gen.spec_gen (oneofl expected_sites) (int_range 1 5))
  in
  QCheck2.Test.make ~count:100
    ~name:"armed faults never escape: compile, validate, match interpreter"
    ~print:(fun (sp, site, k) -> Fmt.str "%a %s@%d" Gen.pp_spec sp site k)
    gen
    (fun (sp, site, k) ->
      Fun.protect ~finally:Fault.disarm (fun () ->
          Fault.arm ~site ~after:k;
          let ((p, _, _) as built) = Gen.build sp in
          let r = C.program Machine.warp p in
          if not (V.ok (V.all Machine.warp r.C.code)) then
            QCheck2.Test.fail_reportf "validation failed under %s@%d" site k;
          if not (equal_run Machine.warp built r.C.code) then
            QCheck2.Test.fail_reportf "state mismatch under %s@%d" site k;
          true))

(* [SITE@K]: the site is everything before the last '@', K >= 1 *)
let test_parse_spec () =
  let spec = Alcotest.(option (pair string int)) in
  Alcotest.check spec "a@1" (Some ("a", 1)) (Fault.parse_spec "a@1");
  Alcotest.check spec "a@b@2" (Some ("a@b", 2)) (Fault.parse_spec "a@b@2");
  List.iter
    (fun s -> Alcotest.check spec s None (Fault.parse_spec s))
    [ "@1"; "a@0"; "a@"; "a"; "a@x" ]

let suite =
  [ ("all expected sites registered", `Quick, test_sites_registered) ]
  @ List.map
      (fun site ->
        ( Fmt.str "injected %s degrades gracefully" site,
          `Quick,
          test_site_degrades site ))
      expected_sites
  @ [
      ("fuel 1 exhausts the interval search", `Quick, test_fuel_exhausted);
      ("ample fuel still pipelines", `Quick, test_fuel_ample);
      QCheck_alcotest.to_alcotest prop_fault_resilient;
      ("SITE@K spec parse", `Quick, test_parse_spec);
    ]

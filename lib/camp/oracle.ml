(** The differential oracle: one W2 source program through the whole
    pipeline, every failure mode mapped to a verdict.

    The oracle is the unit of work of the campaign — total (it never
    raises; everything a worker could throw is folded into {!Crash}),
    deterministic (same source, same config, same verdict) and
    self-contained (fixed seeded array initialization, no channel
    inputs), so a banked [.w2] file replays bit-identically anywhere.

    Verdicts, in pipeline order of detection:
    - {!Crash}: an uncaught exception escaped the front end, the
      compiler or either execution engine;
    - {!Ii_bound}: a pipelined loop's initiation interval fell outside
      the sanity window [mii <= ii <= seq_len] — below the lower bound
      means the schedule cannot be legal, above the restart interval
      means pipelining was accepted where it cannot profit;
    - {!Invalid}: the static resource check or the validator rejected
      the emitted code;
    - {!Hang}: simulation exceeded the cycle watchdog (isolates
      pathological programs so one hang cannot stall a worker);
    - {!Mismatch}: the cycle-accurate simulation disagreed with the
      sequential interpreter — the paper's core property broken;
    - {!Jobs_diverge}: compiling with [-j 1] and [-j 2] produced
      different compiles ({!same_compile}; parallel per-loop driver
      nondeterminism);
    - {!Cache_diverge}: compiling twice through one shared schedule
      cache — cold (populating) then warm (reusing) — produced a
      compile differing from the direct one (cache reuse must be
      invisible in the artifacts);
    - {!Opt_diverge}: certifying the program's loops with the exact
      scheduler's conflict learning on vs. off produced different
      per-loop optimality verdicts. Learning is pure pruning, so the
      two searches must agree wherever both decide; a disagreement
      means an unsound learned nogood (exactly what arming
      ["exact.nogood"] fabricates). Budget-capped ({!opt_fuel});
      [Unknown] on either side is incomparable, not a divergence;
    - {!Degraded}: a loop fell back after a caught internal error or
      exhausted its fuel budget. In a clean run this is a failure (no
      fault is armed, so nothing should degrade); under [--inject] it
      is the expected detection of the armed fault.

    The oracle owns one fault site of its own, ["camp.oracle"], hit
    once per invocation before compilation: arming it makes the oracle
    itself raise deterministically, which is how the crash-capture and
    crash-banking paths are exercised end to end without a real
    compiler bug. *)

module Compile = Sp_core.Compile
module Fault = Sp_util.Fault

type kind =
  | Pass
  | Crash
  | Invalid
  | Mismatch
  | Ii_bound
  | Jobs_diverge
  | Cache_diverge
  | Opt_diverge
  | Degraded
  | Hang

let kind_to_string = function
  | Pass -> "pass"
  | Crash -> "crash"
  | Invalid -> "invalid"
  | Mismatch -> "mismatch"
  | Ii_bound -> "ii-bound"
  | Jobs_diverge -> "jobs-diverge"
  | Cache_diverge -> "cache-diverge"
  | Opt_diverge -> "opt-diverge"
  | Degraded -> "degraded"
  | Hang -> "hang"

let kind_of_string = function
  | "pass" -> Some Pass
  | "crash" -> Some Crash
  | "invalid" -> Some Invalid
  | "mismatch" -> Some Mismatch
  | "ii-bound" -> Some Ii_bound
  | "jobs-diverge" -> Some Jobs_diverge
  | "cache-diverge" -> Some Cache_diverge
  | "opt-diverge" -> Some Opt_diverge
  | "degraded" -> Some Degraded
  | "hang" -> Some Hang
  | _ -> None

let all_kinds =
  [ Pass; Crash; Invalid; Mismatch; Ii_bound; Jobs_diverge; Cache_diverge;
    Opt_diverge; Degraded; Hang ]

type verdict = { kind : kind; detail : string }

type config = {
  machine : Sp_machine.Machine.t;
  fuel : int option;       (** per-loop compile-fuel watchdog *)
  max_cycles : int;        (** simulation cycle watchdog *)
  check_jobs : bool;       (** run the [-j 1] vs [-j 2] divergence oracle *)
  check_cache : bool;      (** run the cold/warm schedule-cache oracle *)
  check_opt : bool;        (** run the learn-on vs learn-off exact-certifier
                               oracle *)
  degraded_ok : bool;      (** fault-sweep mode: degradation is graceful,
                               not a failure *)
}

let default =
  {
    machine = Sp_machine.Machine.warp;
    fuel = None;
    max_cycles = 200_000;
    check_jobs = true;
    check_cache = true;
    check_opt = false;
    degraded_ok = false;
  }

let opt_fuel = 200_000

type outcome = {
  verdict : verdict;
  result : Compile.result option;
      (** the [-j 1] compilation, when one was produced — the campaign
          reads histogrammable numbers off it and drops it *)
}

let site = "camp.oracle"
let () = Fault.register site

(** Deterministic per-segment initialization, identical for the
    interpreter and the simulator (and cheap to recompute — nothing is
    retained between programs). *)
let init_state st (p : Sp_ir.Program.t) =
  List.iter
    (fun (seg : Sp_ir.Memseg.t) ->
      match seg.Sp_ir.Memseg.elt with
      | Sp_ir.Memseg.Float_elt ->
        Sp_ir.Machine_state.init_farray st seg (fun i ->
            1.0 +. (0.01 *. float_of_int (((i * 7) + (seg.Sp_ir.Memseg.sid * 13)) mod 83)))
      | Sp_ir.Memseg.Int_elt ->
        Sp_ir.Machine_state.init_iarray st seg (fun i ->
            ((i * 5) + (seg.Sp_ir.Memseg.sid * 3)) mod 17))
    p.Sp_ir.Program.segs

(** The II sanity bound on one loop report: [Some reason] when a
    pipelined loop's interval is impossible ([ii < mii]) or pointless
    ([ii > seq_len]). Exposed for direct unit testing — the bound must
    hold on every pipelined loop of every generated program, so there
    is no deterministic trigger to bank. *)
let ii_violation (lr : Compile.loop_report) : string option =
  match (lr.Compile.status, lr.Compile.ii) with
  | Compile.Pipelined, Some ii ->
    if ii < lr.Compile.mii then
      Some
        (Printf.sprintf "loop%d: ii=%d below mii=%d" lr.Compile.l_id ii
           lr.Compile.mii)
    else if ii > lr.Compile.seq_len && lr.Compile.seq_len >= lr.Compile.mii
    then
      Some
        (Printf.sprintf "loop%d: ii=%d above seq_len=%d" lr.Compile.l_id ii
           lr.Compile.seq_len)
    else None
  | _ -> None

(** Degradation on one report: [Some reason] when the loop fell back
    after a caught internal error or a spent budget. *)
let degradation (lr : Compile.loop_report) : string option =
  if Compile.is_degraded lr.Compile.status then
    Some
      (Printf.sprintf "loop%d: %s" lr.Compile.l_id
         (Compile.status_to_string lr.Compile.status))
  else None

let first_map f reports = List.find_map f reports

let compile_config (cfg : config) ~jobs =
  { Compile.default with Compile.jobs; fuel = cfg.fuel }

(* Per-loop optimality-certificate tags of one certified compile.
   [Unknown] collapses to one tag: how far an infeasibility proof got
   before the budget ran out is budget- and order-dependent, so only
   decided verdicts are comparable. *)
let cert_tags (r : Compile.result) : (int * string) list =
  List.filter_map
    (fun (lr : Compile.loop_report) ->
      match lr.Compile.cert with
      | None -> None
      | Some c ->
        let ii = Option.value ~default:(-1) lr.Compile.ii in
        let tag =
          match c with
          | Compile.Cert_optimal _ -> Printf.sprintf "optimal@%d" ii
          | Compile.Cert_improved { heur_ii; _ } ->
            Printf.sprintf "improved:%d->%d" heur_ii ii
          | Compile.Cert_unknown _ -> "unknown"
        in
        Some (lr.Compile.l_id, tag))
    r.Compile.loops

(* The learn-on vs learn-off differential: conflict learning is pure
   pruning, so wherever both budget-capped certifications decide they
   must agree per loop. Skipped when a fault other than the nogood
   doctoring site is armed — the two extra compiles would consume that
   fault's trigger count (same reason the jobs and cache checks skip);
   the ["exact.nogood"] site itself only fires inside the learn-on
   certifier, which is precisely the corruption this check must
   detect. *)
let opt_divergence (cfg : config) (ir : Sp_ir.Program.t) : string option =
  let skip =
    (not cfg.check_opt)
    ||
    match Fault.armed_spec () with
    | None -> false
    | Some (site, _) -> site <> Sp_opt.Exact.nogood_site
  in
  if skip then None
  else begin
    let certified learn =
      let config =
        {
          (compile_config cfg ~jobs:1) with
          Compile.certifier = Some (Sp_opt.Certify.hook ~fuel:opt_fuel ~learn ());
        }
      in
      cert_tags (Compile.program ~config cfg.machine ir)
    in
    let off = certified false in
    let on = certified true in
    if List.length off <> List.length on then
      Some "learn-on and learn-off certified different loop sets"
    else
      List.find_map
        (fun ((l, a), (_, b)) ->
          if a <> b && a <> "unknown" && b <> "unknown" then
            Some (Printf.sprintf "loop%d: learn-off %s, learn-on %s" l a b)
          else None)
        (List.combine off on)
  end

(** The same compile: the same words ({!Sp_vliw.Prog.equal}) and, loop
    by loop, the same id, ii, mii and status — what
    {!Compile.fingerprint} renders, compared by value. *)
let same_compile (a : Compile.result) (b : Compile.result) =
  Sp_vliw.Prog.equal a.code b.code
  && List.equal
       (fun (x : Compile.loop_report) (y : Compile.loop_report) ->
         x.l_id = y.l_id
         && Option.equal Int.equal x.ii y.ii
         && x.mii = y.mii
         && String.equal
              (Compile.status_to_string x.status)
              (Compile.status_to_string y.status))
       a.loops b.loops

(** Run the full oracle on [src]. Never raises. *)
let run (cfg : config) (src : string) : outcome =
  let fail kind detail result = { verdict = { kind; detail }; result } in
  try
    Fault.point site;
    let ir = Sp_lang.Lower.compile_source src in
    let r = Compile.program ~config:(compile_config cfg ~jobs:1) cfg.machine ir in
    match first_map ii_violation r.Compile.loops with
    | Some reason -> fail Ii_bound reason (Some r)
    | None -> (
      let report = Sp_vliw.Validate.all cfg.machine r.Compile.code in
      match report.Sp_vliw.Validate.resources with
      | v :: _ ->
        fail Invalid
          (Fmt.str "resource check: %a" Sp_vliw.Check.pp_violation v)
          (Some r)
      | [] ->
        if not (Sp_vliw.Validate.ok report) then
          fail Invalid "validator rejected the emitted code" (Some r)
        else begin
          let init st = init_state st ir in
          let oracle = Sp_ir.Interp.run ~init ir in
          match
            Sp_vliw.Sim.run ~init ~max_cycles:cfg.max_cycles cfg.machine ir
              r.Compile.code
          with
          | exception Sp_vliw.Sim.Cycle_limit n ->
            fail Hang (Printf.sprintf "no fixpoint after %d cycles" n) (Some r)
          | exception Sp_vliw.Sim.Write_conflict w ->
            fail Invalid ("write conflict: " ^ w) (Some r)
          | sim ->
            if
              not
                (Sp_ir.Machine_state.observably_equal
                   oracle.Sp_ir.Interp.state sim.Sp_vliw.Sim.state)
            then
              fail Mismatch "final state differs from the interpreter" (Some r)
            else begin
              let diverged =
                cfg.check_jobs
                && (not (Fault.is_armed ()))
                &&
                let r2 =
                  Compile.program
                    ~config:(compile_config cfg ~jobs:2)
                    cfg.machine ir
                in
                not (same_compile r2 r)
              in
              if diverged then
                fail Jobs_diverge "-j 1 and -j 2 fingerprints differ" (Some r)
              else begin
                (* cold then warm through one shared schedule cache;
                   both must reproduce the direct compile. Skipped
                   under an armed fault for the same reason as the
                   jobs check: the extra compiles would consume the
                   fault's trigger count. *)
                let cache_diverged =
                  cfg.check_cache
                  && (not (Fault.is_armed ()))
                  &&
                  let cache = Sp_serve.Cache.create ~capacity:64 in
                  let config =
                    {
                      (compile_config cfg ~jobs:1) with
                      Compile.cache = Some (Sp_serve.Cache.hook cache);
                    }
                  in
                  let differs () =
                    not (same_compile (Compile.program ~config cfg.machine ir) r)
                  in
                  let cold = differs () in
                  let warm = differs () in
                  cold || warm
                in
                if cache_diverged then
                  fail Cache_diverge
                    "cached compile fingerprint differs from direct" (Some r)
                else
                  match opt_divergence cfg ir with
                  | Some reason -> fail Opt_diverge reason (Some r)
                  | None -> (
                    match
                      if cfg.degraded_ok then None
                      else first_map degradation r.Compile.loops
                    with
                    | Some reason -> fail Degraded reason (Some r)
                    | None -> fail Pass "" (Some r))
              end
            end
        end)
  with e -> fail Crash (Printexc.to_string e) None

(** Just the verdict kind — the minimizer's predicate. *)
let kind_of (cfg : config) (src : string) : kind = (run cfg src).verdict.kind

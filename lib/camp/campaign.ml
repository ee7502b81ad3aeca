(** The streaming differential campaign.

    Drives a seed range of generated W2 programs ({!Sp_lang.Wgen})
    through the {!Oracle} on a {!Sp_util.Pool} domain pool, in
    constant memory: workers return one compact probe record per
    program (verdict tag plus a handful of numbers), the driver folds
    probes in seed order into running histograms and counters, and
    nothing else is retained — no sources, no compiled code, no
    per-program artifacts. Failing seeds are re-run, delta-minimized
    ({!Minimize}) and banked ({!Bank}) sequentially on the calling
    domain, capped so a systematically failing population cannot
    balloon the bank.

    Sharding and resumability: a campaign over [lo..hi] equals the
    {!merge} of campaigns over any partition of [lo..hi] — summaries
    are designed to be associative merges (counts add, histograms
    merge, failure lists concatenate in seed order), which is also
    what the shard-merge qcheck property pins down.

    Fault modes run sequentially regardless of the configured width:
    {!Sp_util.Fault} state is global, so the armed site is re-armed
    before and disarmed after every program, which is only
    deterministic single-domain. Clean mode never touches fault state
    and parallelizes freely. *)

module Fault = Sp_util.Fault
module Histogram = Sp_util.Histogram
module Wgen = Sp_lang.Wgen
module Compile = Sp_core.Compile

type mode =
  | Clean
  | Inject of string * int  (** arm [site@k] around every program *)

type cfg = {
  lo : int;
  hi : int;                    (** inclusive seed range *)
  jobs : int;                  (** pool width; fault modes force 1 *)
  oracle : Oracle.config;
  mode : mode;
  bank_dir : string option;    (** where minimized repros are banked *)
  bank_cap : int;              (** max failures minimized+banked per run *)
  minimize_budget : int;       (** oracle evaluations per minimization *)
  opt_every : int;             (** run the learn-on/off exact-certifier
                                   oracle on every [opt_every]-th seed
                                   (0 = never) *)
}

let default =
  {
    lo = 1;
    hi = 10_000;
    jobs = 1;
    oracle = Oracle.default;
    mode = Clean;
    bank_dir = None;
    bank_cap = 25;
    minimize_budget = 400;
    opt_every = 16;
  }

(* ------------------------------------------------------------------ *)
(* Probes: the compact per-program record workers hand back            *)
(* ------------------------------------------------------------------ *)

type probe = {
  p_seed : int;
  p_kind : Oracle.kind;
  p_detail : string;
  p_statuses : string list;  (** per-loop status tags *)
  p_gaps : int list;         (** ii - mii per pipelined loop *)
  p_effs : float list;       (** mii/ii per pipelined loop *)
  p_code_size : int option;
  p_cost_total : int;        (** deterministic work units for this seed *)
  p_cost_phases : (string * int) list;
      (** phase name -> work units, {!Sp_obs.Cost.all_phases} order,
          nonzero only *)
}

(* "degraded: <msg>" counts as one bucket, not one per message *)
let status_tag st =
  let s = Compile.status_to_string st in
  match String.index_opt s ':' with Some i -> String.sub s 0 i | None -> s

let probe_of_outcome seed ~cost (o : Oracle.outcome) : probe =
  let module Cost = Sp_obs.Cost in
  let phase_totals =
    (* per-phase work across every loop of this program's compiles *)
    List.filter_map
      (fun (ph, t) -> if t > 0 then Some (Cost.phase_name ph, t) else None)
      (Cost.phase_totals cost)
  in
  let statuses, gaps, effs, code_size =
    match o.Oracle.result with
    | None -> ([], [], [], None)
    | Some r ->
      let statuses =
        List.map (fun lr -> status_tag lr.Compile.status) r.Compile.loops
      in
      let pipelined =
        List.filter_map
          (fun lr ->
            match lr.Compile.ii with
            | Some ii -> Some (ii - lr.Compile.mii, Compile.efficiency lr)
            | None -> None)
          r.Compile.loops
      in
      ( statuses,
        List.map fst pipelined,
        List.map snd pipelined,
        Some r.Compile.code_size )
  in
  {
    p_seed = seed;
    p_kind = o.Oracle.verdict.Oracle.kind;
    p_detail = o.Oracle.verdict.Oracle.detail;
    p_statuses = statuses;
    p_gaps = gaps;
    p_effs = effs;
    p_code_size = code_size;
    p_cost_total = Cost.total cost;
    p_cost_phases = phase_totals;
  }

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

type failure = {
  f_seed : int;
  f_kind : string;
  f_detail : string;
  f_nodes_before : int;
  f_nodes_after : int;
  f_evals : int;
  f_file : string option;  (** banked path, when banking was on *)
}

type summary = {
  total : int;
  pass : int;
  verdicts : (string * int) list;   (** every kind, {!Oracle.all_kinds} order *)
  statuses : (string * int) list;   (** loop status tag -> count, sorted *)
  gap : Histogram.t;                (** ii - mii over pipelined loops *)
  eff : Histogram.t;                (** mii/ii over pipelined loops *)
  csize : Histogram.t;              (** emitted code size per program *)
  cost : Histogram.t;               (** work units per program *)
  cost_by_phase : (string * Histogram.t) list;
      (** per compile phase, the distribution of that phase's work
          units over the population — fixed key set
          ({!Sp_obs.Cost.all_phases} names), so merge is pointwise *)
  expensive : (int * int) list;
      (** the [expensive_n] most expensive programs as (seed, work
          units), sorted units descending then seed ascending *)
  pass_rate : Sp_obs.Series.t;      (** pass indicator on the seed clock *)
  failures : failure list;          (** minimized, in seed order *)
  unminimized : int;                (** failures beyond the bank cap *)
}

let gap_hist () = Histogram.create ~lo:0.0 ~width:1.0 ~buckets:16
let eff_hist () = Histogram.create ~lo:0.0 ~width:0.05 ~buckets:21
let csize_hist () = Histogram.create ~lo:0.0 ~width:50.0 ~buckets:40
let cost_hist () = Histogram.create ~lo:0.0 ~width:2000.0 ~buckets:40
let phase_hist () = Histogram.create ~lo:0.0 ~width:500.0 ~buckets:40
let expensive_n = 10

(* top-N by (units desc, seed asc): truncating the sorted union of two
   top-N lists is the top-N of the union, so the merge stays
   associative *)
let merge_expensive a b =
  let cmp (s1, t1) (s2, t2) =
    if t1 <> t2 then compare t2 t1 else compare s1 s2
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  take expensive_n (List.sort_uniq cmp (a @ b))

(* The seed is the logical clock: windows of 128 seeds localize a
   verdict-rate change, and 16384 retained seeds keep the standard
   10k-seed gate fully resident (a 100k nightly keeps the newest
   shards — totals still cover everything). *)
let pass_series () =
  Sp_obs.Series.create ~capacity:16384 ~window:128 ~lo:0.0 ~width:1.0
    ~buckets:2 ()

let empty_summary () =
  {
    total = 0;
    pass = 0;
    verdicts = List.map (fun k -> (Oracle.kind_to_string k, 0)) Oracle.all_kinds;
    statuses = [];
    gap = gap_hist ();
    eff = eff_hist ();
    csize = csize_hist ();
    cost = cost_hist ();
    cost_by_phase =
      List.map
        (fun ph -> (Sp_obs.Cost.phase_name ph, phase_hist ()))
        Sp_obs.Cost.all_phases;
    expensive = [];
    pass_rate = pass_series ();
    failures = [];
    unminimized = 0;
  }

let bump assoc key by =
  let rec go = function
    | [] -> [ (key, by) ]
    | (k, n) :: rest when k = key -> (k, n + by) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

let fold_probe (s : summary) (p : probe) : summary =
  List.iter (fun g -> Histogram.add s.gap (float_of_int g)) p.p_gaps;
  List.iter (Histogram.add s.eff) p.p_effs;
  Option.iter (fun c -> Histogram.add s.csize (float_of_int c)) p.p_code_size;
  Histogram.add s.cost (float_of_int p.p_cost_total);
  List.iter
    (fun (name, h) ->
      let units =
        Option.value ~default:0 (List.assoc_opt name p.p_cost_phases)
      in
      Histogram.add h (float_of_int units))
    s.cost_by_phase;
  Sp_obs.Series.add ~seq:p.p_seed s.pass_rate
    (if p.p_kind = Oracle.Pass then 1.0 else 0.0);
  {
    s with
    total = s.total + 1;
    pass = (s.pass + if p.p_kind = Oracle.Pass then 1 else 0);
    verdicts = bump s.verdicts (Oracle.kind_to_string p.p_kind) 1;
    statuses =
      List.fold_left (fun acc tag -> bump acc tag 1) s.statuses p.p_statuses;
    expensive = merge_expensive s.expensive [ (p.p_seed, p.p_cost_total) ];
  }

(** Associative merge of shard summaries: a campaign over a range
    equals the merge of campaigns over any partition of it (failure
    lists concatenate left-to-right, so pass shards in seed order). *)
let merge (a : summary) (b : summary) : summary =
  {
    total = a.total + b.total;
    pass = a.pass + b.pass;
    verdicts = List.fold_left (fun acc (k, n) -> bump acc k n) a.verdicts b.verdicts;
    statuses = List.fold_left (fun acc (k, n) -> bump acc k n) a.statuses b.statuses;
    gap = Histogram.merge a.gap b.gap;
    eff = Histogram.merge a.eff b.eff;
    csize = Histogram.merge a.csize b.csize;
    cost = Histogram.merge a.cost b.cost;
    cost_by_phase =
      List.map2
        (fun (name, ha) (name', hb) ->
          assert (name = name');
          (name, Histogram.merge ha hb))
        a.cost_by_phase b.cost_by_phase;
    expensive = merge_expensive a.expensive b.expensive;
    pass_rate = Sp_obs.Series.merge a.pass_rate b.pass_rate;
    failures = a.failures @ b.failures;
    unminimized = a.unminimized + b.unminimized;
  }

let sort_statuses s = { s with statuses = List.sort compare s.statuses }

let failure_count (s : summary) = List.length s.failures + s.unminimized

(* ------------------------------------------------------------------ *)
(* Running programs                                                    *)
(* ------------------------------------------------------------------ *)

(** Arm the mode's fault (if any) for the duration of [f]. Re-arming
    per program resets the hit counters, so the k-th hit fires for
    every program identically. *)
let with_trigger (mode : mode) f =
  match mode with
  | Clean -> f ()
  | Inject (site, k) ->
    Fault.arm ~site ~after:k;
    Fun.protect ~finally:Fault.disarm f

(* The opt differential is too expensive for every seed, so it samples
   the population by absolute seed value — shard-invariant, like the
   rest of the summary. Under injection it runs exactly when the armed
   site is the nogood doctoring site (then on {e every} seed: the
   corrupted bank is what the check exists to catch; the oracle itself
   skips the check under any other armed site). *)
let opt_checked (cfg : cfg) seed =
  match cfg.mode with
  | Clean -> cfg.opt_every > 0 && seed mod cfg.opt_every = 0
  | Inject (site, _) -> site = Sp_opt.Exact.nogood_site

let probe_seed (cfg : cfg) seed : probe =
  let src = Wgen.print (Wgen.generate ~seed) in
  let ocfg =
    if opt_checked cfg seed then { cfg.oracle with Oracle.check_opt = true }
    else cfg.oracle
  in
  (* the profile is a pure function of the seed (work counts, no
     clocks), so the summary's cost views are jobs-invariant like
     everything else folded from probes *)
  let o, cost =
    Sp_obs.Cost.collect (fun () ->
        with_trigger cfg.mode (fun () -> Oracle.run ocfg src))
  in
  probe_of_outcome seed ~cost o

(* ------------------------------------------------------------------ *)
(* Minimize + bank                                                     *)
(* ------------------------------------------------------------------ *)

let minimize_failure (cfg : cfg) (p : probe) : failure =
  let ast = Wgen.generate ~seed:p.p_seed in
  let target = p.p_kind in
  (* the jobs, cache and opt oracles only matter when that is what
     broke *)
  let ocfg =
    {
      cfg.oracle with
      Oracle.check_jobs = target = Oracle.Jobs_diverge;
      check_cache = target = Oracle.Cache_diverge;
      check_opt = target = Oracle.Opt_diverge;
    }
  in
  let predicate c =
    with_trigger cfg.mode (fun () -> Oracle.kind_of ocfg (Wgen.print c))
    = target
  in
  let minimized, st =
    Minimize.minimize ~budget:cfg.minimize_budget ~predicate ast
  in
  let file =
    match cfg.bank_dir with
    | None -> None
    | Some dir ->
      let inject =
        match cfg.mode with Inject (s, k) -> Some (s, k) | Clean -> None
      in
      let entry =
        Bank.mk ~seed:p.p_seed ?inject
          ?fuel:cfg.oracle.Oracle.fuel
          ?max_cycles:
            (if cfg.oracle.Oracle.max_cycles <> Oracle.default.Oracle.max_cycles
             then Some cfg.oracle.Oracle.max_cycles
             else None)
          ~detail:p.p_detail
          ~kind:(Oracle.kind_to_string target)
          (Wgen.print minimized)
      in
      Bank.save ~dir entry
  in
  {
    f_seed = p.p_seed;
    f_kind = Oracle.kind_to_string target;
    f_detail = p.p_detail;
    f_nodes_before = Wgen.size ast;
    f_nodes_after = Wgen.size minimized;
    f_evals = st.Minimize.evals;
    f_file = file;
  }

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

(** Stream the configured seed range. [on_progress] (if given) is
    called with the number of seeds completed so far after each
    batch. *)
let run ?(on_progress = fun _ -> ()) (cfg : cfg) : summary =
  (* global fault state makes armed runs single-domain only *)
  let jobs = match cfg.mode with Clean -> max 1 cfg.jobs | Inject _ -> 1 in
  let pool = Sp_util.Pool.create ~jobs in
  (* cost accounting on for the whole campaign (collected per seed in
     [probe_seed]); restored to its prior state on exit *)
  let cost_was_on = Sp_obs.Cost.enabled () in
  if not cost_was_on then Sp_obs.Cost.enable ();
  Fun.protect ~finally:(fun () ->
      if not cost_was_on then Sp_obs.Cost.disable ())
  @@ fun () ->
  let chunk = max 32 (4 * jobs) in
  let rec go acc next =
    if next > cfg.hi then acc
    else begin
      let stop = min cfg.hi (next + chunk - 1) in
      let seeds = List.init (stop - next + 1) (fun i -> next + i) in
      let outcomes =
        Sp_util.Pool.try_run pool
          (List.map (fun seed () -> probe_seed cfg seed) seeds)
      in
      (* a worker exception is itself a finding, never an abort *)
      let probes =
        List.map2
          (fun seed -> function
            | Ok p -> p
            | Error (e, _) ->
              {
                p_seed = seed;
                p_kind = Oracle.Crash;
                p_detail = "worker: " ^ Printexc.to_string e;
                p_statuses = [];
                p_gaps = [];
                p_effs = [];
                p_code_size = None;
                p_cost_total = 0;
                p_cost_phases = [];
              })
          seeds outcomes
      in
      let acc = List.fold_left fold_probe acc probes in
      (* minimize + bank failures sequentially on this domain *)
      let acc =
        List.fold_left
          (fun acc p ->
            if p.p_kind = Oracle.Pass then acc
            else if List.length acc.failures >= cfg.bank_cap then
              { acc with unminimized = acc.unminimized + 1 }
            else
              { acc with failures = acc.failures @ [ minimize_failure cfg p ] })
          acc probes
      in
      on_progress (stop - cfg.lo + 1);
      go acc (stop + 1)
    end
  in
  sort_statuses (go (empty_summary ()) cfg.lo)

(* ------------------------------------------------------------------ *)
(* Fault sweep                                                         *)
(* ------------------------------------------------------------------ *)

(** Sweep every registered compiler fault site (each at hit counts 1
    and 2) across the seed range, sequentially: graceful degradation
    must hold at scale, so each armed population is expected to read
    all-pass — with {!Oracle.degraded_ok} set, loops that fell back
    cleanly count as passes; anything else (crash, mismatch, invalid,
    hang) is a failure and gets minimized and banked like any other.
    Exception: the nogood doctoring site {!Sp_opt.Exact.nogood_site}
    corrupts silently rather than degrading, so for it the expected
    reading inverts — the [opt-diverge] oracle (enabled on every seed
    under that site, see {!probe_seed}) must catch the corruption at
    least once, and the caller gates on that. Returns per-[site@k]
    summaries in deterministic site order. *)
let sweep ?(ks = [ 1; 2 ]) (cfg : cfg) : ((string * int) * summary) list =
  let sites =
    Fault.sites () |> List.filter (fun s -> s <> Oracle.site)
  in
  List.concat_map
    (fun site ->
      List.map
        (fun k ->
          let cfg =
            {
              cfg with
              mode = Inject (site, k);
              oracle = { cfg.oracle with Oracle.degraded_ok = true };
            }
          in
          ((site, k), run cfg))
        ks)
    sites

(* The wall-clock benchmark: one workload per run, a fixed input set
   timed round after round for a fixed number of seconds, every output
   checked, one JSON result line on stdout. README.md explains the
   workloads, the estimators and the per-layer table. *)

module C = Sp_core.Compile
module Cost = Sp_obs.Cost
module Json = Sp_obs.Json
module Wgen = Sp_lang.Wgen
module Lower = Sp_lang.Lower
module Kernel = Sp_kernels.Kernel
module Oracle = Sp_camp.Oracle
module Service = Sp_serve.Service
module Cache = Sp_serve.Cache
module Sim = Sp_vliw.Sim
module Interp = Sp_ir.Interp

let warp = Sp_machine.Machine.warp
let span = Span.record

(* ---- generated-code totals ------------------------------------------ *)

type codegen = {
  mutable cycles : int;
  mutable dyn_ops : int;
  mutable words : int;
  mutable ii : int;  (** sum of achieved II over pipelined loops *)
  mutable mii : int;  (** sum of their lower bounds *)
  mutable piped : int;
  mutable certified : int;
  mutable unknown : int;
  mutable probed : int;
  mutable fuel : int;
}

let codegen () =
  { cycles = 0; dyn_ops = 0; words = 0; ii = 0; mii = 0; piped = 0;
    certified = 0; unknown = 0; probed = 0; fuel = 0 }

let add_compile cg (r : C.result) =
  cg.words <- cg.words + r.C.code_size;
  List.iter
    (fun (lr : C.loop_report) ->
      cg.probed <- cg.probed + lr.C.probed;
      cg.fuel <- cg.fuel + lr.C.fuel_spent;
      (match (lr.C.status, lr.C.ii) with
      | C.Pipelined, Some ii ->
        cg.piped <- cg.piped + 1;
        cg.ii <- cg.ii + ii;
        cg.mii <- cg.mii + lr.C.mii
      | _ -> ());
      match lr.C.cert with
      | None -> ()
      | Some c ->
        cg.certified <- cg.certified + 1;
        (match c with C.Cert_unknown _ -> cg.unknown <- cg.unknown + 1 | _ -> ()))
    r.C.loops

let add_sim cg (s : Sim.result) =
  cg.cycles <- cg.cycles + s.Sim.cycles;
  cg.dyn_ops <- cg.dyn_ops + s.Sim.dyn_ops

(* ---- calls into the layers, each under its span ---------------------- *)

let frontend src = span "lang.frontend" (fun () -> Lower.compile_source src)
let compile ?(name = "core.compile") config p =
  span name (fun () -> C.program ~config warp p)

let validates (r : C.result) =
  span "vliw.validate" (fun () ->
      Sp_vliw.Validate.ok (Sp_vliw.Validate.all warp r.C.code))

(* Interpreter first, then the simulator, as the oracle orders them;
   [true] when the simulated state equals the interpreter's. *)
let simulate ?(inputs = []) ?max_cycles ~init p (r : C.result) =
  let reference = span "ir.interp" (fun () -> Interp.run ~inputs ~init p) in
  let sim =
    span "vliw.sim" (fun () -> Sim.run ~inputs ?max_cycles ~init warp p r.C.code)
  in
  (sim, Sp_ir.Machine_state.observably_equal reference.Interp.state sim.Sim.state)

(* What the schedule cache digests, replayed outside the compile. *)
let fingerprints p =
  let ddgs = C.innermost_ddgs warp p in
  span "serve.fingerprint" (fun () ->
      List.iter (fun (_, g) -> ignore (Sp_serve.Fingerprint.of_loop g warp)) ddgs)

let timed_certifier (h : C.certifier) : C.certifier =
 fun m g ~analysis ~mii s -> span "opt.certify" (fun () -> h m g ~analysis ~mii s)

let timed_cache (h : C.cache) : C.cache =
  {
    C.cache_probe =
      (fun m g ~mii ~max_ii ->
        span "serve.cache_probe" (fun () -> h.C.cache_probe m g ~mii ~max_ii));
  }

(* Every [Improved] certificate must sit strictly below the heuristic's
   interval. *)
let improvements_ok (r : C.result) =
  List.for_all
    (fun (lr : C.loop_report) ->
      match (lr.C.cert, lr.C.ii) with
      | Some (C.Cert_improved { heur_ii; _ }), Some ii -> ii < heur_ii
      | Some (C.Cert_improved _), None -> false
      | _ -> true)
    r.C.loops

let ast_nodes src = Wgen.size (Sp_lang.Parser.parse src)
let wgen_source seed = Wgen.print (Wgen.generate ~seed)

(* ---- workloads -------------------------------------------------------- *)

(** One workload after set-up. Items are indices [0 .. n-1] into a fixed
    input set. *)
type prepared = {
  n : int;
  order : Random.State.t -> int array;  (** one round's visiting order *)
  run : int -> bool;  (** the timed item: its end-to-end path and output check *)
  replay : int -> bool;  (** the item as traced rounds run it *)
  extras : int -> unit;  (** traced rounds only: layer calls timed outside the item *)
  finish : unit -> codegen * int;
      (** untimed, after the timed rounds: generated-code totals of one
          round and the number of failed checks *)
  nodes : int;  (** AST nodes per round *)
  layer : unit -> untraced:int -> traced:int -> (string * string * float) list;
      (** called as the timed rounds start; the returned function gives
          the workload's own per-layer values, per timed round *)
  untraced_layer : string option;
      (** the per-layer metric an untraced round's time measures *)
  close : unit -> unit;
}

(** A workload is its set-up, which generates and lowers the
    inputs, computes their reference outputs and builds the engine. *)
type workload = { name : string; setup : unit -> prepared }

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let shuffled n rng = shuffle rng (Array.init n Fun.id)

let some_result = function Some r -> r | None -> failwith "item never ran"

let cache_layer (stats : Cache.stats list) rounds =
  let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
  let hits = sum (fun s -> s.Cache.hits) and misses = sum (fun s -> s.Cache.misses) in
  [
    ("serve.cache.hit_frac", "ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("serve.cache.rejects", "count", sum (fun s -> s.Cache.rejects) /. rounds);
    ("serve.cache.evictions", "count", sum (fun s -> s.Cache.evictions) /. rounds);
  ]

(* Workloads without a cache of their own report its metrics as 0. *)
let no_layer () ~untraced:_ ~traced:_ = cache_layer [] 1.

(* The 20 Table 4-2 kernels under the [bench --table pipeline]
   configuration, checked against the committed BENCH_pipeline.json. *)
let expected_pipeline () =
  let j =
    Json.of_string (In_channel.with_open_bin "BENCH_pipeline.json" In_channel.input_all)
  in
  match Json.path [ "artifacts"; "pipeline"; "kernels" ] j with
  | Some (Json.List ks) ->
    List.filter_map
      (fun k ->
        match (Json.member "kernel" k, Json.member "cycles" k, Json.member "code_size" k) with
        | Some (Json.Str n), Some (Json.Int c), Some (Json.Int w) -> Some (n, (c, w))
        | _ -> None)
      ks
  | _ -> failwith "BENCH_pipeline.json has no artifacts.pipeline.kernels"

let livermore () =
  let kernels = Array.of_list Sp_kernels.Livermore.all in
  Array.iter (fun k -> ignore (Kernel.program k)) kernels;
  let expected = expected_pipeline () in
  let config =
    { C.default with
      C.certifier = Some (timed_certifier (Sp_opt.Certify.hook ~fuel:400_000 ())) }
  in
  let nodes =
    Array.fold_left
      (fun acc (k : Kernel.t) ->
        match k.Kernel.source with Kernel.W2 s -> acc + ast_nodes s | Kernel.Ir _ -> acc)
      0 kernels
  in
  let n = Array.length kernels in
  let results = Array.make n None in
  let run i =
    let k = kernels.(i) in
    let p = span "lang.frontend" (fun () -> Kernel.program k) in
    let r = compile config p in
    let clean = span "vliw.check" (fun () -> Sp_vliw.Check.check_prog warp r.C.code = []) in
    let valid = validates r in
    let sim, same = simulate ~inputs:k.Kernel.inputs ~init:(fun st -> k.Kernel.init st p) p r in
    results.(i) <- Some (r, sim);
    clean && valid && same
    && List.assoc_opt k.Kernel.name expected = Some (sim.Sim.cycles, r.C.code_size)
  in
  {
    n;
    order = shuffled n;
    run;
    replay = run;
    extras = (fun i -> fingerprints (Kernel.program kernels.(i)));
    finish =
      (fun () ->
        let cg = codegen () in
        Array.iter
          (fun o ->
            let r, sim = some_result o in
            add_compile cg r;
            add_sim cg sim)
          results;
        (cg, 0));
    nodes;
    layer = no_layer;
    untraced_layer = None;
    close = ignore;
  }

(* Wgen seeds of the campaign workload: a fixed population, so every
   seed of the benchmark times the same programs. *)
let campaign_seeds = List.init 64 (fun i -> i + 1)

(* The oracle's steps, each under its span, through the same public
   calls [Oracle.run] makes: -j 1, check, validate, interpreter,
   simulator, -j 2, then cold and warm compiles through a fresh cache. *)
let replay_oracle (cfg : Oracle.config) cache_stats src =
  let config ?cache jobs = { C.default with C.jobs; fuel = cfg.Oracle.fuel; cache } in
  let ir = frontend src in
  let r = compile (config 1) ir in
  if List.exists (fun lr -> Oracle.ii_violation lr <> None) r.C.loops then (Oracle.Ii_bound, r, None)
  else if span "vliw.check" (fun () -> Sp_vliw.Check.check_prog cfg.Oracle.machine r.C.code <> [])
  then (Oracle.Invalid, r, None)
  else if not (validates r) then (Oracle.Invalid, r, None)
  else
    match simulate ~max_cycles:cfg.Oracle.max_cycles ~init:(fun st -> Oracle.init_state st ir) ir r with
    | exception Sim.Cycle_limit _ -> (Oracle.Hang, r, None)
    | exception Sim.Write_conflict _ -> (Oracle.Invalid, r, None)
    | sim, false -> (Oracle.Mismatch, r, Some sim)
    | sim, true ->
      let direct = C.fingerprint r in
      let kind =
        if cfg.Oracle.check_jobs
           && C.fingerprint (compile ~name:"core.compile_j2" (config 2) (frontend src)) <> direct
        then Oracle.Jobs_diverge
        else if
          cfg.Oracle.check_cache
          &&
          let cache = Cache.create ~capacity:64 in
          let config = config ~cache:(timed_cache (Cache.hook cache)) 1 in
          let fp () = C.fingerprint (compile ~name:"core.compile_cached" config (frontend src)) in
          let cold = fp () in
          let warm = fp () in
          cache_stats := Cache.stats cache :: !cache_stats;
          cold <> direct || warm <> direct
        then Oracle.Cache_diverge
        else if List.exists (fun lr -> Oracle.degradation lr <> None) r.C.loops then Oracle.Degraded
        else Oracle.Pass
      in
      (kind, r, Some sim)

let campaign () =
  let seeds = Array.of_list campaign_seeds in
  let srcs = Array.map wgen_source seeds in
  Array.iter (fun s -> ignore (Lower.compile_source s)) srcs;
  let nodes = Array.fold_left (fun acc s -> acc + ast_nodes s) 0 srcs in
  let n = Array.length srcs in
  let cfg = Oracle.default in
  let verdicts = Array.make n None in
  let cache_stats = ref [] in
  let run i =
    let o = Oracle.run cfg srcs.(i) in
    if o.Oracle.verdict.Oracle.kind <> Oracle.Pass then
      Printf.eprintf "campaign: program %d: %s %s\n%!" seeds.(i)
        (Oracle.kind_to_string o.Oracle.verdict.Oracle.kind) o.Oracle.verdict.Oracle.detail;
    verdicts.(i) <- Some o.Oracle.verdict.Oracle.kind;
    o.Oracle.verdict.Oracle.kind = Oracle.Pass
  in
  let replay i =
    let kind, _, _ = replay_oracle cfg cache_stats srcs.(i) in
    kind = Oracle.Pass && verdicts.(i) = Some kind
  in
  let extras i =
    let src = span "camp.gen" (fun () -> wgen_source seeds.(i)) in
    if not (String.equal src srcs.(i)) then failwith "Wgen is not deterministic";
    fingerprints (Lower.compile_source src)
  in
  let finish () =
    let cg = codegen () in
    let failed = ref 0 in
    let unused_stats = ref [] in
    Array.iteri
      (fun i src ->
        let kind, r, sim = replay_oracle cfg unused_stats src in
        add_compile cg r;
        Option.iter (add_sim cg) sim;
        if kind <> Oracle.Pass || verdicts.(i) <> Some kind then incr failed)
      srcs;
    (cg, !failed)
  in
  {
    n;
    order = shuffled n;
    run;
    replay;
    extras;
    finish;
    nodes;
    layer =
      (fun () ->
        cache_stats := [];
        fun ~untraced:_ ~traced -> cache_layer !cache_stats (float_of_int traced));
    untraced_layer = Some "camp.oracle_s";
    close = ignore;
  }

(* Seeds 1..240 except the four whose certification alone takes over
   half a second each: a round stays short enough for about twenty
   rounds in ten seconds, and the remaining tail (seed 147 takes about
   0.2 s) keeps p90 and items/s sensitive to the exact search. *)
let certify_seeds =
  List.filter (fun s -> not (List.mem s [ 45; 87; 115; 116 ])) (List.init 240 (fun i -> i + 1))

let certify () =
  let srcs = Array.of_list (List.map wgen_source certify_seeds) in
  Array.iter (fun s -> ignore (Lower.compile_source s)) srcs;
  let nodes = Array.fold_left (fun acc s -> acc + ast_nodes s) 0 srcs in
  let config =
    { C.default with C.certifier = Some (timed_certifier (Sp_opt.Certify.hook ())) }
  in
  let n = Array.length srcs in
  let results = Array.make n None in
  let run i =
    let p = frontend srcs.(i) in
    let r = compile config p in
    results.(i) <- Some (p, r);
    validates r && improvements_ok r
  in
  let finish () =
    let cg = codegen () in
    let failed = ref 0 in
    Array.iter
      (fun o ->
        let p, r = some_result o in
        add_compile cg r;
        let sim, same = simulate ~init:(fun st -> Oracle.init_state st p) p r in
        add_sim cg sim;
        if not same then incr failed)
      results;
    (cg, !failed)
  in
  {
    n;
    order = shuffled n;
    run;
    replay = run;
    extras = (fun i -> fingerprints (Lower.compile_source srcs.(i)));
    finish;
    nodes;
    layer = no_layer;
    untraced_layer = None;
    close = ignore;
  }

(* Service: each round sends the 72-program population in a seeded
   order (repeats, mostly cache reads), then 72 fresh Wgen programs in
   a fixed order (cache writes). The capacity is below the loops one
   round touches, so a fresh program's loops are always evicted before
   it comes back, and the writes evict population loops that the next
   round reads again. In blocks rather than one by one, the number of
   hits, misses and evictions a round makes hardly depends on the
   seed. *)
let service_fresh_seeds = List.init 72 (fun i -> 1001 + i)
let service_capacity = 32

let offline_output (p : Sp_ir.Program.t) (r : C.result) =
  Fmt.str "; %s: %d instructions for machine %s@." p.Sp_ir.Program.name r.C.code_size
    warp.Sp_machine.Machine.name
  ^ Fmt.str "%a" Sp_vliw.Prog.pp r.C.code

let service () =
  let pop =
    Array.of_list
      (List.map
         (fun (e : Sp_kernels.Suite.entry) ->
           match e.Sp_kernels.Suite.kernel.Kernel.source with
           | Kernel.W2 s -> (s, e.Sp_kernels.Suite.kernel)
           | Kernel.Ir _ -> failwith "population program without W2 source")
         Sp_kernels.Suite.all)
  in
  let fresh = Array.of_list (List.map wgen_source service_fresh_seeds) in
  let srcs = Array.append (Array.map fst pop) fresh in
  let progs = Array.map Lower.compile_source srcs in
  let nodes = Array.fold_left (fun acc s -> acc + ast_nodes s) 0 srcs in
  let svc = Service.create ~cache_capacity:service_capacity ~jobs:1 ~telemetry:true () in
  let npop = Array.length pop and n = Array.length srcs in
  let direct = Array.map (fun p -> C.program warp p) progs in
  let reference = Array.mapi (fun i r -> offline_output progs.(i) r) direct in
  let cache = Option.get (Service.cache svc) in
  let run i =
    let rq =
      Service.Compile { machine = "warp"; inject = None; trace = None; source = srcs.(i) }
    in
    let wire = span "serve.codec" (fun () -> Service.render_request rq) in
    match span "serve.codec" (fun () -> Service.parse_request wire) with
    | Error _ -> false
    | Ok rq ->
      let resp = span "serve.handle" (fun () -> Service.handle svc rq) in
      (match
         span "serve.codec" (fun () -> Service.parse_response (Service.render_response resp))
       with
      | Service.Ok body -> String.equal body reference.(i)
      | Service.Err msg ->
        Printf.eprintf "service: request %d: %s\n%!" i msg;
        false)
  in
  let order rng = Array.append (shuffled npop rng) (Array.init (n - npop) (fun k -> npop + k)) in
  let extras i =
    let p = frontend srcs.(i) in
    fingerprints p;
    if i >= npop then ignore (compile C.default p)
  in
  let finish () =
    let cg = codegen () in
    let failed = ref 0 in
    Array.iteri
      (fun i r ->
        add_compile cg r;
        let inputs, init =
          if i < npop then
            let k = snd pop.(i) in
            (k.Kernel.inputs, fun st -> k.Kernel.init st progs.(i))
          else ([], fun st -> Oracle.init_state st progs.(i))
        in
        let sim, same = simulate ~inputs ~init progs.(i) r in
        add_sim cg sim;
        if not same then incr failed)
      direct;
    (cg, !failed)
  in
  let layer () =
    let stats0 = Cache.stats cache in
    fun ~untraced ~traced ->
    let s = Cache.stats cache in
    cache_layer
      [ { s with
          Cache.hits = s.Cache.hits - stats0.Cache.hits;
          misses = s.Cache.misses - stats0.Cache.misses;
          rejects = s.Cache.rejects - stats0.Cache.rejects;
          evictions = s.Cache.evictions - stats0.Cache.evictions } ]
      (float_of_int (untraced + traced))
  in
  {
    n;
    order;
    run;
    replay = run;
    extras;
    finish;
    nodes;
    layer;
    untraced_layer = None;
    close = (fun () -> Service.close svc);
  }

let workloads =
  [
    { name = "livermore"; setup = livermore };
    { name = "campaign"; setup = campaign };
    { name = "certify"; setup = certify };
    { name = "service"; setup = service };
  ]

(* ---- statistics --------------------------------------------------------- *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.

(* ---- host calibration ---------------------------------------------------- *)

let since t0 = Int64.to_float (Int64.sub (Span.now ()) t0) *. 1e-9

(* On a small shared host, the speed of the host drifts by a third
   within and between runs (neighbours on the same cores and caches),
   and a fixed stdlib-only job drifts in step with the compiler. The
   run times this job before every set-up, and before every stretch of
   about 50 ms of timed items, and scales each time it measures to a
   host on which the job takes [reference_s], using the median of the
   last three readings. The job allocates, hashes and sorts, as the
   compiler does, so that memory and cache contention move it too; it
   calls no code of this repository, so a change to the compiler
   cannot move it. *)
let reference_s = 0.005
let stretch_s = 0.05

let job () =
  let t0 = Span.now () in
  let h = Hashtbl.create 256 in
  for i = 0 to 5_000 do
    Hashtbl.replace h (i * 7919 mod 100_003) (string_of_int i)
  done;
  let l = List.init 2_500 (fun i -> i * 31337 mod 65_521) in
  let a = Array.init 5_000 (fun i -> float_of_int (i * 17 mod 1000)) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, List.sort compare l, a));
  since t0

let readings = ref []
let recent = ref []

(** Run the job; the scale factor it implies for the times that follow. *)
let calibrate () =
  let t = job () in
  readings := t :: !readings;
  recent := t :: (match !recent with a :: b :: _ -> [ a; b ] | l -> l);
  reference_s /. median !recent

(* ---- the run ------------------------------------------------------------ *)

(* Set-up is everything before the first timed round: inputs, reference
   outputs, the engine, and one warm-up round that fills its caches. It
   is repeated and the median reported. *)
let setup_reps = 3

type measured = {
  scale : float;  (** [reference_s] over the run's median calibration time *)
  calibrations : int;
  setup_s : float;
  latencies : float list array;
      (** per item, one scaled sample per untraced round *)
  untraced : float list;  (** round times: the sum of their item latencies *)
  traced : float list;
  spans : Span.t list;
  profile : Cost.profile;  (** the first traced round's work units *)
  gc_minor : float list;  (** per untraced round *)
  gc_major : float list;
  peak_heap_mb : float;  (** top of the major heap after set-up *)
  layer : (string * string * float) list;
  attempted : int;
  failed : int;
}

(* Whole rounds until [seconds] have passed. With [trace], rounds
   alternate untraced and traced, so both kinds see the same host
   conditions. *)
let measure (w : workload) ~seed ~seconds ~trace =
  let attempted = ref 0 and failed = ref 0 and item = ref 0 in
  let one (p : prepared) ~traced i =
    Span.item := !item;
    incr item;
    let t0 = Span.now () in
    let ok =
      try span "item" (fun () -> if traced then p.replay i else p.run i)
      with e ->
        Printf.eprintf "%s: item %d raised %s\n%!" w.name i (Printexc.to_string e);
        false
    in
    incr attempted;
    if not ok then incr failed;
    since t0
  in
  let setups =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        let before = calibrate () in
        let t0 = Span.now () in
        let p = w.setup () in
        Array.iter (fun i -> ignore (one p ~traced:false i)) (p.order (Random.State.make [| 0 |]));
        let t = since t0 in
        (t *. (before +. calibrate ()) /. 2., p))
  in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let p = snd (List.nth setups (setup_reps - 1)) in
  List.iter (fun (_, q) -> if q != p then q.close ()) setups;
  let rng = Random.State.make [| seed |] in
  let latencies = Array.make p.n [] in
  let layer = p.layer () in
  let untraced = ref [] and traced = ref [] and spans = ref [] and profile = ref None in
  let gc_minor = ref [] and gc_major = ref [] in
  let deadline = Int64.add (Span.now ()) (Int64.of_float (seconds *. 1e9)) in
  let round = ref 0 in
  while !round < 2 || Span.now () < deadline do
    let order = p.order rng in
    let scale = ref (calibrate ()) and stretch = ref 0. in
    if trace && !round mod 2 = 1 then begin
      Span.on := true;
      Cost.enable ();
      let t, prof =
        Array.fold_left
          (fun (t, prof) i ->
            let dt, c = Cost.collect (fun () -> one p ~traced:true i) in
            p.extras i;
            (t +. dt, Cost.merge prof c))
          (0., Cost.empty) order
      in
      Cost.disable ();
      Span.on := false;
      if !profile = None then profile := Some prof;
      spans := List.rev_append (Span.take ()) !spans;
      traced := t :: !traced
    end
    else begin
      let g0 = Gc.quick_stat () in
      let t =
        Array.fold_left
          (fun t i ->
            let dt = one p ~traced:false i in
            latencies.(i) <- (!scale *. dt) :: latencies.(i);
            stretch := !stretch +. dt;
            if !stretch >= stretch_s then begin
              scale := calibrate ();
              stretch := 0.
            end;
            t +. dt)
          0. order
      in
      let g1 = Gc.quick_stat () in
      gc_minor := (g1.Gc.minor_words -. g0.Gc.minor_words) :: !gc_minor;
      gc_major := float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) :: !gc_major;
      untraced := t :: !untraced
    end;
    incr round
  done;
  ( p,
    {
      scale = reference_s /. median !readings;
      calibrations = List.length !readings;
      setup_s = median (List.map fst setups);
      latencies;
      untraced = !untraced;
      traced = !traced;
      spans = List.rev !spans;
      profile = Option.value ~default:Cost.empty !profile;
      gc_minor = !gc_minor;
      gc_major = !gc_major;
      peak_heap_mb;
      layer = layer ~untraced:(List.length !untraced) ~traced:(List.length !traced);
      attempted = !attempted;
      failed = !failed;
    } )

(* ---- metrics -------------------------------------------------------- *)

type value = I of int | F of float

(* Estimator: each item's median latency over the untraced rounds.
   Throughput is items over the sum of those medians; the latency
   percentiles are taken across items. Times are scaled to the
   reference host. *)
let end_to_end (m : measured) (cg : codegen) =
  let meds = Array.to_list (Array.map median m.latencies) in
  [
    ("setup_s", "s", F m.setup_s);
    ("items_per_s", "1/s", F (float_of_int (List.length meds) /. sum meds));
    ("latency_ms_p50", "ms", F (1e3 *. median meds));
    ("latency_ms_p90", "ms", F (1e3 *. quantile 0.9 meds));
    ("peak_heap_mb", "MB", F m.peak_heap_mb);
    ("sim_cycles", "count", I cg.cycles);
    ("code_words", "count", I cg.words);
    ("ii_over_mii", "ratio", F (float_of_int cg.ii /. float_of_int (max 1 cg.mii)));
    ("loops_pipelined", "count", I cg.piped);
  ]

let phase_units = [ Cost.P_ddg; P_compact; P_bounds; P_search; P_mve; P_emit; P_validate ]

let timed_spans =
  [ "lang.frontend"; "core.compile"; "core.compile_j2"; "core.compile_cached"; "opt.certify";
    "serve.fingerprint"; "serve.cache_probe"; "serve.codec"; "serve.handle"; "vliw.check";
    "vliw.validate"; "vliw.sim"; "ir.interp"; "camp.oracle"; "camp.gen" ]

(* Every per-layer metric; a layer the workload's path does not run
   reads 0. Times are seconds per traced round, scaled like the
   end-to-end times; counts are per round. *)
let per_layer (p : prepared) (m : measured) (cg : codegen) =
  let rounds = float_of_int (List.length m.traced) in
  let by_name = Span.total_by_name m.spans and self = Span.self_by_layer m.spans in
  let phase ph =
    List.fold_left
      (fun acc ((_, ph'), cs) ->
        if ph' = ph then List.fold_left (fun acc (_, k) -> acc + k) acc cs else acc)
      0 (Cost.cells m.profile)
  in
  let counter c = List.assoc c (Cost.counter_totals m.profile) in
  let untraced_s = median m.untraced and traced_s = median m.traced in
  let per_round x = F (m.scale *. x /. rounds) in
  let sim_s = by_name "vliw.sim" /. rounds in
  List.map
    (fun name ->
      let metric = name ^ "_s" in
      (metric, "s",
       if p.untraced_layer = Some metric then F (m.scale *. untraced_s) else per_round (by_name name)))
    timed_spans
  @ List.map (fun ph -> ("core." ^ Cost.phase_name ph ^ ".units", "units", I (phase ph))) phase_units
  @ [
      ("lang.ast_nodes", "count", I p.nodes);
      ("core.search.ii_probed", "count", I cg.probed);
      ("core.search.fuel", "units", I cg.fuel);
      ("core.ii_excess", "count", I (cg.ii - cg.mii));
      ("opt.certify.units", "units", I (phase Cost.P_certify));
      ("opt.exact_nodes", "count", I (counter Cost.Exact_node));
      ("opt.nogood_hits", "count", I (counter Cost.Exact_nogood_hit));
      ("opt.backjumps", "count", I (counter Cost.Exact_backjump));
      ("opt.decided_frac", "ratio",
       F (if cg.certified = 0 then 0.
          else float_of_int (cg.certified - cg.unknown) /. float_of_int cg.certified));
      ("opt.loops_unknown", "count", I cg.unknown);
      ("serve.cache.units", "units", I (phase Cost.P_cache));
      ("vliw.sim_mcycles_per_s", "Mcycles/s",
       F (if sim_s > 0. then float_of_int cg.cycles /. (m.scale *. sim_s) /. 1e6 else 0.));
      ("vliw.dyn_ops", "count", I cg.dyn_ops);
      ("gc.minor_mwords", "Mwords", F (median m.gc_minor /. 1e6));
      ("gc.major_collections", "count", F (median m.gc_major));
      ("trace.overhead_frac", "ratio", F ((traced_s /. untraced_s) -. 1.));
    ]
  @ List.map (fun (k, unit, v) -> (k, unit, F v)) m.layer
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s", per_round (self l))) Span.layers

let print_result ~correct ~attempted ~failed metrics =
  let num = function
    | I i -> string_of_int i
    | F f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

let report (w : workload) (m : measured) ~attempted ~failed metrics =
  let pr fmt = Printf.eprintf fmt in
  pr "%s: set-up median of %d; %d untraced and %d traced rounds; %d items a round\n" w.name
    setup_reps (List.length m.untraced) (List.length m.traced)
    (Array.length m.latencies);
  pr "  latency samples: %d (per item: median over rounds; percentiles across items)\n"
    (Array.fold_left (fun acc l -> acc + List.length l) 0 m.latencies);
  pr "  error_rate: %d/%d\n" failed attempted;
  pr "  calibration job: median %.2f ms over %d runs (scale %.3f at the median)\n"
    (1e3 *. reference_s /. m.scale) m.calibrations m.scale;
  List.iter
    (fun (name, unit, v) ->
      match v with
      | I i -> pr "  %-28s %14d %s\n" name i unit
      | F f -> pr "  %-28s %14.6g %s\n" name f unit)
    metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " livermore | campaign | certify | service");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured time (default 10)");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics and span output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline usage;
    exit 2
  | Some w ->
    let trace = !trace = 1 in
    let p, m = measure w ~seed:!seed ~seconds:!seconds ~trace in
    let cg, finish_failed =
      try p.finish ()
      with e ->
        Printf.eprintf "%s: verification raised %s\n%!" w.name (Printexc.to_string e);
        (codegen (), p.n)
    in
    p.close ();
    let attempted = m.attempted + p.n and failed = m.failed + finish_failed in
    let metrics = if trace then per_layer p m cg else end_to_end m cg in
    if trace then begin
      (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "_perfbench/spans-%s-%d.jsonl" w.name !seed in
      Span.write path m.spans;
      Printf.eprintf "%s: %d spans written to %s\n" w.name (List.length m.spans) path
    end;
    report w m ~attempted ~failed metrics;
    print_result ~correct:(failed = 0) ~attempted ~failed metrics

(** See the mli for the protocol contract. *)

module Compile = Sp_core.Compile
module Machine = Sp_machine.Machine
module Pool = Sp_util.Pool
module Fault = Sp_util.Fault
module Json = Sp_obs.Json
module Trace = Sp_obs.Trace
module Series = Sp_obs.Series
module Render = Sp_obs.Render

type request =
  | Compile of {
      machine : string;
      inject : (string * int) option;
      trace : string option;
      source : string;
    }
  | Stats
  | Status
  | Dashboard
  | Ping

type response = Ok of string | Err of string

(* ---- payload codec -------------------------------------------------- *)

let render_request = function
  | Compile { machine; inject; trace; source } ->
    let inj =
      match inject with
      | None -> ""
      | Some (site, k) -> Printf.sprintf " inject=%s@%d" site k
    in
    let tr =
      match trace with None -> "" | Some id -> Printf.sprintf " trace=%s" id
    in
    Printf.sprintf "compile %s%s%s\n%s" machine inj tr source
  | Stats -> "stats"
  | Status -> "status"
  | Dashboard -> "dashboard"
  | Ping -> "ping"

(* A compile head token is [key=value]; unknown keys and malformed
   values are request errors, so a typo'd client never silently
   compiles without its fault or trace id. *)
let parse_compile_token tok =
  match String.index_opt tok '=' with
  | None -> Result.Error (Printf.sprintf "bad request token %S" tok)
  | Some i -> (
    let key = String.sub tok 0 i in
    let v = String.sub tok (i + 1) (String.length tok - i - 1) in
    match key with
    | "inject" -> (
      match Fault.parse_spec v with
      | Some ij -> Result.Ok (`Inject ij)
      | None -> Result.Error (Printf.sprintf "bad request token %S" tok))
    | "trace" ->
      if v = "" then Result.Error "empty trace id"
      else Result.Ok (`Trace v)
    | _ -> Result.Error (Printf.sprintf "bad request token %S" tok))

let parse_request payload =
  let head, body =
    match String.index_opt payload '\n' with
    | Some i ->
      ( String.sub payload 0 i,
        String.sub payload (i + 1) (String.length payload - i - 1) )
    | None -> (payload, "")
  in
  match String.split_on_char ' ' head with
  | "compile" :: machine :: toks ->
    let rec fold inject trace = function
      | [] -> Result.Ok (Compile { machine; inject; trace; source = body })
      | tok :: rest -> (
        match parse_compile_token tok with
        | Result.Error _ as e -> e
        | Result.Ok (`Inject ij) -> fold (Some ij) trace rest
        | Result.Ok (`Trace id) -> fold inject (Some id) rest)
    in
    if machine = "" then Result.Error "empty machine name"
    else fold None None toks
  | [ "stats" ] -> Result.Ok Stats
  | [ "status" ] -> Result.Ok Status
  | [ "dashboard" ] -> Result.Ok Dashboard
  | [ "ping" ] -> Result.Ok Ping
  | verb :: _ -> Result.Error (Printf.sprintf "unknown request verb %S" verb)
  | [] -> Result.Error "empty request"

let render_response = function
  | Ok body -> "ok\n" ^ body
  | Err msg -> "error\n" ^ msg

let parse_response payload =
  let prefixed p =
    let n = String.length p in
    if String.length payload >= n && String.sub payload 0 n = p then
      Some (String.sub payload n (String.length payload - n))
    else None
  in
  match prefixed "ok\n" with
  | Some body -> Ok body
  | None -> (
    match prefixed "error\n" with
    | Some msg -> Err msg
    | None -> Err (Printf.sprintf "malformed response payload %S" payload))

(* ---- frame I/O ------------------------------------------------------ *)

module Frame = struct
  let max_len = 16 * 1024 * 1024

  let rec write_all fd b off len =
    if len > 0 then begin
      let n = Unix.write fd b off len in
      write_all fd b (off + n) (len - n)
    end

  let write fd payload =
    let len = String.length payload in
    if len > max_len then failwith "Frame.write: payload too large";
    let b = Bytes.create (4 + len) in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    Bytes.blit_string payload 0 b 4 len;
    write_all fd b 0 (4 + len)

  (* [None] only on EOF at byte 0 of the read — EOF mid-object is a
     truncated frame and raises. *)
  let read_exact fd len =
    let b = Bytes.create len in
    let rec go off =
      if off = len then Some b
      else
        match Unix.read fd b off (len - off) with
        | 0 -> if off = 0 then None else failwith "Frame.read: truncated frame"
        | n -> go (off + n)
    in
    go 0

  let read fd =
    match read_exact fd 4 with
    | None -> None
    | Some hdr ->
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_len then
        failwith "Frame.read: bad frame length"
      else (
        match read_exact fd len with
        | None -> failwith "Frame.read: truncated frame"
        | Some b -> Some (Bytes.to_string b))
end

(* ---- telemetry ------------------------------------------------------ *)

(* All series share one logical clock: the request sequence number,
   assigned in admission order by the (single) driving domain. Wall
   time appears only as series *values* (latencies) — the window
   structure, counts and every counter-valued series are deterministic
   functions of the request stream. Cache counters cannot be attributed
   per-request while a batch runs concurrently on the pool, so they are
   recorded as one per-batch delta stamped with the batch's last
   sequence number — exact per-request under the sequential replay the
   SLO bench drives. *)
type telemetry = {
  mutable seq : int;  (** next sequence number = requests admitted *)
  mutable n_ok : int;
  mutable n_err : int;
  mutable n_compile : int;
  s_lat_us : Series.t;
  s_occupancy : Series.t;
  s_failures : Series.t;
  s_faults : Series.t;
  s_hits : Series.t;
  s_misses : Series.t;
  s_rejects : Series.t;
  s_evictions : Series.t;
  s_cost : Series.t;
      (** deterministic work units per compile ({!Sp_obs.Cost} profile
          total) — recorded only while cost accounting is enabled *)
}

let telemetry_window = 32

let make_telemetry () =
  let mk ~lo ~width ~buckets =
    Series.create ~capacity:4096 ~window:telemetry_window ~lo ~width ~buckets
      ()
  in
  {
    seq = 0;
    n_ok = 0;
    n_err = 0;
    n_compile = 0;
    s_lat_us = mk ~lo:0. ~width:1000. ~buckets:128;
    s_occupancy = mk ~lo:0. ~width:1. ~buckets:64;
    s_failures = mk ~lo:0. ~width:1. ~buckets:2;
    s_faults = mk ~lo:0. ~width:1. ~buckets:2;
    s_hits = mk ~lo:0. ~width:1. ~buckets:64;
    s_misses = mk ~lo:0. ~width:1. ~buckets:64;
    s_rejects = mk ~lo:0. ~width:1. ~buckets:64;
    s_evictions = mk ~lo:0. ~width:1. ~buckets:64;
    s_cost = mk ~lo:0. ~width:1000. ~buckets:128;
  }

(* ---- the engine ----------------------------------------------------- *)

type t = {
  pool : Pool.t;
  cache : Cache.t option;
  hook : Compile.cache option;
  tele : telemetry option;
  log : out_channel option;
}

let machine_of_string s =
  match s with
  | "warp" -> Result.Ok Machine.warp
  | "toy" -> Result.Ok Machine.toy
  | "serial" -> Result.Ok Machine.serial
  | _ -> (
    try Scanf.sscanf s "warp%dx" (fun w -> Result.Ok (Machine.warp_scaled ~width:w))
    with _ -> Result.Error (Printf.sprintf "unknown machine %S" s))

let create ?(cache_capacity = 256) ?(jobs = 1) ?(telemetry = true) ?log () =
  let cache = if cache_capacity > 0 then Some (Cache.create ~capacity:cache_capacity) else None in
  {
    pool = Pool.create ~jobs;
    cache;
    hook = Option.map Cache.hook cache;
    tele = (if telemetry then Some (make_telemetry ()) else None);
    log;
  }

let close (_ : t) = ()
let cache t = t.cache

let cache_stats t =
  match t.cache with
  | Some c -> Cache.stats c
  | None ->
    { Cache.hits = 0; misses = 0; rejects = 0; inserts = 0; evictions = 0;
      entries = 0 }

let cache_fields t =
  let s = cache_stats t in
  [
    ( "capacity",
      Json.Int (match t.cache with Some c -> Cache.capacity c | None -> 0) );
    ("entries", Json.Int s.Cache.entries);
    ("hits", Json.Int s.Cache.hits);
    ("misses", Json.Int s.Cache.misses);
    ("rejects", Json.Int s.Cache.rejects);
    ("inserts", Json.Int s.Cache.inserts);
    ("evictions", Json.Int s.Cache.evictions);
  ]

let stats_schema = "w2cd-stats/2"
let status_schema = "w2cd-status/2"
let trace_schema = "w2cd-trace/1"
let reqlog_schema = "w2cd-reqlog/1"

let stats_json t =
  Json.to_string ~pretty:true
    (Json.Obj (("schema", Json.Str stats_schema) :: cache_fields t))

(* The error budget is a plain availability SLO: at most 1 failed
   request per 100 over the daemon's lifetime (trivially met at 0
   requests). The rate is over all requests — protocol verbs that
   cannot fail only add budget, never spend it. *)
let error_budget_fields (te : telemetry) =
  let reqs = te.seq in
  [
    ("requests", Json.Int reqs);
    ("errors", Json.Int te.n_err);
    ("budget_pct", Json.Float 1.0);
    ("ok", Json.Bool (te.n_err * 100 <= reqs));
  ]

(* Per-worker executed-task counts: shard-skew diagnostics, reported
   only in the status document. *)
let pool_fields t =
  let counts = Pool.worker_counts t.pool in
  [
    ("jobs", Json.Int (Pool.jobs t.pool));
    ( "worker_tasks",
      Json.List (Array.to_list (Array.map (fun c -> Json.Int c) counts)) );
  ]

let status_json t =
  let base =
    [
      ("schema", Json.Str status_schema);
      ("telemetry", Json.Bool (t.tele <> None));
    ]
  in
  let body =
    match t.tele with
    | None ->
      [
        ("cache", Json.Obj (cache_fields t));
        ("pool", Json.Obj (pool_fields t));
      ]
    | Some te ->
      [
        ("uptime_requests", Json.Int te.seq);
        ( "requests",
          Json.Obj
            [
              ("total", Json.Int te.seq);
              ("compile", Json.Int te.n_compile);
              ("ok", Json.Int te.n_ok);
              ("error", Json.Int te.n_err);
            ] );
        ("error_budget", Json.Obj (error_budget_fields te));
        ( "series",
          Json.Obj
            [
              ("latency_us", Series.to_json te.s_lat_us);
              ("occupancy", Series.to_json te.s_occupancy);
              ("failures", Series.to_json te.s_failures);
              ("faults", Series.to_json te.s_faults);
              ("cache_hits", Series.to_json te.s_hits);
              ("cache_misses", Series.to_json te.s_misses);
              ("cache_rejects", Series.to_json te.s_rejects);
              ("cache_evictions", Series.to_json te.s_evictions);
              ("cost", Series.to_json te.s_cost);
            ] );
        ( "cost",
          Json.Obj
            [
              ("enabled", Json.Bool (Sp_obs.Cost.enabled ()));
              ("compiles_measured", Json.Int (Series.count te.s_cost));
            ] );
        ("cache", Json.Obj (cache_fields t));
        ("pool", Json.Obj (pool_fields t));
      ]
  in
  Json.to_string ~pretty:true (Json.Obj (base @ body))

(* ---- dashboard ------------------------------------------------------ *)

let window_means s =
  List.map
    (fun w ->
      if w.Series.w_count = 0 then 0.
      else w.Series.w_sum /. float_of_int w.Series.w_count)
    (Series.windows s)

let window_sums s =
  List.map (fun w -> w.Series.w_sum) (Series.windows s)

(* Overall quantile over the retained ring (not windowed): sort and
   index — the ring is at most a few thousand samples. *)
let retained_quantile s q =
  match List.map snd (Series.retained s) with
  | [] -> None
  | vs ->
    let a = Array.of_list vs in
    Array.sort compare a;
    let n = Array.length a in
    let i = min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1) in
    Some a.(max 0 i)

let dashboard_html t =
  let cs = cache_stats t in
  let cap = match t.cache with Some c -> Cache.capacity c | None -> 0 in
  let hit_rate_strip te =
    (* per-window hit rate: hits / (hits + misses), both per-batch
       delta series on the same logical clock *)
    let hs = Series.windows te.s_hits and ms = Series.windows te.s_misses in
    List.filter_map
      (fun (h : Series.window) ->
        match
          List.find_opt (fun (m : Series.window) -> m.Series.w_index = h.Series.w_index) ms
        with
        | None -> None
        | Some m ->
          let total = h.Series.w_sum +. m.Series.w_sum in
          Some (if total <= 0. then 0. else h.Series.w_sum /. total))
      hs
  in
  let dash =
    match t.tele with
    | None ->
      {
        Render.d_title = "w2cd service dashboard";
        d_tiles =
          [
            ("telemetry", "off");
            ("cache entries", Printf.sprintf "%d / %d" cs.Cache.entries cap);
          ];
        d_strips = [];
        d_grids =
          [ { Render.g_name = "cache occupancy"; g_filled = cs.Cache.entries;
              g_total = cap } ];
      }
    | Some te ->
      let fq q =
        match retained_quantile te.s_lat_us q with
        | None -> "-"
        | Some v -> Printf.sprintf "%.0f us" v
      in
      {
        Render.d_title = "w2cd service dashboard";
        d_tiles =
          [
            ("requests", string_of_int te.seq);
            ("compiles", string_of_int te.n_compile);
            ("errors", string_of_int te.n_err);
            ("latency p50", fq 0.5);
            ("latency p99", fq 0.99);
            ( "error budget",
              if te.n_err * 100 <= te.seq then "ok" else "SPENT" );
            ("cache entries", Printf.sprintf "%d / %d" cs.Cache.entries cap);
          ];
        d_strips =
          [
            { Render.st_name = "latency us (window mean)";
              st_points = window_means te.s_lat_us };
            { Render.st_name = "batch occupancy (window mean)";
              st_points = window_means te.s_occupancy };
            { Render.st_name = "cache hit rate (per window)";
              st_points = hit_rate_strip te };
            { Render.st_name = "failures (per window)";
              st_points = window_sums te.s_failures };
            { Render.st_name = "compile cost, work units (window mean)";
              st_points = window_means te.s_cost };
          ];
        d_grids =
          [ { Render.g_name = "cache occupancy"; g_filled = cs.Cache.entries;
              g_total = cap } ];
      }
  in
  Render.dashboard dash

(* ---- request execution ---------------------------------------------- *)

let describe_exn = function
  | Sp_lang.Lexer.Error (p, m) ->
    Fmt.str "lexical error at %a: %s" Sp_lang.Token.pp_pos p m
  | Sp_lang.Parser.Error (p, m) ->
    Fmt.str "syntax error at %a: %s" Sp_lang.Token.pp_pos p m
  | Sp_lang.Typecheck.Error (p, m) ->
    Fmt.str "type error at %a: %s" Sp_lang.Token.pp_pos p m
  | Fault.Injected site -> "fault injected at " ^ site
  | e -> Printexc.to_string e

(* One compile, cache attached, response text byte-identical to offline
   [w2c compile]: the header comment plus the pretty-printed program.
   Requests compile at [jobs = 1] — parallelism lives across requests
   (the pool), not inside one. The phase spans cost one branch each
   when no trace is being recorded. *)
let compile_body t ~machine ~source =
  match machine_of_string machine with
  | Result.Error msg -> Err msg
  | Result.Ok m -> (
    match
      let p =
        Trace.span "request.decode" (fun () ->
            Sp_lang.Lower.compile_source source)
      in
      let config = { Compile.default with Compile.cache = t.hook } in
      let r =
        Trace.span "request.schedule" (fun () -> Compile.program ~config m p)
      in
      Trace.span "request.encode" (fun () -> Compile.listing m p r)
    with
    | exception e -> Err (describe_exn e)
    | body -> Ok body)

(* Arming a fault is only legal in sequential request execution; the
   arm/disarm window is scoped to this one request ([Fault.with_armed])
   so an armed site can never leak into a later request served from the
   same (or a cached) compile. *)
let compile_exec t ~machine ~inject ~source =
  match inject with
  | None -> compile_body t ~machine ~source
  | Some (site, k) -> (
    match Fault.check_site site with
    | Error msg -> Err msg
    | Ok () ->
      Fault.with_armed ~site ~after:k (fun () ->
          compile_body t ~machine ~source))

(* What the telemetry recorder needs to know about one executed
   request, beyond its response. *)
type outcome = {
  o_resp : response;
  o_verb : string;
  o_lat_us : float;
  o_fault : bool;
  o_trace : string option;
  o_spans : Trace.tree list option;
  o_cost : float option;
      (** compile work units, when cost accounting is enabled *)
}

let run_one t = function
  | Compile { machine; inject; trace = None; source } ->
    compile_exec t ~machine ~inject ~source
  | Compile { machine; inject; trace = Some _; source } ->
    (* reachable only through the telemetry-off service: execute the
       compile; the span tree is not captured (nothing records it) *)
    compile_exec t ~machine ~inject ~source
  | Stats -> Ok (stats_json t)
  | Status -> Ok (status_json t)
  | Dashboard -> Ok (dashboard_html t)
  | Ping -> Ok "pong"

let verb_of = function
  | Compile _ -> "compile"
  | Stats -> "stats"
  | Status -> "status"
  | Dashboard -> "dashboard"
  | Ping -> "ping"

(* Telemetry-path execution of one request on whatever domain the pool
   picked: times the request and, when it carries a trace id, records
   its span tree via the domain-local capture ({!Trace.with_recording}),
   so a co-scheduled request can neither see nor corrupt it. *)
let exec_one t rq =
  let t0 = Monotonic_clock.now () in
  (* cost capture is domain-local ([Cost.collect]), so co-scheduled
     requests on other pool domains cannot bleed work units into this
     one; the profile total feeds the cost series per request *)
  let (resp, spans), cost =
    Sp_obs.Cost.collect (fun () ->
        match rq with
        | Compile { machine; inject; trace = Some _; source } ->
          let res, events =
            Trace.with_recording (fun () ->
                Trace.span "request" (fun () ->
                    compile_exec t ~machine ~inject ~source))
          in
          let resp =
            match res with
            | Result.Ok r -> r
            | Result.Error e -> Err (describe_exn e)
          in
          (resp, Some (Trace.tree_of_events events))
        | rq -> (run_one t rq, None))
  in
  let lat_ns = Int64.sub (Monotonic_clock.now ()) t0 in
  {
    o_resp = resp;
    o_verb = verb_of rq;
    o_lat_us = Int64.to_float lat_ns /. 1000.;
    o_fault = (match rq with Compile { inject = Some _; _ } -> true | _ -> false);
    o_trace = (match rq with Compile { trace; _ } -> trace | _ -> None);
    o_spans = spans;
    o_cost =
      (match rq with
      | Compile _ when Sp_obs.Cost.enabled () ->
        Some (float_of_int (Sp_obs.Cost.total cost))
      | _ -> None);
  }

(* The final response for a traced compile wraps the compile output in
   a versioned JSON envelope carrying the request's identity and span
   tree; errors keep the plain [error] payload with the identity
   appended so a failure is attributable from the message alone. *)
let finish_response ~seq out =
  match (out.o_trace, out.o_resp) with
  | None, (Ok _ as resp) -> resp
  | None, Err msg -> Err (Printf.sprintf "%s [req %d]" msg seq)
  | Some id, Ok body ->
    Ok
      (Json.to_string ~pretty:true
         (Json.Obj
            [
              ("schema", Json.Str trace_schema);
              ("trace", Json.Str id);
              ("seq", Json.Int seq);
              ( "spans",
                Trace.trees_json (Option.value ~default:[] out.o_spans) );
              ("output", Json.Str body);
            ]))
  | Some id, Err msg ->
    Err (Printf.sprintf "%s [req %d trace=%s]" msg seq id)

let log_line t ~seq out =
  match t.log with
  | None -> ()
  | Some oc ->
    let err =
      match out.o_resp with
      | Ok _ -> []
      | Err m -> [ ("error", Json.Str m) ]
    in
    let spans =
      match out.o_spans with
      | None -> []
      | Some ts -> [ ("spans", Trace.trees_json ts) ]
    in
    Json.to_channel oc
      (Json.Obj
         ([
            ("schema", Json.Str reqlog_schema);
            ("seq", Json.Int seq);
            ("verb", Json.Str out.o_verb);
            ( "trace",
              match out.o_trace with
              | None -> Json.Null
              | Some id -> Json.Str id );
            ( "outcome",
              Json.Str (match out.o_resp with Ok _ -> "ok" | Err _ -> "error")
            );
            ("lat_us", Json.Float out.o_lat_us);
          ]
         @ err @ spans))

let record t (te : telemetry) ~seq0 outs =
  List.iteri
    (fun i out ->
      let seq = seq0 + i in
      let failed = match out.o_resp with Ok _ -> false | Err _ -> true in
      (match out.o_resp with
      | Ok _ -> te.n_ok <- te.n_ok + 1
      | Err _ -> te.n_err <- te.n_err + 1);
      if out.o_verb = "compile" then te.n_compile <- te.n_compile + 1;
      Series.add ~seq te.s_lat_us out.o_lat_us;
      Series.add ~seq te.s_failures (if failed then 1. else 0.);
      Series.add ~seq te.s_faults (if out.o_fault then 1. else 0.);
      Option.iter (fun c -> Series.add ~seq te.s_cost c) out.o_cost;
      log_line t ~seq out)
    outs;
  (match t.log with Some oc -> flush oc | None -> ())

let arms_fault = function
  | Compile { inject = Some _; _ } -> true
  | _ -> false

let is_traced = function
  | Compile { trace = Some _; _ } -> true
  | _ -> false

let handle_batch t rqs =
  match t.tele with
  | None ->
    (* PR 7 path, byte-for-byte: no clocks, no series, no stamping *)
    if List.exists arms_fault rqs then List.map (run_one t) rqs
    else
      Pool.try_run t.pool (List.map (fun rq () -> run_one t rq) rqs)
      |> List.map (function
           | Result.Ok r -> r
           | Result.Error (e, _) -> Err (describe_exn e))
  | Some te ->
    let n = List.length rqs in
    let seq0 = te.seq in
    te.seq <- te.seq + n;
    let before = cache_stats t in
    let outs =
      if List.exists arms_fault rqs || List.exists is_traced rqs then
        (* a batch that injects must run whole on the calling domain
           (hit counting is global, so the armed window must not
           overlap any concurrent compile); a batch that traces runs
           the same way so the traced request's span tree — including
           its cache probes — depends only on the requests admitted
           before it, not on scheduling *)
        List.map (exec_one t) rqs
      else
        Pool.try_run t.pool (List.map (fun rq () -> exec_one t rq) rqs)
        |> List.map2
             (fun rq -> function
               | Result.Ok out -> out
               | Result.Error (e, _) ->
                 {
                   o_resp = Err (describe_exn e);
                   o_verb = verb_of rq;
                   o_lat_us = 0.;
                   o_fault = false;
                   o_trace = None;
                   o_spans = None;
                   o_cost = None;
                 })
             rqs
    in
    (* batch occupancy: every request of this batch saw [n] co-residents
       (itself included) *)
    List.iteri
      (fun i _ -> Series.add ~seq:(seq0 + i) te.s_occupancy (float_of_int n))
      outs;
    record t te ~seq0 outs;
    (* cache movement per batch, stamped at the batch's last seq *)
    if n > 0 then begin
      let after = cache_stats t in
      let last = seq0 + n - 1 in
      let d f = float_of_int (f after - f before) in
      Series.add ~seq:last te.s_hits (d (fun s -> s.Cache.hits));
      Series.add ~seq:last te.s_misses (d (fun s -> s.Cache.misses));
      Series.add ~seq:last te.s_rejects (d (fun s -> s.Cache.rejects));
      Series.add ~seq:last te.s_evictions (d (fun s -> s.Cache.evictions))
    end;
    List.mapi (fun i out -> finish_response ~seq:(seq0 + i) out) outs

let handle t rq =
  match handle_batch t [ rq ] with
  | [ r ] -> r
  | _ -> Err "internal: response count mismatch"

let telemetry_seq t = match t.tele with None -> 0 | Some te -> te.seq

(* ---- the offline driver's metrics ----------------------------------- *)

let metrics_json ?sim ?cache cost (loops : Compile.loop_report list) =
  let sum f = List.fold_left (fun acc lr -> acc + f lr) 0 loops in
  let spent (lr : Compile.loop_report) =
    match lr.Compile.cert with
    | Some
        ( Compile.Cert_optimal { spent }
        | Compile.Cert_improved { spent; _ }
        | Compile.Cert_unknown { spent; _ } ) ->
      spent
    | None -> 0
  in
  let totals = Sp_obs.Cost.counter_totals cost in
  let units c = List.assoc c totals in
  let ran f = match sim with Some s -> f s | None -> 0 in
  let cached f = match cache with Some s -> f s | None -> 0 in
  let counter (name, n) =
    (name, Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int n) ])
  in
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ( "metrics",
        Json.Obj
          (List.map counter
             [
               ("exact.backjumps", units Sp_obs.Cost.Exact_backjump);
               ("exact.fuel_spent", sum spent);
               ("exact.nodes_expanded", units Sp_obs.Cost.Exact_node);
               ("exact.nogood_hits", units Sp_obs.Cost.Exact_nogood_hit);
               ( "exact.pruned",
                 units Sp_obs.Cost.Exact_prune_window
                 + units Sp_obs.Cost.Exact_prune_resource );
               ( "modsched.fuel_spent",
                 sum (fun lr -> lr.Compile.fuel_spent) );
               ( "modsched.intervals_probed",
                 sum (fun lr -> lr.Compile.probed) );
               ("serve.cache.evict", cached (fun s -> s.Cache.evictions));
               ("serve.cache.hit", cached (fun s -> s.Cache.hits));
               ("serve.cache.insert", cached (fun s -> s.Cache.inserts));
               ("serve.cache.miss", cached (fun s -> s.Cache.misses));
               ("serve.cache.reject", cached (fun s -> s.Cache.rejects));
               ("sim.cycles", ran (fun s -> s.Sp_vliw.Sim.cycles));
               ("sim.dyn_ops", ran (fun s -> s.Sp_vliw.Sim.dyn_ops));
             ]) );
    ]

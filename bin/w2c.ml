(** [w2c] — the W2-to-VLIW compiler driver.

    {v
      w2c compile prog.w2          compile and print the VLIW code
      w2c schedule prog.w2         per-loop scheduling report
      w2c run prog.w2              compile, simulate, report cycles/MFLOPS
      w2c ir prog.w2               dump the scheduling IR
    v}

    Common options: [--machine warp|toy|serial|warpNx],
    [--no-pipeline], [--mve max-q|lcm|off], [--search linear|binary],
    [--if-exclusive], [--threshold N], [--fuel N] (interval-search
    budget), [--cache N] (content-addressed schedule reuse across
    structurally identical loops), [--inject SITE\@K] (deterministic
    fault injection),
    [--validate] (replay the emitted code against the machine's timing
    and resource contracts), [--verify] (cross-check against the
    sequential interpreter).

    Every failure mode — missing or unreadable file, front-end error,
    simulator cycle-limit or write-port trap, a memory access out of
    bounds, an empty channel or a register-class fault in either
    engine — is reported as a structured error with a nonzero exit
    code, never a raw exception. *)

open Cmdliner
module C = Sp_core.Compile
module Machine = Sp_machine.Machine

let ( let* ) = Result.bind

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let machine_of_string s =
  match s with
  | "warp" -> Ok Machine.warp
  | "toy" -> Ok Machine.toy
  | "serial" -> Ok Machine.serial
  | _ -> (
    try Scanf.sscanf s "warp%dx" (fun w -> Ok (Machine.warp_scaled ~width:w))
    with _ -> Error (`Msg (Printf.sprintf "unknown machine %S" s)))

let machine_conv =
  Arg.conv
    ( machine_of_string,
      fun ppf (m : Machine.t) -> Fmt.string ppf m.Machine.name )

let machine_arg =
  let doc = "Target machine: warp, toy, serial, or warpNx (scaled)." in
  Arg.(value & opt machine_conv Machine.warp & info [ "machine"; "m" ] ~doc)

let mve_conv =
  Arg.conv
    ( (function
      | "max-q" -> Ok Sp_core.Mve.Max_q
      | "lcm" -> Ok Sp_core.Mve.Lcm
      | "off" -> Ok Sp_core.Mve.Off
      | s -> Error (`Msg (Printf.sprintf "unknown mve mode %S" s))),
      fun ppf m ->
        Fmt.string ppf
          (match m with
          | Sp_core.Mve.Max_q -> "max-q"
          | Sp_core.Mve.Lcm -> "lcm"
          | Sp_core.Mve.Off -> "off") )

let search_conv =
  Arg.conv
    ( (function
      | "linear" -> Ok Sp_core.Modsched.Linear
      | "binary" -> Ok Sp_core.Modsched.Binary
      | s -> Error (`Msg (Printf.sprintf "unknown search %S" s))),
      fun ppf s ->
        Fmt.string ppf
          (match s with
          | Sp_core.Modsched.Linear -> "linear"
          | Sp_core.Modsched.Binary -> "binary") )

let config_term =
  let no_pipeline =
    Arg.(value & flag & info [ "no-pipeline" ]
           ~doc:"Local compaction only (the Figure 4-2 baseline).")
  in
  let mve =
    Arg.(value & opt mve_conv Sp_core.Mve.Max_q & info [ "mve" ]
           ~doc:"Modulo variable expansion mode: max-q, lcm, off.")
  in
  let search =
    Arg.(value & opt search_conv Sp_core.Modsched.Linear & info [ "search" ]
           ~doc:"Initiation interval search: linear (paper) or binary.")
  in
  let if_exclusive =
    Arg.(value & flag & info [ "if-exclusive" ]
           ~doc:"Reduce conditionals to all-resources-consumed nodes.")
  in
  let threshold =
    Arg.(value & opt int C.default.C.threshold & info [ "threshold" ]
           ~doc:"Maximum compacted body length considered for pipelining.")
  in
  let fuel =
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
           ~doc:"Placement-probe budget per loop for the initiation \
                 interval search; exhaustion degrades the loop to its \
                 serial schedule. Unlimited when absent.")
  in
  let opt_conv =
    Arg.conv
      ( (function
        | "heur" -> Ok `Heur
        | "exact" -> Ok `Exact
        | s -> Error (`Msg (Printf.sprintf "unknown optimizer %S" s))),
        fun ppf o ->
          Fmt.string ppf (match o with `Heur -> "heur" | `Exact -> "exact") )
  in
  let opt =
    Arg.(value & opt opt_conv `Heur & info [ "opt" ]
           ~doc:"Scheduler tier: heur (the paper's heuristic) or exact \
                 (certify each pipelined loop against the exact modulo \
                 scheduler; the report then carries a per-loop \
                 optimality certificate, and any strictly better \
                 schedule found replaces the heuristic one).")
  in
  let opt_fuel =
    Arg.(value & opt (some int) None & info [ "opt-fuel" ] ~docv:"N"
           ~doc:"Fuel budget per loop for the exact certifier (with \
                 --opt exact); exhaustion yields an unknown \
                 certificate, never a failure. Default 2e6.")
  in
  let opt_portfolio =
    Arg.(value & opt int 1 & info [ "opt-portfolio" ] ~docv:"K"
           ~doc:"Decide each certified interval with K exact-solver \
                 configurations (distinct variable orders and seeds) \
                 in parallel (with --opt exact). Every member runs to \
                 completion, the lowest-indexed decisive one is \
                 committed and all decisive members must agree — so \
                 the output is byte-identical for any K.")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Compile independent innermost loops on N domains \
                 (output is byte-identical for any N). Defaults to \
                 \\$SP_JOBS, else the core count.")
  in
  let cache =
    Arg.(value & opt int 0 & info [ "cache" ] ~docv:"N"
           ~doc:"Reuse schedules across structurally identical loops \
                 through a content-addressed cache holding N entries \
                 (0, the default, disables it). Hits are re-verified \
                 against the requesting loop's own constraints; output \
                 is byte-identical with and without the cache.")
  in
  let mk no_pipeline mve_mode search if_exclusive threshold fuel opt opt_fuel
      opt_portfolio jobs cache =
    let cache =
      if cache > 0 then Some (Sp_serve.Cache.create ~capacity:cache) else None
    in
    let jobs =
      match jobs with
      | Some n when n >= 1 -> n
      | Some n ->
        Printf.eprintf "w2c: --jobs must be >= 1 (got %d)\n%!" n;
        exit 2
      | None -> Sp_util.Pool.default_jobs ()
    in
    if opt_portfolio < 1 then begin
      Printf.eprintf "w2c: --opt-portfolio must be >= 1 (got %d)\n%!"
        opt_portfolio;
      exit 2
    end;
    let config =
      {
        C.pipeline = not no_pipeline;
        mve_mode;
        search;
        threshold;
        if_exclusive;
        profit_margin = C.default.C.profit_margin;
        fuel;
        certifier =
          (match opt with
          | `Heur -> None
          | `Exact ->
            Some
              (Sp_opt.Certify.hook ?fuel:opt_fuel ~portfolio:opt_portfolio ()));
        jobs;
        cache = Option.map Sp_serve.Cache.hook cache;
      }
    in
    (* the cache itself too: [--metrics] reads its stats *)
    (config, cache)
  in
  Term.(const mk $ no_pipeline $ mve $ search $ if_exclusive $ threshold
        $ fuel $ opt $ opt_fuel $ opt_portfolio $ jobs $ cache)

let inject_conv =
  let parse s =
    Option.to_result (Sp_util.Fault.parse_spec s)
      ~none:(`Msg (Printf.sprintf "bad injection spec %S (want SITE@K)" s))
  in
  Arg.conv (parse, fun ppf (s, k) -> Fmt.pf ppf "%s@@%d" s k)

let inject_arg =
  Arg.(value & opt (some inject_conv) None & info [ "inject" ] ~docv:"SITE@K"
         ~doc:"Arm deterministic fault injection: the K-th execution of \
               the named compiler site raises, exercising the \
               degradation path. See the schedule report for the \
               affected loops.")

let arm_inject = function
  | None -> Ok ()
  | Some spec ->
    Result.map_error (fun m -> `Msg m) (Sp_util.Fault.arm_spec spec)

let validate_arg =
  Arg.(value & flag & info [ "validate" ]
         ~doc:"Replay the emitted code against the machine's timing \
               contract and resource discipline; any violation is a \
               hard error.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.w2")

let unroll_arg =
  Arg.(value & opt int 1 & info [ "unroll" ]
         ~doc:"Source-unroll constant-bound loops N times before \
               compilation (the Section 5.1 baseline transformation).")

let load ?(unroll = 1) path =
  if unroll <= 1 then Sp_lang.Lower.compile_source (read_file path)
  else Sp_lang.Unroll.compile_source ~k:unroll (read_file path)

(** Run [f], converting every expected failure — unreadable input,
    front-end error, stray injected fault — into a driver error
    message. *)
let or_msg f =
  let err fmt = Fmt.kstr (fun m -> Error (`Msg m)) fmt in
  match f () with
  | v -> Ok v
  | exception Sys_error m -> err "%s" m
  | exception Sp_lang.Lexer.Error (p, m) ->
    err "lexical error at %a: %s" Sp_lang.Token.pp_pos p m
  | exception Sp_lang.Parser.Error (p, m) ->
    err "syntax error at %a: %s" Sp_lang.Token.pp_pos p m
  | exception Sp_lang.Typecheck.Error (p, m) ->
    err "type error at %a: %s" Sp_lang.Token.pp_pos p m
  | exception Sp_lang.Lower.Error (p, m) ->
    err "lowering error at %a: %s" Sp_lang.Token.pp_pos p m
  | exception Sp_util.Fault.Injected site ->
    err "injected fault at %s escaped the degradation guards" site

(** Run the simulator or the interpreter, trapping the engines'
    runtime faults into structured failures that name the kernel. *)
let engine_run ~name f =
  let err fmt = Fmt.kstr (fun m -> Error (`Msg (name ^ ": " ^ m))) fmt in
  match f () with
  | v -> Ok v
  | exception Sp_vliw.Sim.Cycle_limit n ->
    err "simulation hit the cycle limit at cycle %d" n
  | exception Sp_vliw.Sim.Write_conflict msg ->
    err "write-port conflict: %s" msg
  | exception Sp_ir.Machine_state.Out_of_bounds msg ->
    err "memory access out of bounds: %s" msg
  | exception Sp_ir.Machine_state.Channel_empty ch ->
    err "receive from empty channel %d" ch
  | exception Sp_ir.Machine_state.Type_error msg -> err "type error: %s" msg
  | exception Sp_ir.Interp.Unbound_trip_count msg -> err "%s" msg

let do_validate m name code =
  let rep = Sp_vliw.Validate.all m code in
  if Sp_vliw.Validate.ok rep then begin
    Fmt.pr "validate: ok@.";
    Ok ()
  end
  else Error (`Msg (Fmt.str "%s: validation failed@.%a" name
                      Sp_vliw.Validate.pp_report rep))

let pp_degraded ppf (loops : C.loop_report list) =
  let d = List.length (List.filter (fun r -> C.is_degraded r.C.status) loops) in
  if d > 0 then Fmt.pf ppf "  degraded: %d of %d loop(s)@." d
      (List.length loops)

(* ---- observability options ---------------------------------------- *)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record compiler and simulator spans and write them as \
               Chrome trace_event JSON (loadable in chrome://tracing \
               or Perfetto).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the command's counters (scheduler search effort, \
               exact-certifier work, simulator totals, schedule-cache \
               traffic) as JSON when the command finishes, each read \
               from the record that keeps it.")

let profile_arg =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"Print the schedule-quality profile: per-loop achieved \
               initiation interval against its lower bounds (and the \
               certified optimum when available), modulo-reservation-\
               table occupancy, prologue/epilogue overhead, and (under \
               run) per-resource utilization of the simulated \
               execution.")

let explain_arg =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "explain" ] ~docv:"FILE"
           ~doc:"Record the scheduler's decision log — interval bounds \
                 and which constraint binds, SCC scheduling order, every \
                 failed placement with its conflicting resource or \
                 emptied precedence window, modulo-variable-expansion \
                 lifetimes and the unroll they force, exact-search prune \
                 causes — and print the human-readable report to FILE \
                 (stdout when the flag has no argument).")

let explain_json_arg =
  Arg.(value & opt (some string) None
       & info [ "explain-json" ] ~docv:"FILE"
           ~doc:"Write the decision log as a deterministic JSON \
                 artifact (byte-stable across runs of the same \
                 compilation).")

let render_arg =
  Arg.(value & opt (some string) None & info [ "render" ] ~docv:"DIR"
         ~doc:"Write per-loop visual schedule artifacts into DIR: \
               kernel Gantt charts, modulo-reservation-table occupancy \
               grids and register-lifetime diagrams, as plain text and \
               as one self-contained HTML file (inline SVG, no external \
               references).")

(* The four cost outputs bundled into one term so each command adds a
   single parameter. *)
type cost_out = {
  co_report : string option;  (** human report; "-" = stdout *)
  co_json : string option;
  co_folded : string option;
  co_html : string option;
}

let cost_term =
  let cost =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "cost" ] ~docv:"FILE"
             ~doc:"Count the compiler's deterministic work units — MRT \
                   placement probes, Spath relaxations and frontier \
                   insertions, ready-heap operations, exact-search \
                   nodes by prune reason, dependence edges, \
                   schedule-cache verification edge checks — \
                   attributed per loop and compile phase, and print \
                   the report to FILE (stdout when the flag has no \
                   argument). Counts are pure functions of the \
                   compilation: identical at any -j and on any \
                   machine. Wall time and GC words appear in this \
                   report only, never in the JSON or folded outputs.")
  in
  let cost_json =
    Arg.(value & opt (some string) None
         & info [ "cost-json" ] ~docv:"FILE"
             ~doc:"Write the cost profile as a deterministic cost/1 \
                   JSON artifact (byte-stable across runs and job \
                   counts; no wall clock).")
  in
  let cost_folded =
    Arg.(value & opt (some string) None
         & info [ "cost-folded" ] ~docv:"FILE"
             ~doc:"Write the cost profile as folded stacks \
                   (loop;phase;counter value), one line per nonzero \
                   cell — the input format of standard flame-graph \
                   tooling.")
  in
  let cost_html =
    Arg.(value & opt (some string) None
         & info [ "cost-html" ] ~docv:"FILE"
             ~doc:"Write a self-contained HTML flame graph and treemap \
                   of the cost profile (inline SVG, no external \
                   references).")
  in
  Term.(
    const (fun co_report co_json co_folded co_html ->
        { co_report; co_json; co_folded; co_html })
    $ cost $ cost_json $ cost_folded $ cost_html)

let cost_wanted c =
  c.co_report <> None || c.co_json <> None || c.co_folded <> None
  || c.co_html <> None

let no_cost =
  { co_report = None; co_json = None; co_folded = None; co_html = None }

(* What [--metrics] reads besides the cost profile, filled in by the
   command as it runs. *)
type facts = {
  mutable loops : C.loop_report list;
  mutable sim : Sp_vliw.Sim.result option;
}

(** Run the command body with tracing armed when requested, and dump
    trace/metrics/explain files afterwards — also on a structured
    failure, so a degraded compile still leaves its evidence behind.
    The body fills in the [facts] that [--metrics] reads; the cost
    profile is recorded whenever [--metrics] or a cost output is
    asked for. *)
let with_obs ~trace ~metrics ~cache ?(explain = None) ?(explain_json = None)
    ?(render = None) ?(cost = no_cost) f =
  if trace <> None then Sp_obs.Trace.enable ();
  if explain <> None || explain_json <> None then Sp_obs.Explain.enable ();
  if render <> None then Sp_obs.Render.enable ();
  if cost_wanted cost || metrics <> None then Sp_obs.Cost.enable ();
  let facts = { loops = []; sim = None } in
  (* the report-only wall/GC observation wraps the whole command body;
     it never reaches the JSON/folded/flame artifacts *)
  let f =
    if cost_wanted cost then fun () -> Sp_obs.Cost.observe (fun () -> f facts)
    else fun () -> f facts
  in
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Sp_obs.Trace.write_chrome oc;
        close_out oc);
      (match metrics with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Sp_obs.Json.to_channel oc
          (Sp_serve.Service.metrics_json ?sim:facts.sim
             ?cache:(Option.map Sp_serve.Cache.stats cache)
             (Sp_obs.Cost.snapshot ()) facts.loops);
        close_out oc);
      (match explain with
      | None -> ()
      | Some "-" -> print_string (Sp_obs.Explain.report ())
      | Some path ->
        let oc = open_out path in
        output_string oc (Sp_obs.Explain.report ());
        close_out oc);
      (match explain_json with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Sp_obs.Json.to_channel ~pretty:true oc (Sp_obs.Explain.to_json ());
        output_char oc '\n';
        close_out oc);
      (if cost_wanted cost then begin
         let prof = Sp_obs.Cost.snapshot () in
         (match cost.co_report with
         | None -> ()
         | Some "-" -> print_string (Sp_obs.Cost.report prof)
         | Some path ->
           let oc = open_out path in
           output_string oc (Sp_obs.Cost.report prof);
           close_out oc);
         (match cost.co_json with
         | None -> ()
         | Some path ->
           let oc = open_out path in
           Sp_obs.Json.to_channel ~pretty:true oc (Sp_obs.Cost.to_json prof);
           output_char oc '\n';
           close_out oc);
         (match cost.co_folded with
         | None -> ()
         | Some path ->
           let oc = open_out path in
           output_string oc (Sp_obs.Cost.folded prof);
           close_out oc);
         match cost.co_html with
         | None -> ()
         | Some path ->
           let oc = open_out path in
           output_string oc
             (Sp_obs.Render.flame_html ~title:"compile cost"
                (Sp_obs.Cost.flame prof));
           close_out oc
       end);
      Sp_obs.Cost.disable ();
      Sp_obs.Explain.disable ();
      Sp_obs.Render.disable ())
    f

(** Write the visual artifacts of a compilation into [dir]:
    [NAME.txt] (ASCII, one section per pipelined loop) and [NAME.html]
    (one self-contained document). *)
let emit_render dir name (r : C.result) =
  or_msg (fun () ->
      let views =
        List.sort
          (fun a b ->
            compare a.Sp_obs.Render.v_loop b.Sp_obs.Render.v_loop)
          (List.filter_map (fun lr -> lr.C.view) r.C.loops)
      in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let write path s =
        let oc = open_out (Filename.concat dir path) in
        output_string oc s;
        close_out oc
      in
      write (name ^ ".txt")
        (String.concat "\n" (List.map Sp_obs.Render.to_ascii views));
      write (name ^ ".html") (Sp_obs.Render.to_html ~title:name views);
      Fmt.pr "render: %d pipelined loop(s) -> %s/%s.{txt,html}@."
        (List.length views) dir name)

let cmd_ir =
  let run file =
    or_msg (fun () ->
        let p = load file in
        Fmt.pr "%a@." Sp_ir.Program.pp p)
  in
  Cmd.v (Cmd.info "ir" ~doc:"Dump the scheduling IR")
    Term.(term_result (const run $ file_arg))

let cmd_dot =
  let run m file =
    or_msg (fun () ->
        let p = load file in
        List.iteri
          (fun i (iv, g) ->
            Fmt.pr "// innermost loop %d (counter %a)@.%s@." i
              Sp_ir.Vreg.pp iv
              (Sp_core.Dot.to_string ~name:(Printf.sprintf "loop%d" i) g))
          (C.innermost_ddgs m p))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz dependence graphs of the \
                          innermost loops")
    Term.(term_result (const run $ machine_arg $ file_arg))

let cmd_compile =
  let run m (config, cache) validate inject unroll trace metrics explain
      explain_json render cost profile file =
    with_obs ~trace ~metrics ~cache ~explain ~explain_json ~render ~cost
    @@ fun facts ->
    let* () = arm_inject inject in
    Fun.protect ~finally:Sp_util.Fault.disarm @@ fun () ->
    let* p = or_msg (fun () -> load ~unroll file) in
    let* r = or_msg (fun () -> C.program ~config m p) in
    facts.loops <- r.C.loops;
    Fmt.pr "%s@?" (C.listing m p r);
    if profile then
      Fmt.pr "%a"
        (Sp_core.Report.pp m ~name:p.Sp_ir.Program.name
           ~code_size:r.C.code_size)
        r.C.loops;
    let* () =
      match render with
      | None -> Ok ()
      | Some dir -> emit_render dir p.Sp_ir.Program.name r
    in
    if validate then do_validate m p.Sp_ir.Program.name r.C.code
    else begin
      (match Sp_vliw.Check.check_prog m r.C.code with
      | [] -> ()
      | vs ->
        List.iter
          (fun v -> Fmt.epr "warning: %a@." Sp_vliw.Check.pp_violation v)
          vs);
      Ok ()
    end
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile and print the VLIW code")
    Term.(term_result
            (const run $ machine_arg $ config_term $ validate_arg
             $ inject_arg $ unroll_arg $ trace_arg $ metrics_arg
             $ explain_arg $ explain_json_arg $ render_arg
             $ cost_term $ profile_arg $ file_arg))

let cmd_schedule =
  let run m (config, cache) inject trace metrics explain explain_json render
      cost profile file =
    with_obs ~trace ~metrics ~cache ~explain ~explain_json ~render ~cost
    @@ fun facts ->
    let* () = arm_inject inject in
    Fun.protect ~finally:Sp_util.Fault.disarm @@ fun () ->
    let* p = or_msg (fun () -> load file) in
    let* r = or_msg (fun () -> C.program ~config m p) in
    facts.loops <- r.C.loops;
    Fmt.pr "%s on %s: %d instructions@." p.Sp_ir.Program.name
      m.Machine.name r.C.code_size;
    List.iter (fun lr -> Fmt.pr "  %a@." C.pp_loop_report lr) r.C.loops;
    Fmt.pr "%a" pp_degraded r.C.loops;
    if profile then
      Fmt.pr "%a"
        (Sp_core.Report.pp m ~name:p.Sp_ir.Program.name
           ~code_size:r.C.code_size)
        r.C.loops;
    let* () =
      match render with
      | None -> Ok ()
      | Some dir -> emit_render dir p.Sp_ir.Program.name r
    in
    Ok ()
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Print the per-loop scheduling report")
    Term.(term_result
            (const run $ machine_arg $ config_term $ inject_arg $ trace_arg
             $ metrics_arg $ explain_arg $ explain_json_arg $ render_arg
             $ cost_term $ profile_arg $ file_arg))

let cmd_run =
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Cross-check the final state against the sequential \
                 interpreter.")
  in
  let max_cycles =
    Arg.(value & opt (some int) None & info [ "max-cycles" ] ~docv:"N"
           ~doc:"Abort simulation after N cycles (reported as a \
                 structured failure, not a crash).")
  in
  let run m (config, cache) verify validate max_cycles inject unroll trace
      metrics explain explain_json render cost profile file =
    with_obs ~trace ~metrics ~cache ~explain ~explain_json ~render ~cost
    @@ fun facts ->
    let* () = arm_inject inject in
    Fun.protect ~finally:Sp_util.Fault.disarm @@ fun () ->
    let* p = or_msg (fun () -> load ~unroll file) in
    let name = p.Sp_ir.Program.name in
    let* r = or_msg (fun () -> C.program ~config m p) in
    facts.loops <- r.C.loops;
    let* () =
      match render with
      | None -> Ok ()
      | Some dir -> emit_render dir name r
    in
    let init st = Sp_kernels.Kernel.init_all_arrays st p in
    let* sim =
      engine_run ~name (fun () ->
          Sp_vliw.Sim.run ?max_cycles ~init m p r.C.code)
    in
    facts.sim <- Some sim;
    Fmt.pr "%s on %s: %d cycles, %d flops, %.2f MFLOPS (cell), %d words@."
      name m.Machine.name sim.Sp_vliw.Sim.cycles sim.Sp_vliw.Sim.flops
      (Sp_vliw.Sim.mflops m sim) r.C.code_size;
    List.iter (fun lr -> Fmt.pr "  %a@." C.pp_loop_report lr) r.C.loops;
    Fmt.pr "%a" pp_degraded r.C.loops;
    Fmt.pr "  %a" Sp_vliw.Stats.pp (Sp_vliw.Stats.compute m r.C.code);
    if profile then
      Fmt.pr "%a"
        (Sp_core.Report.pp ~sim:(Sp_core.Report.of_run m sim) m ~name
           ~code_size:r.C.code_size)
        r.C.loops;
    let* () =
      if validate then do_validate m name r.C.code else Ok ()
    in
    if verify then begin
      let* o = engine_run ~name (fun () -> Sp_ir.Interp.run ~init p) in
      if
        Sp_ir.Machine_state.observably_equal o.Sp_ir.Interp.state
          sim.Sp_vliw.Sim.state
      then begin
        Fmt.pr "verify: schedule preserves sequential semantics@.";
        Ok ()
      end
      else Error (`Msg (name ^ ": verify: FINAL STATE MISMATCH"))
    end
    else Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile, simulate and report performance")
    Term.(term_result
            (const run $ machine_arg $ config_term $ verify $ validate_arg
             $ max_cycles $ inject_arg $ unroll_arg $ trace_arg
             $ metrics_arg $ explain_arg $ explain_json_arg $ render_arg
             $ cost_term $ profile_arg $ file_arg))

let () =
  let doc = "software-pipelining compiler for a Warp-like VLIW cell" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "w2c" ~version:"1.0" ~doc)
          [ cmd_ir; cmd_compile; cmd_schedule; cmd_run; cmd_dot ]))

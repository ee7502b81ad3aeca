(** [w2cd] — the W2 compile daemon.

    {v
      w2cd serve SOCKET [--cache N] [-j N] [--log FILE]
      w2cd request SOCKET FILE.w2 [-m MACHINE] [--inject SITE@K] [--trace ID]
      w2cd stats SOCKET                        cache statistics (JSON)
      w2cd status SOCKET                       health snapshot (JSON)
      w2cd dashboard SOCKET                    telemetry dashboard (HTML)
      w2cd ping SOCKET                         liveness probe
    v}

    The daemon listens on a Unix-domain socket and speaks the framed
    protocol of {!Sp_serve.Service}: 4-byte big-endian length prefix
    per message, one response frame per request frame, in request
    order. Requests that arrive back-to-back on a connection are
    batched onto the worker pool; a compile response body is
    byte-identical to offline [w2c compile] stdout.

    A stale socket file left by a killed daemon is reclaimed
    automatically — binding fails only if a live daemon still answers
    on the path. *)

open Cmdliner
module Service = Sp_serve.Service

let socket_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET"
         ~doc:"Path of the Unix-domain socket.")

(* ---- client side ---------------------------------------------------- *)

let with_client socket f =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (match Unix.connect fd (ADDR_UNIX socket) with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) ->
        Fmt.epr "w2cd: cannot connect to %s: %s@." socket
          (Unix.error_message e);
        exit 1);
      f fd)

let roundtrip socket rq =
  with_client socket (fun fd ->
      Service.Frame.write fd (Service.render_request rq);
      match Service.Frame.read fd with
      | None ->
        Fmt.epr "w2cd: connection closed without a response@.";
        exit 1
      | Some payload -> Service.parse_response payload)

let print_or_die = function
  | Service.Ok body ->
    print_string body;
    (* compile bodies end in a newline; short bodies (pong) don't *)
    if body = "" || body.[String.length body - 1] <> '\n' then
      print_newline ();
    `Ok ()
  | Service.Err msg ->
    Fmt.epr "w2cd: %s@." msg;
    exit 1

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let cmd_request =
  let machine =
    Arg.(value & opt string "warp" & info [ "machine"; "m" ] ~docv:"MACHINE"
           ~doc:"Target machine: warp, toy, serial, or warpNx (scaled).")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SITE@K"
           ~doc:"Arm deterministic fault injection for this request \
                 only: the K-th execution of the named compiler site \
                 raises on the server, exercising its degradation \
                 path.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"ID"
           ~doc:"Client-supplied trace id: the response becomes a JSON \
                 envelope carrying the request's span tree (phase \
                 latencies) alongside the compile output.")
  in
  let file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE.w2")
  in
  let run socket machine inject trace file =
    let inject =
      match inject with
      | None -> None
      | Some spec -> (
        match Sp_util.Fault.parse_spec spec with
        | Some _ as ij -> ij
        | None ->
          Fmt.epr "w2cd: bad injection spec %S (want SITE@@K)@." spec;
          exit 2)
    in
    let source =
      match read_file file with
      | s -> s
      | exception Sys_error m ->
        Fmt.epr "w2cd: %s@." m;
        exit 1
    in
    (match trace with
    | Some id
      when id = "" || String.exists (fun c -> c = ' ' || c = '\n') id ->
      Fmt.epr "w2cd: bad trace id %S (no spaces or newlines)@." id;
      exit 2
    | _ -> ());
    print_or_die
      (roundtrip socket (Service.Compile { machine; inject; trace; source }))
  in
  Cmd.v
    (Cmd.info "request" ~doc:"Compile one W2 file through the daemon")
    Term.(ret (const run $ socket_arg $ machine $ inject $ trace $ file))

let cmd_stats =
  let run socket =
    match roundtrip socket Service.Stats with
    | Service.Ok body ->
      print_string body;
      print_newline ();
      `Ok ()
    | r -> print_or_die r
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print the daemon's cache statistics as JSON")
    Term.(ret (const run $ socket_arg))

let cmd_status =
  let run socket =
    match roundtrip socket Service.Status with
    | Service.Ok body ->
      print_string body;
      print_newline ();
      `Ok ()
    | r -> print_or_die r
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Print the daemon's telemetry health snapshot as JSON")
    Term.(ret (const run $ socket_arg))

let cmd_dashboard =
  let run socket =
    match roundtrip socket Service.Dashboard with
    | Service.Ok body ->
      print_string body;
      `Ok ()
    | r -> print_or_die r
  in
  Cmd.v
    (Cmd.info "dashboard"
       ~doc:"Print the daemon's self-contained HTML telemetry dashboard")
    Term.(ret (const run $ socket_arg))

let cmd_ping =
  let run socket = print_or_die (roundtrip socket Service.Ping) in
  Cmd.v (Cmd.info "ping" ~doc:"Liveness probe")
    Term.(ret (const run $ socket_arg))

(* ---- server side ---------------------------------------------------- *)

(** Reclaim [socket] if it is a stale file from a dead daemon; refuse
    if a live one still answers on it. *)
let claim_socket socket =
  if Sys.file_exists socket then begin
    let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (ADDR_UNIX socket) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then begin
      Fmt.epr "w2cd: %s is in use by a running daemon@." socket;
      exit 1
    end;
    (* dead socket: a daemon was killed without cleanup — reclaim *)
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  end

(** Read every request already queued on [fd]: the first blocks, the
    rest drain while more frames are immediately readable, so
    back-to-back requests from one client become one pool batch.
    Returns the batch in arrival order; [] on end of stream. *)
let read_batch fd =
  match Service.Frame.read fd with
  | None -> []
  | Some first ->
    let rec drain acc =
      match Unix.select [ fd ] [] [] 0.0 with
      | [ _ ], _, _ -> (
        match Service.Frame.read fd with
        | None -> List.rev acc
        | Some payload -> drain (payload :: acc))
      | _ -> List.rev acc
    in
    drain [ first ]

let serve_connection service fd =
  let rec loop () =
    match read_batch fd with
    | [] -> ()
    | payloads ->
      let slots =
        List.map
          (fun payload ->
            match Service.parse_request payload with
            | Ok rq -> Either.Left rq
            | Error msg -> Either.Right msg)
          payloads
      in
      let ok_requests =
        List.filter_map
          (function Either.Left rq -> Some rq | Either.Right _ -> None)
          slots
      in
      let responses = ref (Service.handle_batch service ok_requests) in
      List.iter
        (fun slot ->
          let resp =
            match slot with
            | Either.Right msg -> Service.Err msg
            | Either.Left _ -> (
              match !responses with
              | r :: rest ->
                responses := rest;
                r
              | [] -> Service.Err "internal: response count mismatch")
          in
          Service.Frame.write fd (Service.render_response resp))
        slots;
      loop ()
  in
  match loop () with
  | () -> ()
  | exception Failure _ -> () (* malformed frame: drop the connection *)
  | exception Unix.Unix_error _ -> ()

let cmd_serve =
  let cache =
    Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N"
           ~doc:"Schedule-cache capacity (0 disables caching).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for batched requests.")
  in
  let log =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Append one JSON line per request (sequence number, \
                 verb, trace id, outcome, latency, span tree when \
                 traced) to FILE.")
  in
  let run socket cache jobs log =
    if jobs < 1 then begin
      Fmt.epr "w2cd: --jobs must be >= 1 (got %d)@." jobs;
      exit 2
    end;
    if cache < 0 then begin
      Fmt.epr "w2cd: --cache must be >= 0 (got %d)@." cache;
      exit 2
    end;
    claim_socket socket;
    let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.bind listen_fd (ADDR_UNIX socket);
    Unix.listen listen_fd 16;
    let cleanup () = try Unix.unlink socket with Unix.Unix_error _ -> () in
    at_exit cleanup;
    let on_signal _ = exit 0 in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let log_oc =
      match log with
      | None -> None
      | Some path -> (
        match
          open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
        with
        | oc ->
          at_exit (fun () -> try close_out oc with Sys_error _ -> ());
          Some oc
        | exception Sys_error m ->
          Fmt.epr "w2cd: cannot open log %s: %s@." path m;
          exit 1)
    in
    let service = Service.create ~cache_capacity:cache ~jobs ?log:log_oc () in
    (* deterministic work counting feeds the status/dashboard cost
       section; captures are per-request domain-local, so this costs
       one branch per instrumented site on the compile path *)
    Sp_obs.Cost.enable ();
    Fmt.epr "w2cd: serving on %s (cache=%d, jobs=%d)@." socket cache jobs;
    let rec accept_loop () =
      (match Unix.accept listen_fd with
      | fd, _ ->
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> serve_connection service fd)
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      accept_loop ()
    in
    accept_loop ()
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the compile daemon on a Unix socket")
    Term.(const run $ socket_arg $ cache $ jobs $ log)

let () =
  let doc = "compile service for the W2-to-VLIW compiler" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "w2cd" ~version:"1.0" ~doc)
          [
            cmd_serve; cmd_request; cmd_stats; cmd_status; cmd_dashboard;
            cmd_ping;
          ]))

(** Allocation of the exact certifier — a developer utility.

    Runs passes over the programs of the [certify] benchmark workload
    (Wgen seeds 1–240 except 45, 87, 115 and 116): lower, compile with
    [Certify.hook ()], validate — the timed path of one benchmark
    round, without its spans. For each pass it prints the minor words
    allocated in all, the share allocated inside the certifier, the
    exact-search nodes expanded and the certifier's words per node.
    The sources are printed once before the first pass, as the
    benchmark's setup does.

    Run with: [dune exec devtools/certify_alloc.exe -- [PASSES]]
    (default 3; the counts are deterministic, so passes after the
    first repeat them and differ only in wall time). *)

module C = Sp_core.Compile

let seeds =
  List.filter
    (fun s -> not (List.mem s [ 45; 87; 115; 116 ]))
    (List.init 240 (fun i -> i + 1))

let () =
  let passes =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3
  in
  let m = Sp_machine.Machine.warp in
  let srcs =
    List.map
      (fun seed -> Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed))
      seeds
  in
  let in_certifier = ref 0. in
  let hook = Sp_opt.Certify.hook () in
  let certifier : C.certifier =
   fun m g ~analysis ~mii heur ->
    let w0 = Gc.minor_words () in
    let r = hook m g ~analysis ~mii heur in
    in_certifier := !in_certifier +. (Gc.minor_words () -. w0);
    r
  in
  let config = { C.default with C.certifier = Some certifier } in
  let nodes = Sp_obs.Metrics.counter "exact.nodes_expanded" in
  Printf.printf "%-5s %10s %12s %10s %12s %8s\n" "pass" "Mwords" "certifier"
    "nodes" "words/node" "s";
  for pass = 1 to passes do
    in_certifier := 0.;
    let n0 = Sp_obs.Metrics.counter_value nodes in
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    List.iter
      (fun src ->
        let p = Sp_lang.Lower.compile_source src in
        let r = C.program ~config m p in
        if not (Sp_vliw.Validate.ok (Sp_vliw.Validate.all m r.C.code)) then
          failwith "certified compile does not validate")
      srcs;
    let words = Gc.minor_words () -. w0 and dt = Unix.gettimeofday () -. t0 in
    let n = Sp_obs.Metrics.counter_value nodes - n0 in
    Printf.printf "%-5d %10.1f %12.1f %10d %12.1f %8.3f\n%!" pass (words /. 1e6)
      (!in_certifier /. 1e6) n
      (!in_certifier /. float_of_int (max 1 n))
      dt
  done

(** Allocation ledger of the compiler — a developer utility.

    Compiles one of the benchmark workloads' compile sets
    ({!Compile_sets}: [campaign], [certify], [livermore], [service])
    pass after pass, the way a round of the workload compiles it, and
    prints per pass what the collector saw.

    The programs are lowered once, before the first pass, so a pass is
    compiles alone. Columns: minor words, words promoted to the major
    heap, major words (the promoted ones included: major less promoted
    is what was allocated straight in the major heap), minor and major
    collections, and {e forced} minor collections — the pass is run a
    second time under a minor heap larger than any one compile
    allocates, with the heap emptied before each compile, so every
    collection counted there was forced, not made for room (OCaml 5
    forces one to make an array of more than 256 words from a young
    element). That heap is capped at {!max_heap} words: when a compile
    allocates more than the cap allows, the column reads [-] (not
    measured). Each compile of the second run is then checked by
    [Validate.all], whose minor words and words allocated straight in
    the major heap are the [val] columns. For [certify] and [livermore] it also prints the minor
    words allocated inside the certifier, the exact-search nodes and
    the certifier's words per node; the nodes are counted by the cost
    profile of one more pass, run after the measured ones and not
    measured. The counts are deterministic: compare them with the
    parent commit's.

    Run with:
    [dune exec devtools/compile_alloc.exe -- [--no-forced] SET [PASSES]]
    (default [certify], 3 passes). [--no-forced] exits 1 when a pass
    forces a minor collection, or when a compile is too large for the
    forced collections to be measured. *)

module C = Sp_core.Compile

(** The largest minor heap, in words, of the forced-collection run:
    128 MiB. *)
let max_heap = 16 * 1024 * 1024

let in_certifier = ref 0.

let counted hook : C.certifier =
 fun m g ~analysis ~mii heur ->
  let w0 = Gc.minor_words () in
  let r = hook m g ~analysis ~mii heur in
  in_certifier := !in_certifier +. (Gc.minor_words () -. w0);
  r

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let no_forced = List.mem "--no-forced" args in
  let name, passes =
    match List.filter (fun a -> a <> "--no-forced") args with
    | [] -> ("certify", 3)
    | [ s ] -> (s, 3)
    | s :: n :: _ -> (s, int_of_string n)
  in
  let programs, config, certifies =
    match Compile_sets.find ~certifier:counted name with
    | Some set -> set
    | None ->
      Printf.eprintf "unknown set %S (%s)\n" name
        (String.concat " | " Compile_sets.names);
      exit 2
  in
  let m = Sp_machine.Machine.warp in
  let compile p = C.program ~config m p in
  Printf.printf "set %s: %d programs\n" name (List.length programs);
  Printf.printf "%-5s %9s %9s %9s %6s %6s %6s %9s %9s" "pass" "minor Mw"
    "promo Mw" "major Mw" "minor" "major" "forced" "val Mw" "val maj";
  if certifies then
    Printf.printf " %10s %10s %10s" "cert Mw" "nodes" "words/node";
  Printf.printf " %7s\n%!" "s";
  let default_heap = (Gc.get ()).Gc.minor_heap_size in
  let any_forced = ref false and unmeasured = ref None in
  let rows =
    List.init passes (fun i ->
      let pass = i + 1 in
      in_certifier := 0.;
      (* minor words from [Gc.minor_words]: [quick_stat]'s count only
         moves at a minor collection, so it misses the words still in
         the minor heap at either end of the pass *)
      let s0 = Gc.quick_stat () and t0 = Unix.gettimeofday () in
      let w0 = Gc.minor_words () in
      let largest = ref ("", 0.) in
      List.iter
        (fun (label, p) ->
          let w0 = Gc.minor_words () in
          ignore (Sys.opaque_identity (compile p));
          let w = Gc.minor_words () -. w0 in
          if w > snd !largest then largest := (label, w))
        programs;
      let w1 = Gc.minor_words () in
      let dt = Unix.gettimeofday () -. t0 and s1 = Gc.quick_stat () in
      let cert = !in_certifier in
      (* the forced-collection run: the heap is emptied before each
         compile and holds more than any compile allocates, unless that
         is more than [max_heap] *)
      let label, words = !largest in
      let need = int_of_float (1.25 *. words) in
      if need > max_heap && !unmeasured = None then
        unmeasured := Some (label, words);
      let heap = Int.max default_heap (Int.min max_heap need) in
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = heap };
      let forced = ref 0 and val_minor = ref 0. and val_major = ref 0. in
      List.iter
        (fun (_, p) ->
          Gc.minor ();
          let c0 = (Gc.quick_stat ()).Gc.minor_collections in
          let r = compile p in
          forced := !forced + (Gc.quick_stat ()).Gc.minor_collections - c0;
          let w0 = Gc.minor_words () and _, p0, m0 = Gc.counters () in
          ignore (Sys.opaque_identity (Sp_vliw.Validate.all m r.C.code));
          let w1 = Gc.minor_words () and _, p1, m1 = Gc.counters () in
          val_minor := !val_minor +. (w1 -. w0);
          val_major := !val_major +. (m1 -. m0 -. (p1 -. p0)))
        programs;
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = default_heap };
      let forced = if need > max_heap then None else Some !forced in
      if Option.value ~default:0 forced > 0 then any_forced := true;
      (pass, w1 -. w0, s0, s1, forced, !val_minor, !val_major, cert, dt))
  in
  (* the nodes of one pass: every pass searches alike *)
  let n =
    if not certifies then 0
    else begin
      Sp_obs.Cost.enable ();
      let (), prof =
        Sp_obs.Cost.collect (fun () ->
            List.iter (fun (_, p) -> ignore (compile p)) programs)
      in
      Sp_obs.Cost.disable ();
      List.assoc Sp_obs.Cost.Exact_node (Sp_obs.Cost.counter_totals prof)
    end
  in
  List.iter
    (fun (pass, minor, s0, s1, forced, val_minor, val_major, cert, dt) ->
      let mw x = x /. 1e6 in
      let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
      Printf.printf "%-5d %9.2f %9.2f %9.2f %6d %6d %6s %9.2f %9.0f" pass
        (mw minor)
        (mw promoted)
        (mw (s1.Gc.major_words -. s0.Gc.major_words))
        (s1.Gc.minor_collections - s0.Gc.minor_collections)
        (s1.Gc.major_collections - s0.Gc.major_collections)
        (match forced with Some n -> string_of_int n | None -> "-")
        (mw val_minor) val_major;
      if certifies then
        Printf.printf " %10.2f %10d %10.1f" (mw cert) n
          (cert /. float_of_int (Int.max 1 n));
      Printf.printf " %7.3f\n%!" dt)
    rows;
  if no_forced then begin
    (match !unmeasured with
    | Some (label, words) ->
      Printf.eprintf
        "compile_alloc: %s allocates %.2f M words, more than a %d-word \
         minor heap holds with room; forced collections not measured\n"
        label (words /. 1e6) max_heap;
      exit 1
    | None -> ());
    if !any_forced then begin
      prerr_endline "compile_alloc: a pass forced a minor collection";
      exit 1
    end
  end

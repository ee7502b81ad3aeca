(** Self time per span name — a developer utility.

    Runs one set pass after pass and prints, per pass, the self time
    of every span name (a span's duration less its children's), the
    number of spans and their share of the pass, largest first, with
    the time no span covers as [(outside spans)]. Each item of a pass
    runs under [Trace.with_recording], so spans cost what they cost in
    a traced request; one warm-up pass, not printed, runs first.

    Sets: the compile sets of {!Compile_sets} ([campaign], [certify],
    [livermore], [service]: one compile per program, lowered once),
    and [service-requests]: the service workload's round, the 72
    population sources then Wgen seeds 1001–1072 in that order, each
    a [compile] request for Warp through [Service.handle] with a
    32-entry cache that lives across the passes.

    Run with: [dune exec devtools/span_split.exe -- SET [PASSES]]
    (default [service-requests], 1 pass). Times are wall clock on a
    shared host: compare a change with its parent by alternating
    runs. *)

module C = Sp_core.Compile
module Trace = Sp_obs.Trace
module Service = Sp_serve.Service

(* span name -> (self ns, count), summed over [trees] into [tbl] *)
let rec add_self tbl (Trace.Node { t_name; t_dur; t_children; _ }) =
  let children =
    List.fold_left
      (fun acc (Trace.Node c as child) ->
        add_self tbl child;
        Int64.add acc c.t_dur)
      0L t_children
  in
  let self, n =
    Option.value ~default:(0L, 0) (Hashtbl.find_opt tbl t_name)
  in
  Hashtbl.replace tbl t_name (Int64.add self (Int64.sub t_dur children), n + 1)

(* the items of a set: each runs once per pass *)
let items name : (unit -> unit) list =
  let m = Sp_machine.Machine.warp in
  match name with
  | "service-requests" ->
    let svc = Service.create ~cache_capacity:32 ~jobs:1 ~telemetry:true () in
    List.map
      (fun (label, source) () ->
        match
          Service.handle svc
            (Service.Compile { machine = "warp"; inject = None; trace = None; source })
        with
        | Service.Ok _ -> ()
        | Service.Err e -> failwith (label ^ ": " ^ e))
      (Compile_sets.service_sources ())
  | _ -> (
    match Compile_sets.find name with
    | Some (programs, config, _) ->
      List.map (fun (_, p) () -> ignore (C.program ~config m p)) programs
    | None ->
      Printf.eprintf "unknown set %S (%s | service-requests)\n" name
        (String.concat " | " Compile_sets.names);
      exit 2)

let pass items =
  let tbl = Hashtbl.create ~random:false 64 in
  let covered = ref 0L in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun item ->
      let outcome, events = Trace.with_recording item in
      (match outcome with Ok () -> () | Error e -> raise e);
      List.iter
        (fun (Trace.Node r as tree) ->
          covered := Int64.add !covered r.t_dur;
          add_self tbl tree)
        (Trace.tree_of_events events))
    items;
  let wall = Unix.gettimeofday () -. t0 in
  (tbl, !covered, wall)

let () =
  let name, passes =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> ("service-requests", 1)
    | [ s ] -> (s, 1)
    | s :: n :: _ -> (s, int_of_string n)
  in
  let items = items name in
  ignore (pass items);
  Printf.printf "set %s: %d items, %d pass(es) after one warm-up\n" name
    (List.length items) passes;
  for k = 1 to passes do
    let tbl, covered, wall = pass items in
    let ms ns = Int64.to_float ns /. 1e6 in
    let total = wall *. 1e3 in
    Printf.printf "pass %d: %.2f ms\n" k total;
    Printf.printf "  %-26s %10s %7s %8s\n" "span" "self ms" "share" "count";
    let rows =
      List.sort
        (fun (n, (a, _)) (n', (b, _)) ->
          let c = Int64.compare b a in
          if c <> 0 then c else String.compare n n')
        (Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl [])
    in
    List.iter
      (fun (n, (self, count)) ->
        if self > 0L then
          Printf.printf "  %-26s %10.3f %6.1f%% %8d\n" n (ms self)
            (100. *. ms self /. total) count)
      rows;
    let outside = total -. ms covered in
    Printf.printf "  %-26s %10.3f %6.1f%%\n%!" "(outside spans)" outside
      (100. *. outside /. total)
  done

(** Deterministic fork/join batches on short-lived domains.

    A pool is only a width and its per-slot task counters; it owns no
    domain. A batch of [n] tasks at width [jobs] spawns
    [min (jobs - 1) (n - 1)] worker domains (fewer if the runtime
    refuses a spawn), works through the batch alongside them on the
    calling domain, and joins every worker before {!try_run} returns.
    [jobs <= 1] and one-task batches spawn nothing and degenerate to
    [List.map], so a pool costs nothing to create and nothing between
    batches.

    Domains live only while a batch runs because a parked domain is not
    free: OCaml 5 runs every minor collection as a stop-the-world
    across all live domains, idle ones included, so an idle worker
    slows the sequential code around it. Most compiles never form a
    batch, so they stop paying that tax; short batches that come back
    to back, as the compile service's can, pay a spawn each instead
    (DESIGN §12).

    Determinism contract: {!run} returns results in submission order
    regardless of completion order. If any task raises, every task is
    still run to completion and the exception of the {e
    lowest-indexed} failing task is re-raised (with its backtrace) on
    the calling domain — the same exception a sequential [List.map]
    would have surfaced first.

    Memory model: [Domain.spawn] orders everything the calling domain
    wrote before the batch ahead of the workers, and [Domain.join]
    orders everything a worker wrote ahead of the caller's return.
    Callers need no further synchronization for data that is only
    touched before submission or inside a task. *)

type t = {
  jobs : int;
  executed : int Atomic.t array;
      (* tasks run per slot: 0 = the submitting domain, 1.. = a batch's
         workers. Atomics make concurrent batches and the cross-domain
         reads of skew snapshots well-defined. *)
}

(* worker domains spawned by every pool of the process *)
let spawn_count = Atomic.make 0
let spawned () = Atomic.get spawn_count

let create ~jobs =
  let jobs = max 1 jobs in
  { jobs; executed = Array.init jobs (fun _ -> Atomic.make 0) }

let jobs t = t.jobs
let worker_counts t = Array.map Atomic.get t.executed

(** Run every task to completion and return each task's own outcome in
    submission order. Never raises from a task: an exception is
    captured (with its backtrace) into that task's slot, which is what
    makes the error surfaced by {!run} deterministic — the lowest
    failing index is found by scanning the slots, not by racing
    workers for a shared cell. The campaign driver uses this directly
    so one crashing program cannot abort a batch. *)
let try_run (type a) t (fs : (unit -> a) list) :
    (a, exn * Printexc.raw_backtrace) result list =
  let wrap f =
    try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let workers = min (t.jobs - 1) (List.length fs - 1) in
  if workers <= 0 then
    (* the calling domain alone, as a plain [List.map]: the common case
       on every workload, so it allocates no more than a sequential
       caller would (extra garbage here measurably shifts GC pacing) *)
    List.map
      (fun f ->
        let r = wrap f in
        Atomic.incr t.executed.(0);
        r)
      fs
  else begin
    let fs = Array.of_list fs in
    let n = Array.length fs in
    let results : (a, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    (* every domain of the batch, the caller included, takes the next
       unclaimed index until none is left; each slot has one writer *)
    let next = Atomic.make 0 in
    let rec work slot =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (wrap fs.(i));
        Atomic.incr t.executed.(slot);
        work slot
      end
    in
    (* a failed spawn (the runtime's domain limit) only narrows the
       batch: the caller and the workers already spawned run the rest,
       and results stay in index order either way *)
    let rec spawn slot acc =
      if slot > workers then acc
      else
        match Domain.spawn (fun () -> work slot) with
        | d ->
          Atomic.incr spawn_count;
          spawn (slot + 1) (d :: acc)
        | exception Failure _ -> acc
    in
    let domains = spawn 1 [] in
    work 0;
    List.iter Domain.join domains;
    Array.to_list (Array.map Option.get results)
  end

let run t fs =
  let rs = try_run t fs in
  (* the lowest-indexed failure, i.e. the first Error in list order —
     the same exception a sequential [List.map] would surface first *)
  List.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
    rs;
  List.map (function Ok v -> v | Error _ -> assert false) rs

(** Pool width for the CLI default: [SP_JOBS] when set to a positive
    integer, else the runtime's recommendation for this machine. *)
let default_jobs () =
  match Option.bind (Sys.getenv_opt "SP_JOBS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> Domain.recommended_domain_count ()

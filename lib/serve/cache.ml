(** See the mli for the contract. Implementation notes:

    - One mutex guards the table; probes take it only for the table
      read, verification runs outside the lock on the caller's data.
    - Recency is a monotonic commit sequence number, not lookup time:
      promotions happen only through the sequential commit path, so two
      runs that compile the same loops in the same order end with the
      same cache contents whatever the job count or thread timing.
    - Eviction scans for the minimum sequence number — O(capacity),
      fine for the few-hundred-entry caches a compile service runs. *)

module Compile = Sp_core.Compile
module Ddg = Sp_core.Ddg
module Modsched = Sp_core.Modsched
module Trace = Sp_obs.Trace

let site = "serve.cache.lookup"
let () = Sp_util.Fault.register site


type entry = {
  en_ii : int;
  en_times : int array;    (** issue times in canonical node space *)
  en_probed : int;
  en_fuel : int;
  en_cert : Compile.certification option;
}

type slot = { entry : entry; mutable seq : int }

type t = {
  cap : int;
  lock : Mutex.t;
  tbl : (string, slot) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable rejects : int;
  mutable inserts : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    cap = capacity;
    lock = Mutex.create ();
    tbl = Hashtbl.create ~random:false (max 16 capacity);
    tick = 0;
    hits = 0;
    misses = 0;
    rejects = 0;
    inserts = 0;
    evictions = 0;
  }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

type stats = {
  hits : int;
  misses : int;
  rejects : int;
  inserts : int;
  evictions : int;
  entries : int;
}

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        rejects = t.rejects;
        inserts = t.inserts;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
      })

(* ---- probe ---------------------------------------------------------- *)

let find t fp = locked t (fun () -> Hashtbl.find_opt t.tbl fp)

(* Commit (sequential finish phase): insert on a miss, refresh the
   sequence number on a hit — identical entry contents either way, the
   committed schedule IS the adopted one. *)
let commit t fp (entry : entry) =
  if t.cap > 0 then
    locked t (fun () ->
        t.tick <- t.tick + 1;
        match Hashtbl.find_opt t.tbl fp with
        | Some slot -> slot.seq <- t.tick
        | None ->
          Hashtbl.replace t.tbl fp { entry; seq = t.tick };
          t.inserts <- t.inserts + 1;
          if Hashtbl.length t.tbl > t.cap then begin
            let victim =
              Hashtbl.fold
                (fun k (s : slot) acc ->
                  match acc with
                  | Some (_, best) when best <= s.seq -> acc
                  | _ -> Some (k, s.seq))
                t.tbl None
            in
            match victim with
            | Some (k, _) ->
              Hashtbl.remove t.tbl k;
              t.evictions <- t.evictions + 1
            | None -> ()
          end)

let note_hit t =
  locked t (fun () -> t.hits <- t.hits + 1)

let note_miss t =
  locked t (fun () -> t.misses <- t.misses + 1)

let note_reject t =
  locked t (fun () ->
      t.rejects <- t.rejects + 1;
      t.misses <- t.misses + 1)

let hook t : Compile.cache =
  let cache_probe m (g : Ddg.t) ~mii ~max_ii : Compile.cache_probe =
    Sp_util.Fault.point site;
    if t.cap = 0 then begin
      note_miss t;
      { Compile.cp_hit = None; cp_commit = ignore }
    end
    else begin
      let c = Trace.span "cache.fingerprint" (fun () -> Fingerprint.canon g m) in
      let n = Array.length g.Ddg.units in
      let cp_commit (cs : Compile.cached_sched) =
        let times = cs.Compile.cs_schedule.Modsched.times in
        let en_times = Array.make n 0 in
        Array.iteri (fun i tm -> en_times.(c.Fingerprint.perm.(i)) <- tm) times;
        commit t c.Fingerprint.fp
          {
            en_ii = cs.Compile.cs_schedule.Modsched.s;
            en_times;
            en_probed = cs.Compile.cs_stats.Modsched.intervals_probed;
            en_fuel = cs.Compile.cs_stats.Modsched.fuel_spent;
            en_cert = cs.Compile.cs_cert;
          }
      in
      let hit =
        Trace.span "cache.probe" (fun () ->
        match find t c.Fingerprint.fp with
        | None ->
          note_miss t;
          None
        | Some slot ->
          let e = slot.entry in
          let s = e.en_ii in
          if s < mii || s > max_ii || Array.length e.en_times <> n then begin
            (* the fingerprint matched but the stored interval falls
               outside this loop's legal window (the window depends on
               the full graph, not just the pipelining graph) — or the
               digest collided outright *)
            note_reject t;
            None
          end
          else begin
            let times =
              Array.init n (fun i -> e.en_times.(c.Fingerprint.perm.(i)))
            in
            if
              Trace.span "cache.verify" (fun () ->
                  if Sp_obs.Cost.enabled () then
                    Sp_obs.Cost.add Sp_obs.Cost.Cache_verify_edge
                      (List.length g.Ddg.edges);
                  Result.is_ok (Modsched.check m g ~s ~times))
            then begin
              note_hit t;
              Some
                {
                  Compile.cs_schedule =
                    Modsched.mk_schedule g.Ddg.units ~s times;
                  cs_stats =
                    {
                      Modsched.intervals_probed = e.en_probed;
                      fuel_spent = e.en_fuel;
                    };
                  cs_cert = e.en_cert;
                }
            end
            else begin
              note_reject t;
              None
            end
          end)
      in
      { Compile.cp_hit = hit; cp_commit }
    end
  in
  { Compile.cache_probe }

(** Process-wide metric registry; see the interface for the contract.

    Domain-safety: counters and gauges are atomics, so increments from
    parallel compilation workers ([Sp_core.Compile] over a
    [Sp_util.Pool]) never lose updates, and counter sums are
    order-independent — a parallel run snapshots identically to a
    sequential one. Registration (get-or-create) is serialized by a
    mutex. Histograms remain single-domain: no compiler hot path
    records into one from a worker. *)

module Histogram = Sp_util.Histogram

type counter = { c_name : string; c : int Atomic.t }
type gauge = { g_name : string; g : float Atomic.t }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histo of Histogram.t ref
      (** a [ref] so {!reset} can swap in a fresh same-shaped histogram
          while {!histogram} callers keep observing through the
          registry *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create ~random:false 64
let registry_m = Mutex.create ()

let locked f =
  Mutex.lock registry_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_m) f

let mismatch name =
  invalid_arg
    (Printf.sprintf "Sp_obs.Metrics: %S already registered with another type"
       name)

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> c
      | Some _ -> mismatch name
      | None ->
        let c = { c_name = name; c = Atomic.make 0 } in
        Hashtbl.replace registry name (Counter c);
        c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c by)
let counter_value c = Atomic.get c.c

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Gauge g) -> g
      | Some _ -> mismatch name
      | None ->
        let g = { g_name = name; g = Atomic.make 0. } in
        Hashtbl.replace registry name (Gauge g);
        g)

let set g x = Atomic.set g.g x
let gauge_value g = Atomic.get g.g

let histogram ?(lo = 0.) ?(width = 1.) ?(buckets = 32) name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Histo h) -> !h
      | Some _ -> mismatch name
      | None ->
        let h = Histogram.create ~lo ~width ~buckets in
        Hashtbl.replace registry name (Histo (ref h));
        h)

(* ---- snapshot ----------------------------------------------------- *)

let json_of_metric = function
  | Counter c ->
    Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int (Atomic.get c.c)) ]
  | Gauge g ->
    Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Float (Atomic.get g.g)) ]
  | Histo h ->
    let h = !h in
    let q p =
      match Histogram.quantile h p with
      | Some x -> Json.Float x
      | None -> Json.Null
    in
    let extremum v = match v with Some x -> Json.Float x | None -> Json.Null in
    Json.Obj
      [
        ("type", Json.Str "histogram");
        ("count", Json.Int (Histogram.count h));
        ("mean", Json.Float (Histogram.mean h));
        ("min", extremum (Histogram.minimum h));
        ("max", extremum (Histogram.maximum h));
        ("p50", q 0.5);
        ("p90", q 0.9);
        ("p99", q 0.99);
      ]

let snapshot () =
  let entries =
    locked (fun () ->
        Hashtbl.fold
          (fun name m acc -> (name, json_of_metric m) :: acc)
          registry [])
  in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  Json.Obj [ ("schema_version", Json.Int 1); ("metrics", Json.Obj entries) ]

let write oc = Json.to_channel oc (snapshot ())

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.c 0
          | Gauge g -> Atomic.set g.g 0.
          | Histo h ->
            let old = !h in
            h :=
              Histogram.create ~lo:old.Histogram.lo ~width:old.Histogram.width
                ~buckets:(Array.length old.Histogram.counts))
        registry)

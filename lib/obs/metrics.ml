(** Process-wide counter registry; see the interface for the contract.

    Domain-safety: counters are atomics, so increments from parallel
    compilation workers ([Sp_core.Compile] over a [Sp_util.Pool]) never
    lose updates, and counter sums are order-independent — a parallel
    run snapshots identically to a sequential one. Registration
    (get-or-create) is serialized by a mutex. *)

type counter = int Atomic.t

let registry : (string, counter) Hashtbl.t = Hashtbl.create ~random:false 64
let registry_m = Mutex.create ()

let locked f =
  Mutex.lock registry_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_m) f

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.replace registry name c;
        c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value c = Atomic.get c

let snapshot () =
  let entries =
    locked (fun () ->
        Hashtbl.fold
          (fun name c acc ->
            ( name,
              Json.Obj
                [ ("type", Json.Str "counter"); ("value", Json.Int (Atomic.get c)) ]
            )
            :: acc)
          registry [])
  in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  Json.Obj [ ("schema_version", Json.Int 1); ("metrics", Json.Obj entries) ]

let write oc = Json.to_channel oc (snapshot ())

let reset () = locked (fun () -> Hashtbl.iter (fun _ c -> Atomic.set c 0) registry)

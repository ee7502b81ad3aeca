(** Monotonic-clock spans and instants; see the interface for the
    zero-cost-when-disabled contract. *)

type value = I of int | F of float | S of string | B of bool

type event =
  | Span of {
      name : string;
      ts : int64;
      dur : int64;
      args : (string * value) list;
    }
  | Instant of { name : string; ts : int64; args : (string * value) list }

let on = ref false
let buf : event list ref = ref []   (* newest first *)
let t0 = ref 0L

(* Domain-local redirection: a parallel compilation task runs inside
   {!collect}, which points this cell at a private buffer so worker
   domains never touch the shared [buf]. The driver {!inject}s each
   task's events back in deterministic loop order. Cross-domain
   visibility of [on]/[t0] is provided by the [Domain.spawn] that
   starts each worker ([Sp_util.Pool]): both are written before tasks
   are submitted. *)
let local_buf : event list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let push e =
  match !(Domain.DLS.get local_buf) with
  | Some b -> b := e :: !b
  | None -> buf := e :: !buf

let enabled () = !on

let enable () =
  buf := [];
  t0 := Monotonic_clock.now ();
  on := true

let disable () = on := false

let now_rel () = Int64.sub (Monotonic_clock.now ()) !t0

let no_args () = []

let instant ?(args = no_args) name =
  if !on then push (Instant { name; ts = now_rel (); args = args () })

let span ?(args = no_args) name f =
  if not !on then f ()
  else begin
    let ts = now_rel () in
    match f () with
    | v ->
      push (Span { name; ts; dur = Int64.sub (now_rel ()) ts; args = args () });
      v
    | exception e ->
      push
        (Span
           {
             name;
             ts;
             dur = Int64.sub (now_rel ()) ts;
             args = ("error", S (Printexc.to_string e)) :: args ();
           });
      raise e
  end

let collect f =
  let cell = Domain.DLS.get local_buf in
  let prev = !cell in
  let b = ref [] in
  cell := Some b;
  Fun.protect
    ~finally:(fun () -> cell := prev)
    (fun () ->
      let v = f () in
      (v, List.rev !b))

let inject evs = List.iter push evs

(* Force tracing on and capture this domain's events regardless of the
   global switch: the request-scoped path of the compile service. The
   shared buffer and [t0] are untouched — only span orderings and
   durations matter to a request capture, so a stale clock base is
   harmless — and both switches are restored even when [f] escapes,
   with the events recorded up to the escape kept (an error response
   still carries its partial span tree). *)
let with_recording f =
  let was = !on in
  let cell = Domain.DLS.get local_buf in
  let prev = !cell in
  let b = ref [] in
  cell := Some b;
  on := true;
  let restore () =
    on := was;
    cell := prev
  in
  match f () with
  | v ->
    restore ();
    (Result.Ok v, List.rev !b)
  | exception e ->
    restore ();
    (Result.Error e, List.rev !b)

let ts_of = function Span { ts; _ } -> ts | Instant { ts; _ } -> ts

(* ---- span trees --------------------------------------------------- *)

type tree =
  | Node of {
      t_name : string;
      t_dur : int64;
      t_args : (string * value) list;
      t_children : tree list;
    }

(* Events arrive in completion order (the push order {!collect} and
   {!with_recording} preserve): a span is pushed when it finishes, so
   everything it encloses was pushed before it. Reconstruction keeps a
   newest-first list of pending roots; a finishing span adopts the
   pending roots its interval contains — they are necessarily a prefix
   of the list — and un-reversing that prefix restores oldest-first
   children. An instant is a zero-duration leaf. *)
let tree_of_events evs =
  let rec adopt s_ts s_end pending kids =
    match pending with
    | (n, n_ts, n_end) :: rest when n_ts >= s_ts && n_end <= s_end ->
      adopt s_ts s_end rest (n :: kids)
    | _ -> (kids, pending)
  in
  let pending =
    List.fold_left
      (fun pending e ->
        match e with
        | Instant { name; ts; args } ->
          ( Node { t_name = name; t_dur = 0L; t_args = args; t_children = [] },
            ts, ts )
          :: pending
        | Span { name; ts; dur; args } ->
          let s_end = Int64.add ts dur in
          let kids, pending = adopt ts s_end pending [] in
          ( Node { t_name = name; t_dur = dur; t_args = args; t_children = kids },
            ts, s_end )
          :: pending)
      [] evs
  in
  List.rev_map (fun (n, _, _) -> n) pending

let rec skeleton_json (Node n) : Json.t =
  if n.t_children = [] then Json.Str n.t_name
  else
    Json.Obj
      [
        ("name", Json.Str n.t_name);
        ("children", Json.List (List.map skeleton_json n.t_children));
      ]

let skeletons_json ts = Json.List (List.map skeleton_json ts)

let events () =
  List.stable_sort (fun a b -> Int64.compare (ts_of a) (ts_of b)) (List.rev !buf)

(* ---- emission ----------------------------------------------------- *)

let json_of_value = function
  | I i -> Json.Int i
  | F x -> Json.Float x
  | S s -> Json.Str s
  | B b -> Json.Bool b

let us ns = Int64.to_float ns /. 1_000.0

let rec tree_json (Node n) : Json.t =
  Json.Obj
    ([ ("name", Json.Str n.t_name); ("dur_us", Json.Float (us n.t_dur)) ]
    @ (if n.t_args = [] then []
       else
         [
           ( "args",
             Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) n.t_args)
           );
         ])
    @
    if n.t_children = [] then []
    else [ ("children", Json.List (List.map tree_json n.t_children)) ])

let trees_json ts = Json.List (List.map tree_json ts)

let json_of_event e : Json.t =
  let common name ph ts args rest =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("cat", Json.Str "softpipe");
         ("ph", Json.Str ph);
         ("ts", Json.Float (us ts));
       ]
      @ rest
      @ [
          ("pid", Json.Int 1);
          ("tid", Json.Int 1);
          ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) args));
        ])
  in
  match e with
  | Span { name; ts; dur; args } ->
    common name "X" ts args [ ("dur", Json.Float (us dur)) ]
  | Instant { name; ts; args } ->
    common name "i" ts args [ ("s", Json.Str "t") ]

let to_chrome () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map json_of_event (events ())));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome oc = Json.to_channel oc (to_chrome ())

(** Work-cost accounting; see the interface for the contract.

    The recording state is a hash table of (loop, phase) cells, each an
    int array indexed by counter — so {!add} on the hot path is an
    array store into a cached cell, and a cell is (re)resolved only
    when the loop or phase stamp changes. Profiles snapshot the table
    into a canonically sorted immutable list, making merge a sorted
    union with pointwise sums and equality structural. *)

type counter =
  | Mrt_probe
  | Spath_relax
  | Spath_insert
  | Heap_op
  | Exact_node
  | Exact_prune_window
  | Exact_prune_resource
  | Exact_nogood_hit
  | Exact_backjump
  | Ddg_edge
  | Cache_verify_edge

let all_counters =
  [ Mrt_probe; Spath_relax; Spath_insert; Heap_op; Exact_node;
    Exact_prune_window; Exact_prune_resource; Exact_nogood_hit;
    Exact_backjump; Ddg_edge; Cache_verify_edge ]

let n_counters = 11

let counter_index = function
  | Mrt_probe -> 0
  | Spath_relax -> 1
  | Spath_insert -> 2
  | Heap_op -> 3
  | Exact_node -> 4
  | Exact_prune_window -> 5
  | Exact_prune_resource -> 6
  | Exact_nogood_hit -> 7
  | Exact_backjump -> 8
  | Ddg_edge -> 9
  | Cache_verify_edge -> 10

let counter_name = function
  | Mrt_probe -> "mrt.probes"
  | Spath_relax -> "spath.relaxations"
  | Spath_insert -> "spath.frontier_inserts"
  | Heap_op -> "heap.ops"
  | Exact_node -> "exact.nodes"
  | Exact_prune_window -> "exact.pruned_window"
  | Exact_prune_resource -> "exact.pruned_resource"
  | Exact_nogood_hit -> "exact.nogood_hits"
  | Exact_backjump -> "exact.backjumps"
  | Ddg_edge -> "ddg.edges"
  | Cache_verify_edge -> "cache.verify_edges"

type phase =
  | P_ddg
  | P_compact
  | P_bounds
  | P_search
  | P_certify
  | P_mve
  | P_emit
  | P_validate
  | P_cache
  | P_other

let all_phases =
  [ P_ddg; P_compact; P_bounds; P_search; P_certify; P_mve; P_emit;
    P_validate; P_cache; P_other ]

let phase_index = function
  | P_ddg -> 0
  | P_compact -> 1
  | P_bounds -> 2
  | P_search -> 3
  | P_certify -> 4
  | P_mve -> 5
  | P_emit -> 6
  | P_validate -> 7
  | P_cache -> 8
  | P_other -> 9

let n_phases = 10

let phase_of_index = function
  | 0 -> P_ddg
  | 1 -> P_compact
  | 2 -> P_bounds
  | 3 -> P_search
  | 4 -> P_certify
  | 5 -> P_mve
  | 6 -> P_emit
  | 7 -> P_validate
  | 8 -> P_cache
  | _ -> P_other

let phase_name = function
  | P_ddg -> "ddg"
  | P_compact -> "compact"
  | P_bounds -> "bounds"
  | P_search -> "search"
  | P_certify -> "certify"
  | P_mve -> "mve"
  | P_emit -> "emit"
  | P_validate -> "validate"
  | P_cache -> "cache"
  | P_other -> "other"

(* ---- recording state ------------------------------------------------ *)

(* Cell key: (loop + 1) * n_phases + phase index, so loop -1 (outside)
   keys from 0. Loops are nonnegative ids otherwise. *)
let key ~loop ~ph = ((loop + 1) * n_phases) + ph
let key_loop k = (k / n_phases) - 1
let key_phase k = phase_of_index (k mod n_phases)

type state = {
  cells : (int, int array) Hashtbl.t;
  mutable loop : int;
  mutable phase : int;      (* phase index *)
  mutable cur : int array;  (* the (loop, phase) cell, cached *)
}

let fresh_state () =
  let cells = Hashtbl.create ~random:false 32 in
  let cur = Array.make n_counters 0 in
  Hashtbl.replace cells (key ~loop:(-1) ~ph:(phase_index P_other)) cur;
  { cells; loop = -1; phase = phase_index P_other; cur }

let on = ref false
let global = ref (fresh_state ())

(* Domain-local redirection for parallel analysis tasks, exactly the
   {!Explain} discipline: under {!collect} the whole recording state is
   private to the task, so worker domains never race and a task's
   set_loop/set_phase cannot leak. *)
let local : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let state () =
  match !(Domain.DLS.get local) with Some st -> st | None -> !global

let enabled () = !on

let obs_wall_ns = ref 0L
let obs_minor_words = ref 0.0
let obs_ran = ref false

let enable () =
  global := fresh_state ();
  obs_wall_ns := 0L;
  obs_minor_words := 0.0;
  obs_ran := false;
  on := true

let disable () = on := false
let clear () = global := fresh_state ()

let refresh (st : state) =
  let k = key ~loop:st.loop ~ph:st.phase in
  st.cur <-
    (match Hashtbl.find_opt st.cells k with
    | Some c -> c
    | None ->
      let c = Array.make n_counters 0 in
      Hashtbl.replace st.cells k c;
      c)

let set_loop l =
  if !on then begin
    let st = state () in
    if st.loop <> l then begin
      st.loop <- l;
      refresh st
    end
  end

let set_phase p =
  if !on then begin
    let st = state () in
    let pi = phase_index p in
    if st.phase <> pi then begin
      st.phase <- pi;
      refresh st
    end
  end

let current_loop () = (state ()).loop
let current_phase () = phase_of_index (state ()).phase

let with_phase p f =
  if not !on then f ()
  else begin
    let st = state () in
    let prev = st.phase in
    set_phase p;
    Fun.protect
      ~finally:(fun () ->
        let st = state () in
        if st.phase <> prev then begin
          st.phase <- prev;
          refresh st
        end)
      f
  end

let add c n =
  if !on then begin
    let cur = (state ()).cur in
    let i = counter_index c in
    cur.(i) <- cur.(i) + n
  end

let incr c = add c 1

(* ---- profiles ------------------------------------------------------- *)

(* Sorted by key ascending — which is loop ascending with -1 first;
   canonical *presentation* order (outside last) is applied at output
   time. Counts arrays are never shared with live state. *)
type profile = (int * int array) list

let empty = []
let is_empty p = p = []

let prune (p : profile) : profile =
  List.filter (fun (_, c) -> Array.exists (fun n -> n <> 0) c) p

let row ~loop ph counts : profile =
  let c = Array.make n_counters 0 in
  List.iter
    (fun (ctr, n) -> c.(counter_index ctr) <- c.(counter_index ctr) + n)
    counts;
  prune [ (key ~loop ~ph:(phase_index ph), c) ]

let merge (a : profile) (b : profile) : profile =
  let rec go a b =
    match (a, b) with
    | [], p | p, [] -> p
    | (ka, ca) :: ra, (kb, cb) :: rb ->
      if ka < kb then (ka, Array.copy ca) :: go ra b
      else if kb < ka then (kb, Array.copy cb) :: go a rb
      else (ka, Array.init n_counters (fun i -> ca.(i) + cb.(i))) :: go ra rb
  in
  prune (go a b)

let equal (a : profile) (b : profile) =
  List.length a = List.length b
  && List.for_all2 (fun (ka, ca) (kb, cb) -> ka = kb && ca = cb) a b

let total (p : profile) =
  List.fold_left
    (fun acc (_, c) -> Array.fold_left ( + ) acc c)
    0 p

let counter_totals (p : profile) =
  let t = Array.make n_counters 0 in
  List.iter
    (fun (_, c) -> Array.iteri (fun i n -> t.(i) <- t.(i) + n) c)
    p;
  List.map (fun ctr -> (ctr, t.(counter_index ctr))) all_counters

let loop_total (p : profile) ~loop =
  List.fold_left
    (fun acc (k, c) ->
      if key_loop k = loop then Array.fold_left ( + ) acc c else acc)
    0 p

(* Presentation order: loops ascending with -1 (outside) last, matching
   the Explain convention. *)
let present_loops (p : profile) =
  let ls =
    List.sort_uniq compare (List.map (fun (k, _) -> key_loop k) p)
  in
  let inside, outside = List.partition (fun l -> l >= 0) ls in
  inside @ outside

let cell_counts c =
  List.filter_map
    (fun ctr ->
      let n = c.(counter_index ctr) in
      if n = 0 then None else Some (ctr, n))
    all_counters

let cells (p : profile) =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun (k, c) ->
          if key_loop k = l then Some ((l, key_phase k), cell_counts c)
          else None)
        p)
    (present_loops p)

let snapshot () : profile =
  let st = state () in
  prune
    (List.sort
       (fun (a, _) (b, _) -> compare a b)
       (Hashtbl.fold
          (fun k c acc -> (k, Array.copy c) :: acc)
          st.cells []))

let collect f =
  let cell = Domain.DLS.get local in
  let prev = !cell in
  let st = fresh_state () in
  cell := Some st;
  Fun.protect
    ~finally:(fun () -> cell := prev)
    (fun () ->
      let v = f () in
      ( v,
        prune
          (List.sort
             (fun (a, _) (b, _) -> compare a b)
             (Hashtbl.fold
                (fun k c acc -> (k, c) :: acc)
                st.cells [])) ))

let inject (p : profile) =
  if !on then begin
    let st = state () in
    List.iter
      (fun (k, c) ->
        match Hashtbl.find_opt st.cells k with
        | Some dst -> Array.iteri (fun i n -> dst.(i) <- dst.(i) + n) c
        | None -> Hashtbl.replace st.cells k (Array.copy c))
      p;
    (* the current cell may have just been created/replaced *)
    refresh st
  end

(* ---- report-only wall/GC observation -------------------------------- *)

let observe f =
  let w0 = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  Fun.protect
    ~finally:(fun () ->
      obs_wall_ns := Int64.add !obs_wall_ns (Int64.sub (Monotonic_clock.now ()) t0);
      obs_minor_words := !obs_minor_words +. (Gc.minor_words () -. w0);
      obs_ran := true)
    f

let observed () =
  if !obs_ran then Some (!obs_wall_ns, !obs_minor_words) else None

(* ---- output --------------------------------------------------------- *)

let schema = "cost/1"

let to_json (p : profile) : Json.t =
  let counters_obj counts =
    Json.Obj
      (List.map (fun (ctr, n) -> (counter_name ctr, Json.Int n)) counts)
  in
  let loops =
    List.map
      (fun l ->
        let phcells =
          List.filter (fun ((l', _), _) -> l' = l) (cells p)
        in
        let ltotal =
          List.fold_left
            (fun acc (_, counts) ->
              List.fold_left (fun a (_, n) -> a + n) acc counts)
            0 phcells
        in
        Json.Obj
          [
            ("loop", Json.Int l);
            ("total", Json.Int ltotal);
            ( "phases",
              Json.List
                (List.map
                   (fun ((_, ph), counts) ->
                     Json.Obj
                       [
                         ("phase", Json.Str (phase_name ph));
                         ( "total",
                           Json.Int
                             (List.fold_left (fun a (_, n) -> a + n) 0 counts)
                         );
                         ("counters", counters_obj counts);
                       ])
                   phcells) );
          ])
      (present_loops p)
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("total", Json.Int (total p));
      ( "counters",
        Json.Obj
          (List.map
             (fun (ctr, n) -> (counter_name ctr, Json.Int n))
             (counter_totals p)) );
      ("loops", Json.List loops);
    ]

let loop_label l = if l < 0 then "outside" else Printf.sprintf "loop%d" l

let folded (p : profile) =
  let b = Buffer.create 256 in
  List.iter
    (fun ((l, ph), counts) ->
      List.iter
        (fun (ctr, n) ->
          Buffer.add_string b
            (Printf.sprintf "%s;%s;%s %d\n" (loop_label l) (phase_name ph)
               (counter_name ctr) n))
        counts)
    (cells p);
  Buffer.contents b

let flame (p : profile) : Render.flame_node list =
  List.map
    (fun l ->
      let phcells = List.filter (fun ((l', _), _) -> l' = l) (cells p) in
      {
        Render.fn_name = loop_label l;
        fn_self = 0;
        fn_children =
          List.map
            (fun ((_, ph), counts) ->
              {
                Render.fn_name = phase_name ph;
                fn_self = 0;
                fn_children =
                  List.map
                    (fun (ctr, n) ->
                      { Render.fn_name = counter_name ctr; fn_self = n;
                        fn_children = [] })
                    counts;
              })
            phcells;
      })
    (present_loops p)

let pp ppf (p : profile) =
  if is_empty p then Fmt.pf ppf "cost: no work recorded@."
  else begin
    Fmt.pf ppf "cost: %d work units@." (total p);
    List.iter
      (fun (ctr, n) ->
        if n > 0 then Fmt.pf ppf "  %-24s %d@." (counter_name ctr) n)
      (counter_totals p);
    List.iter
      (fun l ->
        let phcells = List.filter (fun ((l', _), _) -> l' = l) (cells p) in
        Fmt.pf ppf "%s: %d@." (loop_label l) (loop_total p ~loop:l);
        List.iter
          (fun ((_, ph), counts) ->
            Fmt.pf ppf "  %-10s%s@." (phase_name ph)
              (String.concat ""
                 (List.map
                    (fun (ctr, n) ->
                      Printf.sprintf " %s=%d" (counter_name ctr) n)
                    counts)))
          phcells)
      (present_loops p);
    match observed () with
    | None -> ()
    | Some (ns, words) ->
      Fmt.pf ppf
        "observed (report-only, excluded from artifacts): %.3f ms wall, \
         %.0f minor words@."
        (Int64.to_float ns /. 1e6)
        words
  end

let report p = Fmt.str "%a" pp p

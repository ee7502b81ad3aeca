(** The software pipelining scheduler (paper Sections 2.2.1–2.2.2).

    For a candidate initiation interval [s]:

    + each nontrivial strongly connected component is scheduled by
      itself, nodes in a topological ordering of the intra-iteration
      edges, every node placed in the earliest slot inside its
      {e precedence-constrained range} — the legal window derived from
      the already-placed nodes through the precomputed symbolic
      longest-path closure, instantiated at [s]. If a node cannot be
      placed within [s] consecutive slots of its range, the attempt at
      this [s] fails (by modulo-ness it would never fit);
    + the graph is condensed — each component becomes one vertex whose
      reservation is the aggregate of its members at their relative
      offsets — and the resulting acyclic graph is list scheduled
      against the {e modulo} resource reservation table.

    The driver searches initiation intervals from the lower bound
    upward. The paper argues for {e linear} search (schedulability is
    not monotonic in [s], and the lower bound is usually achieved);
    binary search is provided for the ablation of DESIGN.md §5. *)

open Sp_machine

type schedule = {
  s : int;             (** initiation interval *)
  times : int array;   (** issue time per unit, all >= 0 *)
  span : int;          (** max over units of time + len *)
  sc : int;            (** stage count, ceil(span / s) *)
}

(* Wrap check: a [no_wrap] unit (a reduced control construct) must not
   straddle the steady-state boundary — its whole occupancy must fall
   inside one s-window — and must not even touch the window's end:
   the instruction at every window boundary has to stay a plain word so
   that loop control (the kernel back-branch, the pass-counter set at
   the prolog seam) can attach to it without inserting an extra cycle
   into the modulo timeline. An inserted cycle at a seam silently
   shifts every in-flight value crossing it — a bug class caught by the
   random-program equivalence tests. *)
let wrap_ok ~s (u : Sunit.t) ~at =
  (not u.Sunit.no_wrap) || (at mod s) + u.Sunit.len <= s - 1

type violation =
  | Shape
  | Negative of int
  | Edge of Ddg.edge
  | Wrap of int
  | Resource of { slot : int; rid : int }

let pp_violation ppf = function
  | Shape -> Fmt.string ppf "interval below 1 or not one time per unit"
  | Negative v -> Fmt.pf ppf "unit %d issues at a negative time" v
  | Edge e -> Fmt.pf ppf "dependence %a violated" Ddg.pp_edge e
  | Wrap v -> Fmt.pf ppf "unit %d leaves its no-wrap window" v
  | Resource { slot; rid } ->
    Fmt.pf ppf "resource %d over its count at residue %d" rid slot

(* The clauses run in a fixed order, so a schedule that breaks several
   always names the same one. *)
let check (m : Machine.t) (g : Ddg.t) ~s ~(times : int array) =
  let units = g.Ddg.units in
  let exception Bad of violation in
  try
    if s < 1 || Array.length times <> Array.length units then raise (Bad Shape);
    Array.iteri (fun v t -> if t < 0 then raise (Bad (Negative v))) times;
    List.iter
      (fun (e : Ddg.edge) ->
        if times.(e.dst) - times.(e.src) < e.delay - (s * e.omega) then
          raise (Bad (Edge e)))
      g.Ddg.edges;
    Array.iteri
      (fun v u -> if not (wrap_ok ~s u ~at:times.(v)) then raise (Bad (Wrap v)))
      units;
    let nres = Machine.num_resources m in
    let occ = Array.make (s * nres) 0 in
    Array.iteri
      (fun v (u : Sunit.t) ->
        List.iter
          (fun (off, rid) ->
            let slot = (times.(v) + off) mod s in
            let k = (slot * nres) + rid in
            occ.(k) <- occ.(k) + 1;
            if occ.(k) > (Machine.resource m rid).Machine.count then
              raise (Bad (Resource { slot; rid })))
          u.Sunit.resv)
      units;
    Ok ()
  with Bad v -> Error v

(** Dependence-graph analysis shared by the interval search: strongly
    connected components, the recurrence lower bound, and the symbolic
    longest-path closure of each nontrivial component (computed once,
    valid for every interval in [rec_mii .. s_max] — the range the
    search actually visits). *)
type analysis = {
  a_scc : Scc.t;
  a_spaths : Spath.t option array;
  a_rec_mii : int;
      (** recurrence bound; [> s_max] when some cycle admits no
          interval within range *)
}

let analyze ~s_max (g : Ddg.t) : analysis =
  let scc =
    Scc.compute
      ~n:(Array.length g.Ddg.units)
      ~succs:(fun v -> List.map (fun (e : Ddg.edge) -> e.dst) g.Ddg.succs.(v))
  in
  let rec_mii = ref 1 in
  (* a member's index inside its component, -1 outside it; reset after
     each component *)
  let local = Array.make (Array.length g.Ddg.units) (-1) in
  (* made from the immediate [None] and filled, like [Scc.compute]'s
     components *)
  let spaths = Array.make (Scc.num_components scc) None in
  Array.iteri
    (fun c members ->
      if scc.Scc.nontrivial.(c) then begin
        List.iteri (fun k v -> local.(v) <- k) members;
        let edges =
          List.filter_map
            (fun (e : Ddg.edge) ->
              let i = local.(e.src) and j = local.(e.dst) in
              if i >= 0 && j >= 0 then Some (i, j, e.delay, e.omega)
              else None)
            g.Ddg.edges
        in
        List.iter (fun v -> local.(v) <- -1) members;
        let n = List.length members in
        let comp_rec = Spath.rec_mii_bound ~n ~edges ~s_max in
        rec_mii := Int.max !rec_mii comp_rec;
        spaths.(c) <- Some (Spath.compute ~n ~edges ~s_min:comp_rec ~s_max)
      end)
    scc.Scc.comps;
  { a_scc = scc; a_spaths = spaths; a_rec_mii = !rec_mii }

(* ------------------------------------------------------------------ *)

let () = Sp_util.Fault.register "modsched.place"


(** Fuel accounting: every slot probe against a reservation table
    spends one unit. Exhausting the budget aborts the whole interval
    search — the degradation machinery in {!Sp_core.Compile} then
    reverts the loop to its serial schedule, so a pathological loop
    can bound the compiler's work instead of hanging it. The meter
    keeps counting even without a budget, so a successful search can
    report its total cost (the gap table's cost column). *)
exception Out_of_fuel

type meter = { mutable spent : int; budget : int option }

let spend meter =
  meter.spent <- meter.spent + 1;
  match meter.budget with
  | Some b when meter.spent > b -> raise Out_of_fuel
  | _ -> ()

(* Explain support: name a resource for the decision log. *)
let rname (m : Machine.t) rid = (Machine.resource m rid).Machine.rname

let explain_fail (g : Ddg.t) ~s ~unit_id fail =
  if Sp_obs.Explain.enabled () then
    Sp_obs.Explain.record
      (Sp_obs.Explain.Probe_fail
         {
           s;
           unit_id;
           unit_desc = Fmt.str "%a" Sunit.pp g.Ddg.units.(unit_id);
           fail;
         })

let schedule_component ~fuel (m : Machine.t) (g : Ddg.t) ~s ~members
    ~(sp : Spath.t) : int array option =
  ignore m;
  let members = Array.of_list members in
  let k = Array.length members in
  let table = Mrt.Modulo.create m ~s in
  let off = Array.make k (-1) in
  let exception Fail in
  try
    (* members are in sid order = topological order of intra-iteration
       edges (they always point forward in program order) *)
    for v = 0 to k - 1 do
      let lo = ref 0 and hi = ref max_int in
      for w = 0 to k - 1 do
        if off.(w) >= 0 then begin
          let d = Spath.query sp ~s w v in
          if d <> Spath.no_path then lo := Int.max !lo (off.(w) + d);
          let d = Spath.query sp ~s v w in
          if d <> Spath.no_path then hi := Int.min !hi (off.(w) - d)
        end
      done;
      if !lo > !hi then begin
        explain_fail g ~s ~unit_id:members.(v)
          (Sp_obs.Explain.Window_empty { lo = !lo; hi = !hi });
        raise Fail
      end;
      let u = g.Ddg.units.(members.(v)) in
      let placed = ref false in
      let t = ref !lo in
      while (not !placed) && !t <= !hi && !t < !lo + s do
        spend fuel;
        if Mrt.Modulo.fits table ~at:!t u.Sunit.resv then begin
          Mrt.Modulo.add table ~at:!t u.Sunit.resv;
          off.(v) <- !t;
          Sp_util.Fault.point "modsched.place";
          placed := true
        end
        else incr t
      done;
      if not !placed then begin
        (if Sp_obs.Explain.enabled () then
           let hi' = Int.min !hi (!lo + s - 1) in
           match Mrt.Modulo.last_conflict table with
           | Some (slot, rid) ->
             explain_fail g ~s ~unit_id:members.(v)
               (Sp_obs.Explain.No_slot
                  { lo = !lo; hi = hi'; resource = rname m rid; slot })
           | None ->
             explain_fail g ~s ~unit_id:members.(v)
               (Sp_obs.Explain.Window_empty { lo = !lo; hi = hi' }));
        raise Fail
      end
    done;
    Some off
  with Fail ->
    None

let schedule_at ~fuel (m : Machine.t) (g : Ddg.t) ~(scc : Scc.t)
    ~(spaths : Spath.t option array) ~s : int array option =
  let nc = Scc.num_components scc in
  let units = g.Ddg.units in
  let exception Fail in
  try
    (* 1. schedule each nontrivial component internally *)
    let offsets = Array.make nc [||] in
    for c = 0 to nc - 1 do
      let members = scc.Scc.comps.(c) in
      match spaths.(c) with
      | None -> offsets.(c) <- Array.make (List.length members) 0
      | Some sp -> (
        match schedule_component ~fuel m g ~s ~members ~sp with
        | Some off -> offsets.(c) <- off
        | None -> raise Fail)
    done;
    (* relative offset of a node inside its component *)
    let node_off = Array.make (Array.length units) 0 in
    for c = 0 to nc - 1 do
      List.iteri
        (fun k v -> node_off.(v) <- offsets.(c).(k))
        scc.Scc.comps.(c)
    done;
    (* 2. condense and list schedule against the global modulo table *)
    let table = Mrt.Modulo.create m ~s in
    let start = Array.make nc (-1) in
    (* effective delay of cross-component edges *)
    let cedges = Array.make nc [] in
    List.iter
      (fun (e : Ddg.edge) ->
        let cs = scc.Scc.comp_of.(e.src) and cd = scc.Scc.comp_of.(e.dst) in
        if cs <> cd then
          let d = e.delay - (s * e.omega) + node_off.(e.src) - node_off.(e.dst) in
          cedges.(cd) <- (cs, d) :: cedges.(cd))
      g.Ddg.edges;
    List.iter
      (fun c ->
        let members = scc.Scc.comps.(c) in
        let est =
          List.fold_left
            (fun acc (pc, d) ->
              if start.(pc) < 0 then
                invalid_arg "Modsched: component order not topological";
              Int.max acc (start.(pc) + d))
            0 cedges.(c)
        in
        (* aggregate reservation of the whole component *)
        let resv =
          List.concat_map
            (fun v ->
              List.map
                (fun (o, r) -> (o + node_off.(v), r))
                units.(v).Sunit.resv)
            members
        in
        let wrap_failed = ref false in
        let fits_at t =
          if not (Mrt.Modulo.fits table ~at:t resv) then begin
            wrap_failed := false;
            false
          end
          else if
            not
              (List.for_all
                 (fun v -> wrap_ok ~s units.(v) ~at:(t + node_off.(v)))
                 members)
          then begin
            wrap_failed := true;
            false
          end
          else true
        in
        let placed = ref false in
        let t = ref est in
        while (not !placed) && !t < est + s do
          spend fuel;
          if fits_at !t then begin
            Mrt.Modulo.add table ~at:!t resv;
            start.(c) <- !t;
            Sp_util.Fault.point "modsched.place";
            placed := true
          end
          else incr t
        done;
        if not !placed then begin
          (if Sp_obs.Explain.enabled () then
             let unit_id = List.hd members in
             let lo = est and hi = est + s - 1 in
             if !wrap_failed then
               explain_fail g ~s ~unit_id (Sp_obs.Explain.No_wrap { lo; hi })
             else
               match Mrt.Modulo.last_conflict table with
               | Some (slot, rid) ->
                 explain_fail g ~s ~unit_id
                   (Sp_obs.Explain.No_slot
                      { lo; hi; resource = rname m rid; slot })
               | None ->
                 explain_fail g ~s ~unit_id
                   (Sp_obs.Explain.Window_empty { lo; hi }));
          raise Fail
        end)
      (Scc.topo_components scc);
    let times =
      Array.mapi
        (fun v _ -> start.(scc.Scc.comp_of.(v)) + node_off.(v))
        units
    in
    Some times
  with Fail ->
    None

(* ------------------------------------------------------------------ *)

type search = Linear | Binary

type stats = {
  intervals_probed : int;
  fuel_spent : int;
}

type outcome =
  | Scheduled of schedule * stats
  | No_interval of stats
  | Fuel_exhausted of stats

let mk_schedule units ~s times =
  let span = ref 1 in
  Array.iteri
    (fun i (u : Sunit.t) -> span := Int.max !span (times.(i) + u.Sunit.len))
    units;
  { s; times; span = !span; sc = Sp_util.Intmath.ceil_div !span s }

(** Search [\[mii, max_ii\]] for the smallest schedulable initiation
    interval under a placement-probe budget. [analysis] must come from
    {!analyze} with [s_max >= max_ii]. *)
let schedule_with_budget ?(search = Linear) ?analysis ?fuel (m : Machine.t)
    (g : Ddg.t) ~mii ~max_ii : outcome =
  let a =
    match analysis with
    | Some a -> a
    | None -> analyze ~s_max:(Int.max mii max_ii) g
  in
  let mii = Int.max mii a.a_rec_mii in
  let meter = { spent = 0; budget = fuel } in
  let probed = ref 0 in
  let last_s = ref 0 in
  let try_s s =
    incr probed;
    last_s := s;
    let r = schedule_at ~fuel:meter m g ~scc:a.a_scc ~spaths:a.a_spaths ~s in
    (match r with
    | Some times when Sp_obs.Explain.enabled () ->
      let sch = mk_schedule g.Ddg.units ~s times in
      Sp_obs.Explain.record
        (Sp_obs.Explain.Probe_ok { s; span = sch.span; sc = sch.sc })
    | _ -> ());
    r
  in
  let stats () =
    Sp_obs.Trace.instant "modsched.search"
      ~args:(fun () ->
        [ ("intervals_probed", Sp_obs.Trace.I !probed);
          ("fuel_spent", Sp_obs.Trace.I meter.spent) ]);
    { intervals_probed = !probed; fuel_spent = meter.spent }
  in
  try
    match search with
    | Linear ->
      let rec go s =
        if s > max_ii then No_interval (stats ())
        else
          match try_s s with
          | Some times -> Scheduled (mk_schedule g.Ddg.units ~s times, stats ())
          | None -> go (s + 1)
      in
      go (Int.max 1 mii)
    | Binary ->
      (* assumes monotone schedulability — the assumption the paper
         rejects; kept for the ablation *)
      let rec go lo hi best =
        if lo > hi then best
        else
          let mid = (lo + hi) / 2 in
          match try_s mid with
          | Some times ->
            go lo (mid - 1)
              (Some (mk_schedule g.Ddg.units ~s:mid times))
          | None -> go (mid + 1) hi best
      in
      (match go (Int.max 1 mii) max_ii None with
      | Some sched -> Scheduled (sched, stats ())
      | None -> No_interval (stats ()))
  with Out_of_fuel ->
    if Sp_obs.Explain.enabled () then
      Sp_obs.Explain.record (Sp_obs.Explain.Fuel_out { s = !last_s });
    Fuel_exhausted (stats ())

(** Unbudgeted search; [None] when no interval in range is schedulable
    (the loop is then left unpipelined). *)
let schedule ?search ?analysis (m : Machine.t) (g : Ddg.t) ~mii ~max_ii :
    schedule option =
  match schedule_with_budget ?search ?analysis m g ~mii ~max_ii with
  | Scheduled (s, _) -> Some s
  | No_interval _ | Fuel_exhausted _ -> None

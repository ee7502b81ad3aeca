(** Exact modulo schedulability at a fixed initiation interval.

    The heuristic scheduler ({!Sp_core.Modsched}) can fail at an
    interval that is in fact schedulable; this module decides
    schedulability {e exactly}, with no external solver, by searching a
    finite constraint space that is provably equivalent to the infinite
    one over issue times.

    {2 The encoding}

    Write an issue time as [t(v) = s*k(v) + r(v)] with residue
    [r(v) = t(v) mod s]. The three constraint families of the paper's
    formulation then split cleanly:

    - {e modulo resources} (Section 2.1): the reservation of [v]
      occupies slot [(r(v) + off) mod s] — it depends on the residues
      only;
    - {e wrap windows}: a reduced construct carrying [no_wrap] must sit
      strictly inside one s-window, i.e. [r(v) + len(v) <= s - 1] —
      residues only;
    - {e dependences}: an edge [(u, v, d, w)] requires
      [t(v) - t(u) >= d - s*w], which given residues is equivalent to
      the integer difference constraint
      [k(v) - k(u) >= ceil((d + r(u) - r(v)) / s) - w].

    Difference constraints are satisfiable iff their constraint graph
    has no positive-weight cycle — and every cycle of the dependence
    graph lives inside one strongly connected component. So: a modulo
    schedule at interval [s] exists iff some residue assignment
    [r : nodes -> \[0, s)] satisfies resources and wrap windows and
    leaves every component's [k]-graph free of positive cycles. The
    residue space is finite ([s^n]); the search below enumerates it
    with pruning, so an exhausted search is a {e proof} of
    infeasibility at [s].

    {2 The search}

    Conflict-directed backjumping (CBJ) with nogood learning over the
    residue space, in a configurable variable order (components
    topologically; members permuted within their component only, so
    every component is still decided contiguously):

    - {e residue domains} are cut by the [no_wrap] cap up front;
    - {e nogood bank}: before any constraint work, a candidate is
      checked against the learned nogoods ({!Nogood.consult}), one read
      of slot [var * s + res] of the index {!Nogood.reindex} lays out
      at entry: the newest nogood whose deepest literal in this solve's
      order is the candidate's [(var, residue)] and whose other
      literals all hold. Every placement and unplacement notifies the
      bank, which keeps that answer current. Each hit prunes the value
      and charges the nogood's other literals to the conflict set;
    - {e longest-path windows}: for two nodes of one component the
      symbolic closure ({!Sp_core.Spath}) bounds [t(v) - t(u)] into
      [\[L(u,v), -L(v,u)\]]; when that window is narrower than [s] it
      admits exactly one residue difference class, so a candidate
      residue is checked in O(1) against every placed peer — a
      violation names the peer (the conflict reason) and learns a
      binary window nogood;
    - {e resource pruning}: candidates are probed against the shared
      modulo reservation table ({!Sp_core.Mrt.Modulo}); on a conflict,
      {!Sp_core.Mrt.Modulo.conflict_slot} and [conflict_rid] name the
      oversubscribed (slot, resource) cell and a shadow occupancy map
      names the placed contributors — the shallowest subset whose
      demand still oversubscribes the cell becomes a resource nogood;
    - {e cycle check}: when a component's last member is placed, a
      Bellman–Ford longest-path pass with predecessor tracking decides
      the [k]-graph exactly; a positive cycle is extracted, its
      members become a cycle nogood, and if the just-placed node is
      not on the cycle the search backjumps past it non-chronologically;
    - {e domain wipeout} learns the accumulated conflict set as a
      derived nogood and backjumps to its deepest member;
    - {e rotation anchor}: when no unit carries [no_wrap], rotating all
      residues by a constant is a solution symmetry, so the first
      variable's residue is pinned to 0 (disabled under [?pin]).

    With [learn = false] the search degrades to the chronological
    branch and bound of the original implementation: no bank, no
    conflict sets, every wipeout backtracks one level.

    Every candidate probe and every Bellman–Ford edge relaxation
    {e per sweep} spends one unit of fuel; exhaustion aborts with
    {!Out_of_budget} — the same bounded-work discipline as the
    heuristic's [Fuel_exhausted]. *)

module Ddg = Sp_core.Ddg
module Scc = Sp_core.Scc
module Spath = Sp_core.Spath
module Mrt = Sp_core.Mrt
module Sunit = Sp_core.Sunit
module Machine = Sp_machine.Machine
module Intmath = Sp_util.Intmath
module Fault = Sp_util.Fault

exception Out_of_fuel


(* Doctoring site: corrupts the learned-nogood bank so the divergence
   oracle and the portfolio cross-check can prove they would catch a
   learner bug. Never fires unless armed. *)
let nogood_site = "exact.nogood"
let () = Fault.register nogood_site

type meter = { mutable left : int }

let spend meter n =
  meter.left <- meter.left - n;
  if meter.left < 0 then raise Out_of_fuel

type verdict =
  | Feasible of int array
      (** least non-negative issue times of a valid schedule at [s] *)
  | Infeasible
      (** proof: the whole residue space was covered by the search *)
  | Out_of_budget

type var_order = O_program | O_most_constrained | O_busiest

type config = {
  learn : bool;
  order : var_order;
  seed : int;  (** rotates the residue probing order; 0 = ascending *)
}

let default_config = { learn = true; order = O_program; seed = 0 }

type stats = {
  nodes : int;
  pruned_window : int;
  pruned_resource : int;
  nogood_hits : int;
  backjumps : int;
  learned : int;   (** nogoods recorded by this solve *)
  reused : int;    (** nogoods already in the bank at entry *)
}

type result = {
  verdict : verdict;
  spent : int;  (** fuel units consumed *)
  stats : stats;
}

(* [k]-graph weight of an edge under the current residues. *)
let kweight ~s ~(res : int array) (e : Ddg.edge) =
  Intmath.ceil_div (e.Ddg.delay + res.(e.Ddg.src) - res.(e.Ddg.dst)) s
  - e.Ddg.omega

let order_name = function
  | O_program -> "program"
  | O_most_constrained -> "most-constrained"
  | O_busiest -> "busiest-resource"

(* What one component's exact cycle check found. *)
type cycle_check =
  | Acyclic
  | Positive_cycle of {
      members : int list;  (** global ids on the cycle *)
      edges : (int * int * int * int) list;
    }

let solve ?fuel ?(config = default_config) ?bank ?(pin = [])
    (m : Machine.t) (g : Ddg.t) ~(scc : Scc.t)
    ~(spaths : Spath.t option array) ~s : result =
  if s <= 0 then invalid_arg "Sp_opt.Exact.solve: s <= 0";
  let units = g.Ddg.units in
  let n = Array.length units in
  let nres = Machine.num_resources m in
  let budget = Option.value ~default:max_int fuel in
  let meter = { left = budget } in
  let learn = config.learn && bank <> None in
  (* residue cap: a no_wrap unit must not touch the window boundary
     (see Modsched.wrap_ok) *)
  let cap =
    Array.map
      (fun (u : Sunit.t) ->
        if u.Sunit.no_wrap then s - 1 - u.Sunit.len else s - 1)
      units
  in
  let pinned = Array.make n (-1) in
  List.iter (fun (v, r) -> pinned.(v) <- r) pin;
  (* a self-dependence constrains no residue: ceil(d/s) - w <= 0 must
     hold outright or no assignment helps *)
  let self_ok =
    List.for_all
      (fun (e : Ddg.edge) ->
        e.Ddg.src <> e.Ddg.dst
        || Intmath.ceil_div e.Ddg.delay s - e.Ddg.omega <= 0)
      g.Ddg.edges
  in
  let pins_ok =
    Array.for_all2 (fun p c -> p <= c) pinned cap
  in
  let no_stats =
    { nodes = 0; pruned_window = 0; pruned_resource = 0; nogood_hits = 0;
      backjumps = 0; learned = 0;
      reused = (match bank with Some b -> Nogood.size b | None -> 0) }
  in
  if (not self_ok) || (not pins_ok) || Array.exists (fun c -> c < 0) cap then
    { verdict = Infeasible; spent = 0; stats = no_stats }
  else begin
    let nc = Scc.num_components scc in
    (* variable order: condensation topologically; members permuted
       within their component only, so components stay contiguous and
       the cycle check still fires exactly when a component closes *)
    let member_key =
      match config.order with
      | O_program -> fun _ -> 0
      | O_most_constrained -> fun v -> cap.(v) (* smallest domain first *)
      | O_busiest ->
        (* demand-to-capacity hottest resource; nodes reserving it
           first, heaviest reservation first *)
        let dem = Array.make (max 1 nres) 0 in
        Array.iter
          (fun (u : Sunit.t) ->
            List.iter (fun (_, rid) -> dem.(rid) <- dem.(rid) + 1)
              u.Sunit.resv)
          units;
        let busiest = ref 0 in
        for rid = 1 to nres - 1 do
          let better =
            dem.(rid) * (Machine.resource m !busiest).Machine.count
            > dem.(!busiest) * (Machine.resource m rid).Machine.count
          in
          if better then busiest := rid
        done;
        let hot = !busiest in
        fun v ->
          let uses =
            List.length
              (List.filter (fun (_, rid) -> rid = hot)
                 units.(v).Sunit.resv)
          in
          -uses
    in
    let order =
      Array.of_list
        (List.concat_map
           (fun c ->
             List.stable_sort
               (fun a b -> compare (member_key a) (member_key b))
               scc.Scc.comps.(c))
           (Scc.topo_components scc))
    in
    let depth = Array.make n 0 in
    Array.iteri (fun p v -> depth.(v) <- p) order;
    (* does position [p] place the last member of its component?
       (components are contiguous in [order] by construction) *)
    let closes =
      Array.mapi
        (fun p v ->
          p = n - 1 || scc.Scc.comp_of.(order.(p + 1)) <> scc.Scc.comp_of.(v))
        order
    in
    let local_of = Array.make n 0 in
    Array.iter
      (fun members -> List.iteri (fun k v -> local_of.(v) <- k) members)
      scc.Scc.comps;
    (* per node: the component closure and the peers it constrains *)
    let comp_sp = Array.make n None in
    let peers = Array.make n [] in
    Array.iteri
      (fun c members ->
        match spaths.(c) with
        | None -> ()
        | Some sp ->
          let idx = List.mapi (fun k v -> (v, k)) members in
          List.iter
            (fun (v, k) ->
              comp_sp.(v) <- Some (sp, k);
              peers.(v) <- List.filter (fun (w, _) -> w <> v) idx)
            idx)
      scc.Scc.comps;
    let intra = Array.make nc [] in
    List.iter
      (fun (e : Ddg.edge) ->
        let c = scc.Scc.comp_of.(e.Ddg.src) in
        if e.Ddg.src <> e.Ddg.dst && c = scc.Scc.comp_of.(e.Ddg.dst) then
          intra.(c) <- e :: intra.(c))
      g.Ddg.edges;
    let res = Array.make n (-1) in
    let table = Mrt.Modulo.create m ~s in
    (* shadow occupancy: which placed node contributed each unit of
       demand to each (slot, resource) cell — the conflict attribution
       behind resource nogoods *)
    let occ = Array.make (s * max 1 nres) [] in
    let cell ~at off rid = ((((at + off) mod s) + s) mod s * nres) + rid in
    let rec occ_add v r = function
      | [] -> ()
      | (off, rid) :: resv ->
        let c = cell ~at:r off rid in
        occ.(c) <- v :: occ.(c);
        occ_add v r resv
    in
    let rec drop1 v = function
      | [] -> []
      | w :: rest -> if w = v then rest else w :: drop1 v rest
    in
    let rec occ_remove v r = function
      | [] -> ()
      | (off, rid) :: resv ->
        let c = cell ~at:r off rid in
        occ.(c) <- drop1 v occ.(c);
        occ_remove v r resv
    in
    (* the bank's index follows every placement *)
    let index = match bank with Some b when learn -> Some b | _ -> None in
    let place_at v r =
      Mrt.Modulo.add table ~at:r units.(v).Sunit.resv;
      occ_add v r units.(v).Sunit.resv;
      res.(v) <- r;
      match index with Some b -> Nogood.assign b v | None -> ()
    in
    let unplace v r =
      (match index with Some b -> Nogood.unassign b v | None -> ());
      Mrt.Modulo.remove table ~at:r units.(v).Sunit.resv;
      occ_remove v r units.(v).Sunit.resv;
      res.(v) <- -1
    in
    (* prune attribution for the decision log *)
    let pruned_window = ref 0
    and pruned_resource = ref 0
    and nodes_expanded = ref 0
    and nogood_hits = ref 0
    and backjumps = ref 0
    and learned = ref 0 in
    let reused = match bank with Some b -> Nogood.size b | None -> 0 in
    let learn_ng lits cert =
      match bank with
      | Some b -> if Nogood.add b { Nogood.lits; cert } then incr learned
      | None -> ()
    in
    (* the literals of [vars] at their placed residues, [v] at [r]
       whether placed or not: sorted by variable, no duplicates *)
    let lits_of ~v ~r vars =
      Array.of_list
        (List.map
           (fun w -> { Nogood.var = w; res = (if w = v then r else res.(w)) })
           (List.sort_uniq Int.compare vars))
    in
    (* the variables [conf] blames, at their placed residues *)
    let blamed_lits conf =
      let rec collect w acc =
        if w < 0 then acc
        else
          collect (w - 1)
            (if conf.(w) then { Nogood.var = w; res = res.(w) } :: acc else acc)
      in
      Array.of_list (collect (n - 1) [])
    in
    (match index with
    | Some b ->
      Nogood.reindex b ~depth ~s ~assigned:res;
      (* doctored corruption: flood the bank with bogus unary nogoods
         covering the first variable's whole domain, silently flipping
         the verdict to Infeasible — the cross-checks must catch it *)
      (try Fault.point nogood_site
       with Fault.Injected _ ->
         let v0 = order.(0) in
         for r = 0 to cap.(v0) do
           ignore
             (Nogood.add b
                {
                  Nogood.lits = [| { Nogood.var = v0; res = r } |];
                  cert = Nogood.C_derived;
                })
         done)
    | None -> ());
    let anchored =
      pin = []
      && not (Array.exists (fun (u : Sunit.t) -> u.Sunit.no_wrap) units)
    in
    (* residue window from the symbolic longest paths: t(v) - t(w) lies
       in [L(w,v), -L(v,w)]; a window narrower than s pins the residue
       difference to one class mod s. Returns the first violated placed
       peer — the conflict reason — or -1. *)
    let rec window_peer sp lv r = function
      | [] -> -1
      | (w, lw) :: peers ->
        let violated =
          res.(w) >= 0
          &&
          let lo = Spath.query sp ~s lw lv in
          lo <> Spath.no_path
          &&
          let neg_up = Spath.query sp ~s lv lw in
          neg_up <> Spath.no_path
          &&
          let up = -neg_up in
          up - lo + 1 < s && ((r - res.(w) - lo) mod s + s) mod s > up - lo
        in
        if violated then w else window_peer sp lv r peers
    in
    let window_viol v r =
      match comp_sp.(v) with
      | Some (sp, lv) when s >= sp.Spath.s_min && s <= sp.Spath.s_max ->
        window_peer sp lv r peers.(v)
      | _ -> -1 (* no closure valid at this interval: skip the pruning *)
    in
    (* minimal-ish resource conflict: the failed probe's cell, its
       placed contributors from the shadow occupancy, and the
       shallowest subset whose demand still oversubscribes the cell
       together with the candidate (shallow literals let the eventual
       wipeout backjump further) *)
    let tally = Array.make n 0 in
    let rec tally_add d = function
      | [] -> ()
      | w :: ws ->
        tally.(w) <- tally.(w) + d;
        tally_add d ws
    in
    let rec demand r slot rid = function
      | [] -> 0
      | (off, rid') :: resv ->
        let here = rid' = rid && (((r + off) mod s) + s) mod s = slot in
        (if here then 1 else 0) + demand r slot rid resv
    in
    (* the placed contributors, shallowest first, until their demand
       reaches [need]; every placed node sits above position [p] *)
    let rec take p q need acc =
      if q >= p || need <= 0 then acc
      else
        let w = order.(q) in
        if tally.(w) > 0 then take p (q + 1) (need - tally.(w)) (w :: acc)
        else take p (q + 1) need acc
    in
    let resource_reason v r =
      let rid = Mrt.Modulo.conflict_rid table in
      if rid < 0 then []
      else
        let slot = Mrt.Modulo.conflict_slot table in
        let cand = demand r slot rid units.(v).Sunit.resv in
        let limit = (Machine.resource m rid).Machine.count in
        let placed = occ.((slot * nres) + rid) in
        tally_add 1 placed;
        (* need the taken demand to exceed limit - cand *)
        let taken = take depth.(v) 0 (limit - cand + 1) [] in
        tally_add (-1) placed;
        taken
    in
    (* exact feasibility of one component's k-graph: Bellman–Ford
       longest-path relaxation with predecessor tracking; any
       relaxation still possible after |members| sweeps exposes a
       positive cycle, which is walked out for the cycle nogood *)
    let comp_check c =
      match intra.(c) with
      | [] -> Acyclic
      | edges ->
        let members = scc.Scc.comps.(c) in
        let nl = List.length members in
        let ne = List.length edges in
        let dist = Array.make nl 0 in
        let pred = Array.make nl None in
        let changed = ref true and sweeps = ref 0 and last = ref (-1) in
        while !changed && !sweeps <= nl do
          changed := false;
          incr sweeps;
          spend meter ne;
          List.iter
            (fun (e : Ddg.edge) ->
              let nd = dist.(local_of.(e.Ddg.src)) + kweight ~s ~res e in
              if nd > dist.(local_of.(e.Ddg.dst)) then begin
                dist.(local_of.(e.Ddg.dst)) <- nd;
                pred.(local_of.(e.Ddg.dst)) <- Some e;
                last := local_of.(e.Ddg.dst);
                changed := true
              end)
            edges
        done;
        if not !changed then Acyclic
        else begin
          (* walk predecessors nl steps to land on the positive cycle,
             then once around it to collect members and edges *)
          let glob = Array.of_list members in
          let step l =
            match pred.(l) with
            | Some e -> local_of.(e.Ddg.src)
            | None -> l
          in
          let x = ref !last in
          for _ = 1 to nl do
            x := step !x
          done;
          let start = !x in
          let rec collect l acc_m acc_e =
            match pred.(l) with
            | None -> (acc_m, acc_e) (* cannot happen on the cycle *)
            | Some e ->
              let l' = local_of.(e.Ddg.src) in
              let acc_m = glob.(l) :: acc_m
              and acc_e =
                (e.Ddg.src, e.Ddg.dst, e.Ddg.delay, e.Ddg.omega) :: acc_e
              in
              if l' = start then (acc_m, acc_e) else collect l' acc_m acc_e
          in
          let members, edges = collect start [] [] in
          Positive_cycle { members; edges }
        end
    in
    (* least non-negative solution of the full k-graph (cycles are
       non-positive once every component passed its check; cross-
       component edges cannot close a cycle) *)
    let reconstruct () =
      let k = Array.make n 0 in
      let changed = ref true and sweeps = ref 0 in
      while !changed do
        changed := false;
        incr sweeps;
        if !sweeps > n + 1 then
          failwith "Sp_opt.Exact: positive cycle escaped the search";
        List.iter
          (fun (e : Ddg.edge) ->
            let nd = k.(e.Ddg.src) + kweight ~s ~res e in
            if nd > k.(e.Ddg.dst) then begin
              k.(e.Ddg.dst) <- nd;
              changed := true
            end)
          g.Ddg.edges
      done;
      Array.init n (fun v -> (s * k.(v)) + res.(v))
    in
    (* CBJ: [place p] either solves the suffix, returns false
       (chronological failure), or raises [Backjump conf] carrying the
       set of shallower variables whose placements caused every
       failure it saw — ancestors outside the set skip their remaining
       values. With [learn = false] nothing is blamed and every
       wipeout backtracks one level, reproducing the original
       chronological branch and bound node for node. The search
       functions take what they share as arguments, so a probe builds
       no closure. *)
    let exception Backjump of bool array in
    let blame conf w = if learn then conf.(w) <- true in
    let rec blame_list conf v = function
      | [] -> ()
      | w :: ws ->
        if w <> v then blame conf w;
        blame_list conf v ws
    in
    let rec blame_lits conf v (lits : Nogood.lit array) i =
      if i < Array.length lits then begin
        if lits.(i).Nogood.var <> v then blame conf lits.(i).Nogood.var;
        blame_lits conf v lits (i + 1)
      end
    in
    let rec place p =
      if p = n then true
      else begin
        let v = order.(p) in
        let conf = Array.make n false in
        let dom = (if depth.(v) = 0 && anchored then 0 else cap.(v)) + 1 in
        if try_values p v conf dom (config.seed mod dom) 0 then true
        else if not learn then false
        else begin
          (* domain wipeout: the conflict set is a nogood over the
             placed residues that caused every value to fail; when
             nothing placed is to blame the interval is infeasible
             outright, and the empty set backjumps to the root *)
          let lits = blamed_lits conf in
          if Array.length lits > 0 then learn_ng lits Nogood.C_derived;
          if p = 0 then false else raise_notrace (Backjump conf)
        end
      end
    (* the [i]-th value of [v]'s domain onwards, in probing order; a
       pinned variable has its pin only *)
    and try_values p v conf dom rot i =
      i < dom
      &&
      let r = if pinned.(v) >= 0 then pinned.(v) else (rot + i) mod dom in
      probe p v conf r
      || (pinned.(v) < 0 && try_values p v conf dom rot (i + 1))
    (* [v], at position [p], takes residue [r]: [true] when the suffix
       then solves, [false] when the next value is due *)
    and probe p v conf r =
      spend meter 1;
      incr nodes_expanded;
      let banked =
        match index with
        | Some b -> Nogood.consult b ~var:v ~res:r
        | None -> None
      in
      match banked with
      | Some ng ->
        incr nogood_hits;
        blame_lits conf v ng.Nogood.lits 0;
        false
      | None ->
        let w = window_viol v r in
        if w >= 0 then begin
          incr pruned_window;
          blame conf w;
          if learn then
            learn_ng (lits_of ~v ~r [ w; v ])
              (Nogood.C_window { u = w; v });
          false
        end
        else if not (Mrt.Modulo.fits table ~at:r units.(v).Sunit.resv) then
        begin
          incr pruned_resource;
          let contributors = resource_reason v r in
          blame_list conf v contributors;
          (let rid = Mrt.Modulo.conflict_rid table in
           if learn && rid >= 0 then
             learn_ng
               (lits_of ~v ~r (v :: contributors))
               (Nogood.C_resource { rid }));
          false
        end
        else begin
          place_at v r;
          let check =
            if closes.(p) then comp_check scc.Scc.comp_of.(v) else Acyclic
          in
          match check with
          | Positive_cycle { members; edges } ->
            if learn then
              learn_ng (lits_of ~v ~r members) (Nogood.C_cycle { edges });
            unplace v r;
            if learn && not (List.mem v members) then begin
              (* no value of [v] can break a cycle it is not on:
                 backjump past it *)
              incr backjumps;
              let c = Array.make n false in
              blame_list c v members;
              raise_notrace (Backjump c)
            end
            else begin
              blame_list conf v members;
              false
            end
          | Acyclic -> (
            match place (p + 1) with
            | true -> true
            | false ->
              (* chronological child failure: in learning mode children
                 report through Backjump, so this is the learn = false
                 path *)
              unplace v r;
              false
            | exception Backjump c ->
              unplace v r;
              if c.(v) then begin
                for w = 0 to n - 1 do
                  if c.(w) && w <> v then blame conf w
                done;
                false
              end
              else begin
                incr backjumps;
                raise_notrace (Backjump c)
              end)
        end
    in
    let run_search () =
      if learn then (
        match place 0 with
        | ok -> ok
        | exception Backjump _ -> false)
      else place 0
    in
    let finish verdict spent =
      if Sp_obs.Cost.enabled () then begin
        Sp_obs.Cost.add Sp_obs.Cost.Exact_node !nodes_expanded;
        Sp_obs.Cost.add Sp_obs.Cost.Exact_prune_window !pruned_window;
        Sp_obs.Cost.add Sp_obs.Cost.Exact_prune_resource !pruned_resource;
        Sp_obs.Cost.add Sp_obs.Cost.Exact_nogood_hit !nogood_hits;
        Sp_obs.Cost.add Sp_obs.Cost.Exact_backjump !backjumps
      end;
      let stats =
        {
          nodes = !nodes_expanded;
          pruned_window = !pruned_window;
          pruned_resource = !pruned_resource;
          nogood_hits = !nogood_hits;
          backjumps = !backjumps;
          learned = !learned;
          reused;
        }
      in
      if Sp_obs.Explain.enabled () then
        Sp_obs.Explain.record
          (Sp_obs.Explain.Exact_probe
             {
               s;
               verdict =
                 (match verdict with
                 | Feasible _ -> "feasible"
                 | Infeasible -> "infeasible"
                 | Out_of_budget -> "out-of-budget");
               spent;
               pruned_window = !pruned_window;
               pruned_resource = !pruned_resource;
               nodes = !nodes_expanded;
               nogood_hits = !nogood_hits;
               backjumps = !backjumps;
               learned = !learned;
               reused;
             });
      Sp_obs.Trace.instant "exact.solve"
        ~args:(fun () ->
          [
            ("s", Sp_obs.Trace.I s);
            ("spent", Sp_obs.Trace.I spent);
            ("order", Sp_obs.Trace.S (order_name config.order));
            ( "verdict",
              Sp_obs.Trace.S
                (match verdict with
                | Feasible _ -> "feasible"
                | Infeasible -> "infeasible"
                | Out_of_budget -> "out-of-budget") );
          ]);
      { verdict; spent; stats }
    in
    match run_search () with
    | true -> finish (Feasible (reconstruct ())) (budget - meter.left)
    | false -> finish Infeasible (budget - meter.left)
    | exception Out_of_fuel ->
      finish Out_of_budget budget
  end

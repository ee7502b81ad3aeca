(** Optimality certification of heuristic modulo schedules.

    The heuristic ({!Sp_core.Modsched}) finds {e an} interval; the
    paper's Section 4.1 claims it is near-optimal in practice. This
    module measures that claim per loop: it scans candidate intervals
    upward from the lower bound, deciding each one {e exactly} with
    {!Exact.solve}, and returns

    - {!Optimal} when every interval below the heuristic's is proved
      infeasible (the heuristic already achieved the optimum),
    - {!Improved} when some smaller interval is feasible — together
      with a validated schedule at the smallest such interval (exact
      feasibility is not monotonic in [s], so the upward scan's first
      hit {e is} the optimum),
    - {!Unknown} when the fuel budget runs out, recording how far the
      infeasibility proof got.

    {2 Incremental re-solve}

    The scan carries a learned-nogood bank from interval to interval:
    before each new interval the bank is {!Nogood.carry}'d — primitive
    nogoods (window, resource, cycle) are re-validated against the new
    interval from their certificates and survive when the recorded
    violation recurs; derived nogoods are dropped. The next solve
    starts with the survivors instead of rediscovering them.

    {2 Proof portfolio}

    With [portfolio = K > 1], each interval is decided by K solver
    configurations — distinct variable orders and residue-rotation
    seeds, each with its own carried bank — run on a {!Sp_util.Pool}.
    Determinization: {e every} member runs to completion (no racing
    cancellation), the lowest-indexed decisive member is committed,
    and all decisive members must agree on feasibility — a
    disagreement means a solver soundness bug and raises. Only the
    committed member's recording (trace, decision log, cost) is
    replayed. Because the commit rule is a pure function of the member
    results, the outcome is byte-identical whatever the pool width or
    machine load; when a fault injection is armed the members run
    sequentially on the calling domain so global hit counters stay
    deterministic.

    Every schedule handed back is re-verified here by
    {!Sp_core.Modsched.check} before anyone builds on it, so the
    certifier never hands the compiler an illegal schedule. It can
    still make the compiler emit worse code: an [Improved] schedule may
    have more stages, and so need more registers or a longer trip count
    than the heuristic's, and a loop whose improved schedule fails the
    compiler's expansion checks keeps its serial schedule. *)

module Ddg = Sp_core.Ddg
module Scc = Sp_core.Scc
module Spath = Sp_core.Spath
module Modsched = Sp_core.Modsched
module Machine = Sp_machine.Machine
module Pool = Sp_util.Pool
module Fault = Sp_util.Fault

type certificate =
  | Optimal
  | Improved of Modsched.schedule
  | Unknown of { proven_below : int }

type outcome = {
  cert : certificate;
  spent : int;      (** total fuel across all intervals probed *)
  intervals : int;  (** number of intervals decided (or attempted) *)
}

let default_fuel = 2_000_000

(* Portfolio member i: variable orders cycle through the three
   implemented ones; the seed (residue-rotation offset) is the member
   index, so even same-order members explore distinct trajectories. *)
let member_config ~learn i =
  let order =
    match i mod 3 with
    | 0 -> Exact.O_program
    | 1 -> Exact.O_most_constrained
    | _ -> Exact.O_busiest
  in
  { Exact.learn; order; seed = i }

(* Re-validation context for carrying a bank to interval [s]: window
   bounds from the symbolic closure, resource limits from the machine. *)
let carry_ctx (m : Machine.t) (g : Ddg.t) (a : Modsched.analysis) ~s :
    Nogood.ctx =
  let scc = a.Modsched.a_scc in
  let n = Array.length g.Ddg.units in
  let local_of = Array.make n 0 in
  Array.iter
    (fun members -> List.iteri (fun k v -> local_of.(v) <- k) members)
    scc.Scc.comps;
  let window ~u ~v =
    let c = scc.Scc.comp_of.(u) in
    if scc.Scc.comp_of.(v) <> c then None
    else
      match a.Modsched.a_spaths.(c) with
      | None -> None
      | Some sp when s < sp.Spath.s_min || s > sp.Spath.s_max -> None
      | Some sp ->
        let lo = Spath.query sp ~s local_of.(u) local_of.(v)
        and neg_up = Spath.query sp ~s local_of.(v) local_of.(u) in
        if lo = Spath.no_path || neg_up = Spath.no_path then None
        else Some (lo, -neg_up)
  in
  {
    Nogood.units = g.Ddg.units;
    limit = (fun rid -> (Machine.resource m rid).Machine.count);
    window;
  }

let run ?(fuel = default_fuel) ?analysis ?(learn = true) ?(portfolio = 1)
    (m : Machine.t) (g : Ddg.t) ~mii ~ii : outcome =
  let a =
    match analysis with
    | Some a -> a
    | None -> Modsched.analyze ~s_max:(max 1 (max mii ii)) g
  in
  let lo = max 1 (max mii a.Modsched.a_rec_mii) in
  let k = max 1 portfolio in
  let pool = Pool.create ~jobs:k in
  let members = List.init k (member_config ~learn) in
  let banks =
    List.map (fun _ -> if learn then Some (Nogood.create ()) else None) members
  in
  let solve_member ~fuel ~s (cfg, bank) =
    Exact.solve ~fuel ~config:cfg ?bank m g ~scc:a.Modsched.a_scc
      ~spaths:a.Modsched.a_spaths ~s
  in
  (* one interval, all members, deterministic commit *)
  let decide ~fuel ~s : Exact.result =
    (* carry each member's bank to this interval first: primitive
       nogoods are only consulted at an interval their certificate was
       re-validated against *)
    let ctx = carry_ctx m g a ~s in
    List.iter
      (function Some b -> ignore (Nogood.carry b ctx ~s) | None -> ())
      banks;
    match (members, banks) with
    | [ cfg ], [ bank ] -> solve_member ~fuel ~s (cfg, bank)
    | _ ->
      (* each member records privately from the caller's (loop, phase)
         stamps; only the committed member's recording is replayed, so
         the trace, decision log and cost profile follow it *)
      let tasks =
        List.map
          (fun mb -> Sp_obs.Phase.capture (fun () -> solve_member ~fuel ~s mb))
          (List.combine members banks)
      in
      let results =
        if Fault.is_armed () then List.map (fun t -> t ()) tasks
        else Pool.run pool tasks
      in
      let decisive =
        List.filter
          (fun (r, _) -> r.Exact.verdict <> Exact.Out_of_budget)
          results
      in
      (* soundness cross-check: every decisive member must agree on
         feasibility (schedules may differ; verdict kind may not) *)
      (match decisive with
      | (first, _) :: rest ->
        let feas (r : Exact.result) =
          match r.Exact.verdict with Exact.Feasible _ -> true | _ -> false
        in
        List.iter
          (fun (r, _) ->
            if feas r <> feas first then
              failwith
                (Printf.sprintf
                   "Sp_opt.Certify: portfolio members disagree at II %d" s))
          rest
      | [] -> ());
      let committed, recording =
        match decisive with d :: _ -> d | [] -> List.hd results
      in
      Sp_obs.Phase.replay recording;
      committed
  in
  let rec go s ~spent ~intervals =
    if s >= ii then { cert = Optimal; spent; intervals }
    else
      let r = decide ~fuel:(fuel - spent) ~s in
      let spent = spent + r.Exact.spent and intervals = intervals + 1 in
      match r.Exact.verdict with
      | Exact.Infeasible -> go (s + 1) ~spent ~intervals
      | Exact.Out_of_budget ->
        { cert = Unknown { proven_below = s }; spent; intervals }
      | Exact.Feasible times ->
        (* a rejected schedule is a solver bug; the check is charged
           one reservation probe per unit *)
        Sp_obs.Cost.add Sp_obs.Cost.Mrt_probe (Array.length g.Ddg.units);
        (match Modsched.check m g ~s ~times with
        | Ok () -> ()
        | Error v ->
          failwith
            (Format.asprintf "Sp_opt.Certify: %a" Modsched.pp_violation v));
        { cert = Improved (Modsched.mk_schedule g.Ddg.units ~s times); spent;
          intervals }
  in
  go lo ~spent:0 ~intervals:0

let hook ?fuel ?learn ?portfolio () : Sp_core.Compile.certifier =
 fun m g ~analysis ~mii heur ->
  let module C = Sp_core.Compile in
  let o = run ?fuel ~analysis ?learn ?portfolio m g ~mii ~ii:heur.Modsched.s in
  match o.cert with
  | Optimal -> (heur, C.Cert_optimal { spent = o.spent })
  | Improved sched ->
    (sched, C.Cert_improved { heur_ii = heur.Modsched.s; spent = o.spent })
  | Unknown { proven_below } ->
    (heur, C.Cert_unknown { spent = o.spent; proven_below })

(* Schedule-quality reports rendered from [Compile.loop_report]: the
   text of [w2c --profile] and the JSON of the E13 artifact. *)

open Sp_machine
module Json = Sp_obs.Json
module Cost = Sp_obs.Cost
module Explain = Sp_obs.Explain

type sim = {
  cycles : int;
  flops : int;
  mflops : float;
  dyn_ops : int;
  sem_ok : bool option;
  utilization : (string * float) list;
}

let of_run m ?sem_ok (r : Sp_vliw.Sim.result) =
  {
    cycles = r.Sp_vliw.Sim.cycles;
    flops = r.Sp_vliw.Sim.flops;
    mflops = Sp_vliw.Sim.mflops m r;
    dyn_ops = r.Sp_vliw.Sim.dyn_ops;
    sem_ok;
    utilization =
      Sp_vliw.Stats.utilization m ~cycles:r.Sp_vliw.Sim.cycles
        ~res_busy:r.Sp_vliw.Sim.res_busy;
  }

let optimal_ii (r : Compile.loop_report) =
  match (r.cert, r.ii) with
  | Some (Cert_optimal _ | Cert_improved _), Some ii -> Some ii
  | _ -> None

(* Prolog, kernel and epilog words: [(sc-1) * ii], [unroll * ii] and
   [(sc-1) * ii]; zeros when the loop is not pipelined. *)
let words (r : Compile.loop_report) =
  match r.ii with
  | Some ii -> ((r.sc - 1) * ii, r.unroll * ii, (r.sc - 1) * ii)
  | None -> (0, 0, 0)

let overhead r =
  let p, k, e = words r in
  if k > 0 then float_of_int (p + e) /. float_of_int k else 0.

(* MRT occupancy per resource: one iteration's reservation slots over
   the slots of one window — the achieved interval, or the serial
   restart interval when the loop is not pipelined. *)
let mrt (m : Machine.t) (r : Compile.loop_report) =
  let window = match r.ii with Some ii -> ii | None -> max 1 r.seq_len in
  List.map
    (fun (name, use) ->
      let count = (Machine.find_resource m name).Machine.count in
      (name, float_of_int use /. float_of_int (window * count)))
    r.res_use

(* ---- attribution (E13 artifact, --attribute) ---------------------- *)

(* Rejecting cause of a placement failure, as a short stable string. *)
let fail_reason = function
  | Explain.Window_empty _ -> "window empty"
  | Explain.No_slot { resource; _ } -> resource ^ " residue"
  | Explain.No_wrap _ -> "wrap"

(* What lets [--compare --attribute] name a regression's cause. Pure
   functions of the compilation, so the artifact stays byte-stable. *)
let attribution_fields (events, cost) l_id =
  let mine f =
    List.filter_map (fun (l, e) -> if l = l_id then f e else None) events
  in
  let bounds =
    match
      mine (function
        | Explain.Bounds { ctl_bound; binding; critical; _ } ->
          Some (ctl_bound, binding, critical)
        | _ -> None)
    with
    | (ctl, binding, critical) :: _ ->
      [
        ("ctl_bound", Json.Int ctl);
        ("binding", Json.Str binding);
        ("binding_detail", Json.Str critical);
      ]
    | [] -> []
  in
  let fails =
    mine (function
      | Explain.Probe_fail { s; fail; _ } -> Some (s, fail_reason fail)
      | _ -> None)
  in
  let probe_fails =
    List.map
      (fun s ->
        let fs = List.filter (fun (s', _) -> s' = s) fails in
        (* the last failure is the one that abandoned this interval *)
        let reason = snd (List.nth fs (List.length fs - 1)) in
        Json.Obj
          [
            ("ii", Json.Int s);
            ("fails", Json.Int (List.length fs));
            ("reason", Json.Str reason);
          ])
      (List.sort_uniq compare (List.map fst fails))
  in
  bounds
  @ [
      ("probe_fails", Json.List probe_fails);
      ("cost_total", Json.Int (Cost.loop_total cost ~loop:l_id));
      ( "cost",
        Json.Obj
          (List.map
             (fun (c, n) -> (Cost.counter_name c, Json.Int n))
             (Cost.loop_counters cost ~loop:l_id)) );
    ]

(* ---- JSON --------------------------------------------------------- *)

let opt_int = function Some i -> Json.Int i | None -> Json.Null

let named_floats l = Json.Obj (List.map (fun (k, x) -> (k, Json.Float x)) l)

(* One loop object; with [~attribution], its attribution fields
   follow. *)
let loop_json ?attribution m (r : Compile.loop_report) =
  let prolog, kernel, epilog = words r in
  Json.Obj
    ([
       ("loop", Json.Int r.l_id);
       ("depth", Json.Int r.l_depth);
       ("status", Json.Str (Compile.status_to_string r.status));
       ("n_units", Json.Int r.n_units);
       ("res_mii", Json.Int r.res_mii);
       ("rec_mii", Json.Int r.rec_mii);
       ("mii", Json.Int r.mii);
       ("seq_len", Json.Int r.seq_len);
       ("achieved_ii", opt_int r.ii);
       ("optimal_ii", opt_int (optimal_ii r));
       ("efficiency", Json.Float (Compile.efficiency r));
       ( "certificate",
         match r.cert with
         | Some c -> Json.Str (Compile.cert_to_string c)
         | None -> Json.Null );
       ("sc", Json.Int r.sc);
       ("unroll", Json.Int r.unroll);
       ("mve_fregs", Json.Int r.mve_fregs);
       ("mve_iregs", Json.Int r.mve_iregs);
       ("prolog_words", Json.Int prolog);
       ("epilog_words", Json.Int epilog);
       ("kernel_words", Json.Int kernel);
       ("overhead", Json.Float (overhead r));
       ("intervals_probed", Json.Int r.probed);
       ("fuel_spent", Json.Int r.fuel_spent);
       ("mrt_occupancy", named_floats (mrt m r));
     ]
    @
    match attribution with
    | Some a -> attribution_fields a r.l_id
    | None -> [])

let to_json ?attribution m ~name ~code_size ?sim loops =
  let ran f = match sim with Some s -> f s | None -> Json.Null in
  Json.Obj
    ([
       ("schema_version", Json.Int 1);
       ("kernel", Json.Str name);
       ("machine", Json.Str m.Machine.name);
       ("code_size", Json.Int code_size);
       ("cycles", ran (fun s -> Json.Int s.cycles));
       ("flops", ran (fun s -> Json.Int s.flops));
       ("mflops", ran (fun s -> Json.Float s.mflops));
       ("dyn_ops", ran (fun s -> Json.Int s.dyn_ops));
       ( "sem_ok",
         ran (fun s ->
             match s.sem_ok with Some b -> Json.Bool b | None -> Json.Null) );
       ( "utilization",
         named_floats (match sim with Some s -> s.utilization | None -> []) );
       ("loops", Json.List (List.map (loop_json ?attribution m) loops));
     ]
    @
    match attribution with
    | Some (_, cost) -> [ ("cost_total", Json.Int (Cost.total cost)) ]
    | None -> [])

(* ---- text (w2c --profile) ----------------------------------------- *)

let pp_pct ppf x = Fmt.pf ppf "%3.0f%%" (100. *. x)

let pp_loop m ppf (r : Compile.loop_report) =
  Fmt.pf ppf "loop%d(depth %d) [%s]: " r.l_id r.l_depth
    (Compile.status_to_string r.status);
  (match r.ii with
  | Some ii ->
    Fmt.pf ppf "ii=%d (mii=%d: res %d, rec %d%s) eff=%.2f sc=%d u=%d" ii
      r.mii r.res_mii r.rec_mii
      (match optimal_ii r with
      | Some o -> Printf.sprintf ", optimal %d" o
      | None -> "")
      (Compile.efficiency r) r.sc r.unroll;
    let prolog, kernel, epilog = words r in
    Fmt.pf ppf "@.    code: %d prolog + %d kernel + %d epilog words (overhead %.2f)"
      prolog kernel epilog (overhead r);
    Fmt.pf ppf "@.    mve: %d fregs, %d iregs" r.mve_fregs r.mve_iregs
  | None ->
    Fmt.pf ppf "not pipelined (mii=%d, serial restart %d)" r.mii r.seq_len);
  (match r.cert with
  | Some c -> Fmt.pf ppf "@.    certificate: %s" (Compile.cert_to_string c)
  | None -> ());
  Fmt.pf ppf "@.    search: %d interval(s), %d fuel" r.probed r.fuel_spent;
  match mrt m r with
  | [] -> ()
  | occ ->
    Fmt.pf ppf "@.    mrt occupancy:";
    List.iter (fun (n, x) -> Fmt.pf ppf " %s=%a" n pp_pct x) occ

let pp ?sim m ~name ~code_size ppf loops =
  Fmt.pf ppf "profile: %s on %s — %d instructions" name m.Machine.name
    code_size;
  Option.iter
    (fun s ->
      Fmt.pf ppf ", %d cycles, %.2f MFLOPS%s" s.cycles s.mflops
        (if s.sem_ok = Some false then " [SEMANTICS MISMATCH]" else "");
      if s.utilization <> [] then begin
        Fmt.pf ppf "@.  utilization:";
        List.iter (fun (n, x) -> Fmt.pf ppf " %s=%a" n pp_pct x) s.utilization
      end)
    sim;
  Fmt.pf ppf "@.";
  List.iter (fun r -> Fmt.pf ppf "  %a@." (pp_loop m) r) loops

(** Scheduler decision log; see the interface for the recording
    contract. Events carry only flat data (strings, ints) so the core
    scheduler layers can report decisions without this library knowing
    their types — the same layering as {!Cost} and {!Render}. *)

type fail =
  | Window_empty of { lo : int; hi : int }
  | No_slot of { lo : int; hi : int; resource : string; slot : int }
  | No_wrap of { lo : int; hi : int }

type event =
  | Bounds of {
      res_mii : int;
      rec_mii : int;
      ctl_bound : int;
      mii : int;
      seq_len : int;
      binding : string;
      critical : string;
    }
  | Scc_order of { comps : int list list }
  | Probe_fail of { s : int; unit_id : int; unit_desc : string; fail : fail }
  | Probe_ok of { s : int; span : int; sc : int }
  | Fuel_out of { s : int }
  | Compact_stall of {
      unit_id : int;
      unit_desc : string;
      est : int;
      placed : int;
      resource : string;
    }
  | Mve_lifetime of { reg : string; birth : int; death : int; q : int }
  | Mve_choice of {
      unroll : int;
      mode : string;
      binding_reg : string;
      binding_q : int;
      fits : bool;
    }
  | Exact_probe of {
      s : int;
      verdict : string;
      spent : int;
      pruned_window : int;
      pruned_resource : int;
      nodes : int;
      nogood_hits : int;
      backjumps : int;
      learned : int;
      reused : int;
    }
  | Outcome of { status : string; ii : int option; cert : string option }

let on = ref false
let buf : (int * event) list ref = ref [] (* newest first *)
let cur_loop = ref (-1)

(* Domain-local redirection for parallel compilation tasks: under
   {!collect} both the buffer and the loop stamp are private to the
   running task, so worker domains never race on the shared state and
   a task's [set_loop] cannot leak into other loops. The shared [on]
   flag is written before tasks are submitted (visibility via the
   [Domain.spawn] that starts each worker). *)
type local = { l_buf : (int * event) list ref; l_loop : int ref }

let local : local option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let enabled () = !on

let enable () =
  buf := [];
  cur_loop := -1;
  on := true

let disable () = on := false

let set_loop l =
  match !(Domain.DLS.get local) with
  | Some { l_loop; _ } -> l_loop := l
  | None -> cur_loop := l

let current_loop () =
  match !(Domain.DLS.get local) with
  | Some { l_loop; _ } -> !l_loop
  | None -> !cur_loop

let record e =
  if !on then
    match !(Domain.DLS.get local) with
    | Some { l_buf; l_loop } -> l_buf := (!l_loop, e) :: !l_buf
    | None -> buf := (!cur_loop, e) :: !buf

let collect f =
  let cell = Domain.DLS.get local in
  let prev = !cell in
  let b = { l_buf = ref []; l_loop = ref (-1) } in
  cell := Some b;
  Fun.protect
    ~finally:(fun () -> cell := prev)
    (fun () ->
      let v = f () in
      (v, List.rev !(b.l_buf)))

let inject evs =
  match !(Domain.DLS.get local) with
  | Some { l_buf; _ } -> List.iter (fun p -> l_buf := p :: !l_buf) evs
  | None -> List.iter (fun p -> buf := p :: !buf) evs

let events () = List.rev !buf

(* ---- JSON ---------------------------------------------------------- *)

let opt_int = function Some i -> Json.Int i | None -> Json.Null
let opt_str = function Some s -> Json.Str s | None -> Json.Null

let json_of_fail = function
  | Window_empty { lo; hi } ->
    [ ("fail", Json.Str "window-empty"); ("lo", Json.Int lo);
      ("hi", Json.Int hi) ]
  | No_slot { lo; hi; resource; slot } ->
    [ ("fail", Json.Str "no-slot"); ("lo", Json.Int lo); ("hi", Json.Int hi);
      ("resource", Json.Str resource); ("slot", Json.Int slot) ]
  | No_wrap { lo; hi } ->
    [ ("fail", Json.Str "no-wrap"); ("lo", Json.Int lo); ("hi", Json.Int hi) ]

let json_of_event (e : event) : Json.t =
  let k kind rest = Json.Obj (("kind", Json.Str kind) :: rest) in
  match e with
  | Bounds { res_mii; rec_mii; ctl_bound; mii; seq_len; binding; critical } ->
    k "bounds"
      [ ("res_mii", Json.Int res_mii); ("rec_mii", Json.Int rec_mii);
        ("ctl_bound", Json.Int ctl_bound); ("mii", Json.Int mii);
        ("seq_len", Json.Int seq_len); ("binding", Json.Str binding);
        ("critical", Json.Str critical) ]
  | Scc_order { comps } ->
    k "scc-order"
      [ ( "comps",
          Json.List
            (List.map
               (fun c -> Json.List (List.map (fun v -> Json.Int v) c))
               comps) ) ]
  | Probe_fail { s; unit_id; unit_desc; fail } ->
    k "probe-fail"
      ([ ("s", Json.Int s); ("unit", Json.Int unit_id);
         ("unit_desc", Json.Str unit_desc) ]
      @ json_of_fail fail)
  | Probe_ok { s; span; sc } ->
    k "probe-ok"
      [ ("s", Json.Int s); ("span", Json.Int span); ("sc", Json.Int sc) ]
  | Fuel_out { s } -> k "fuel-out" [ ("s", Json.Int s) ]
  | Compact_stall { unit_id; unit_desc; est; placed; resource } ->
    k "compact-stall"
      [ ("unit", Json.Int unit_id); ("unit_desc", Json.Str unit_desc);
        ("est", Json.Int est); ("placed", Json.Int placed);
        ("resource", Json.Str resource) ]
  | Mve_lifetime { reg; birth; death; q } ->
    k "mve-lifetime"
      [ ("reg", Json.Str reg); ("birth", Json.Int birth);
        ("death", Json.Int death); ("q", Json.Int q) ]
  | Mve_choice { unroll; mode; binding_reg; binding_q; fits } ->
    k "mve-choice"
      [ ("unroll", Json.Int unroll); ("mode", Json.Str mode);
        ("binding_reg", Json.Str binding_reg);
        ("binding_q", Json.Int binding_q); ("fits", Json.Bool fits) ]
  | Exact_probe
      { s; verdict; spent; pruned_window; pruned_resource; nodes;
        nogood_hits; backjumps; learned; reused } ->
    k "exact-probe"
      [ ("s", Json.Int s); ("verdict", Json.Str verdict);
        ("spent", Json.Int spent);
        ("pruned_window", Json.Int pruned_window);
        ("pruned_resource", Json.Int pruned_resource);
        ("nodes", Json.Int nodes);
        ("nogood_hits", Json.Int nogood_hits);
        ("backjumps", Json.Int backjumps);
        ("learned", Json.Int learned);
        ("reused", Json.Int reused) ]
  | Outcome { status; ii; cert } ->
    k "outcome"
      [ ("status", Json.Str status); ("ii", opt_int ii);
        ("certificate", opt_str cert) ]

(** Loop ids in order of first appearance (stamp [-1] = outside any
    loop, grouped last). *)
let loop_ids evs =
  let seen = Hashtbl.create ~random:false 8 in
  let ids =
    List.filter_map
      (fun (l, _) ->
        if Hashtbl.mem seen l then None
        else begin
          Hashtbl.replace seen l ();
          Some l
        end)
      evs
  in
  let inside, outside = List.partition (fun l -> l >= 0) ids in
  inside @ outside

let to_json () : Json.t =
  let evs = events () in
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ( "loops",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("loop", Json.Int l);
                   ( "events",
                     Json.List
                       (List.filter_map
                          (fun (l', e) ->
                            if l' = l then Some (json_of_event e) else None)
                          evs) );
                 ])
             (loop_ids evs)) );
    ]

(* ---- human report -------------------------------------------------- *)

let pp_fail ppf = function
  | Window_empty { lo; hi } ->
    Fmt.pf ppf "precedence window emptied (lo %d > hi %d)" lo hi
  | No_slot { lo; hi; resource; slot } ->
    Fmt.pf ppf "no slot in window [%d..%d]: '%s' full at residue %d" lo hi
      resource slot
  | No_wrap { lo; hi } ->
    Fmt.pf ppf
      "no slot in window [%d..%d]: wrap constraint (reduced construct \
       must fit one window)"
      lo hi

let pp_event ppf = function
  | Bounds { res_mii; rec_mii; ctl_bound; mii; seq_len; binding; critical } ->
    Fmt.pf ppf "MII %d = max(res %d, rec %d, ctl %d) — %s-bound%s; serial \
                restart %d"
      mii res_mii rec_mii ctl_bound binding
      (if critical = "" then "" else Printf.sprintf " (%s)" critical)
      seq_len
  | Scc_order { comps } ->
    Fmt.pf ppf "SCC scheduling order:";
    List.iter
      (fun c ->
        Fmt.pf ppf " {%s}"
          (String.concat " " (List.map string_of_int c)))
      comps
  | Probe_fail { s; unit_id; unit_desc; fail } ->
    Fmt.pf ppf "II %d failed: u%d '%s' — %a" s unit_id unit_desc pp_fail fail
  | Probe_ok { s; span; sc } ->
    Fmt.pf ppf "II %d feasible (span %d, %d stages)" s span sc
  | Fuel_out { s } -> Fmt.pf ppf "II %d: placement budget exhausted" s
  | Compact_stall { unit_id; unit_desc; est; placed; resource } ->
    Fmt.pf ppf "compaction: u%d '%s' stalled %d -> %d on '%s'" unit_id
      unit_desc est placed resource
  | Mve_lifetime { reg; birth; death; q } ->
    Fmt.pf ppf "MVE: %s live [%d..%d] -> q=%d" reg birth death q
  | Mve_choice { unroll; mode; binding_reg; binding_q; fits } ->
    Fmt.pf ppf "MVE: unroll u=%d (%s)%s%s" unroll mode
      (if binding_reg = "" then ""
       else Printf.sprintf ", forced by %s (q=%d)" binding_reg binding_q)
      (if fits then "" else " — REGISTER OVERFLOW")
  | Exact_probe
      { s; verdict; spent; pruned_window; pruned_resource; nodes;
        nogood_hits; backjumps; learned; reused } ->
    Fmt.pf ppf
      "exact: II %d %s (%d nodes, prunes: %d window / %d resource / %d \
       nogood, %d backjumps, learned %d, reused %d, %d fuel)"
      s verdict nodes pruned_window pruned_resource nogood_hits backjumps
      learned reused spent
  | Outcome { status; ii; cert } ->
    Fmt.pf ppf "outcome: %s%s%s" status
      (match ii with
      | Some ii -> Printf.sprintf " at II %d" ii
      | None -> "")
      (match cert with
      | Some c -> Printf.sprintf "; certificate: %s" c
      | None -> "")

let pp ppf () =
  let evs = events () in
  if evs = [] then Fmt.pf ppf "explain: no scheduling decisions recorded@."
  else
    List.iter
      (fun l ->
        if l >= 0 then Fmt.pf ppf "loop %d:@." l
        else Fmt.pf ppf "outside loops:@.";
        List.iter
          (fun (l', e) -> if l' = l then Fmt.pf ppf "  %a@." pp_event e)
          evs)
      (loop_ids evs)

let report () = Fmt.str "%a" pp ()

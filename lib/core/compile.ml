(* The compiler: hierarchical reduction driving software pipelining
   (paper Section 3), with the per-loop decisions the interface lists. *)

open Sp_ir
open Sp_machine
module Phase = Sp_obs.Phase

type certification =
  | Cert_optimal of { spent : int }
  | Cert_improved of { heur_ii : int; spent : int }
  | Cert_unknown of { spent : int; proven_below : int }

type certifier =
  Machine.t ->
  Ddg.t ->
  analysis:Modsched.analysis ->
  mii:int ->
  Modsched.schedule ->
  Modsched.schedule * certification

type cached_sched = {
  cs_schedule : Modsched.schedule;
  cs_stats : Modsched.stats;
  cs_cert : certification option;
}

type cache_probe = {
  cp_hit : cached_sched option;
  cp_commit : cached_sched -> unit;
}

type cache = {
  cache_probe : Machine.t -> Ddg.t -> mii:int -> max_ii:int -> cache_probe;
}

type config = {
  pipeline : bool;
  mve_mode : Mve.mode;
  search : Modsched.search;
  threshold : int;
  if_exclusive : bool;
  profit_margin : float;
  fuel : int option;
  certifier : certifier option;
  cache : cache option;
  jobs : int;
}

let default =
  {
    pipeline = true;
    mve_mode = Mve.Max_q;
    search = Modsched.Linear;
    threshold = 300;
    if_exclusive = false;
    profit_margin = 0.95;
    fuel = None;
    certifier = None;
    cache = None;
    jobs = 1;
  }

let local_only = { default with pipeline = false; if_exclusive = true }

(* ------------------------------------------------------------------ *)

type status =
  | Pipelined
  | Disabled
  | Over_threshold
  | Not_profitable
  | Register_overflow
  | Trip_too_small
  | Budget_exhausted
  | Degraded of string

let status_to_string = function
  | Pipelined -> "pipelined"
  | Disabled -> "disabled"
  | Over_threshold -> "over-threshold"
  | Not_profitable -> "not-profitable"
  | Register_overflow -> "register-overflow"
  | Trip_too_small -> "trip-too-small"
  | Budget_exhausted -> "budget-exhausted"
  | Degraded msg -> "degraded: " ^ msg

let is_degraded = function
  | Degraded _ | Budget_exhausted -> true
  | Pipelined | Disabled | Over_threshold | Not_profitable
  | Register_overflow | Trip_too_small -> false

type loop_report = {
  l_id : int;
  l_depth : int;
  n_units : int;
  has_if : bool;
  has_scc : bool;
  res_mii : int;
  rec_mii : int;
  mii : int;
  seq_len : int;
  ii : int option;
  sc : int;
  unroll : int;
  mve_fregs : int;
  mve_iregs : int;
  probed : int;
  fuel_spent : int;
  res_use : (string * int) list;
  cert : certification option;
  status : status;
  view : Sp_obs.Render.loop_view option;
}

let efficiency r =
  match r.ii with
  | Some ii when ii > 0 -> float_of_int r.mii /. float_of_int ii
  | _ -> 1.0

let cert_to_string = function
  | Cert_optimal { spent } -> Printf.sprintf "optimal (exact, %d fuel)" spent
  | Cert_improved { heur_ii; spent } ->
    Printf.sprintf "improved from heuristic ii=%d (exact, %d fuel)" heur_ii
      spent
  | Cert_unknown { spent; proven_below } ->
    Printf.sprintf "unknown (intervals < %d infeasible, budget out at %d)"
      proven_below spent

let pp_loop_report ppf r =
  Fmt.pf ppf
    "loop%d(depth %d): %d units%s%s mii=%d (res %d, rec %d) seq=%d %s%s%s"
    r.l_id r.l_depth r.n_units
    (if r.has_if then " +if" else "")
    (if r.has_scc then " +rec" else "")
    r.mii r.res_mii r.rec_mii r.seq_len
    (match r.ii with
    | Some ii -> Printf.sprintf "ii=%d sc=%d u=%d" ii r.sc r.unroll
    | None -> "not pipelined")
    (Printf.sprintf " [%s]" (status_to_string r.status))
    (match r.cert with
    | None -> ""
    | Some c -> Printf.sprintf " {cert: %s}" (cert_to_string c))

type result = {
  code : Sp_vliw.Prog.t;
  loops : loop_report list;
  code_size : int;
}

let fingerprint (r : result) =
  Sp_vliw.Prog.render (fun b ->
      Sp_vliw.Prog.to_buffer b r.code;
      Buffer.add_char b '|';
      List.iteri
        (fun k lr ->
          if k > 0 then Buffer.add_char b ';';
          Sp_util.Intmath.add_decimal b lr.l_id;
          Buffer.add_char b ':';
          (match lr.ii with
          | Some s -> Sp_util.Intmath.add_decimal b s
          | None -> Buffer.add_char b '-');
          Buffer.add_char b ':';
          Sp_util.Intmath.add_decimal b lr.mii;
          Buffer.add_char b ':';
          Buffer.add_string b (status_to_string lr.status))
        r.loops)

let listing (m : Machine.t) (p : Program.t) (r : result) =
  Sp_vliw.Prog.render (fun b ->
      Buffer.add_string b "; ";
      Buffer.add_string b p.Program.name;
      Buffer.add_string b ": ";
      Sp_util.Intmath.add_decimal b r.code_size;
      Buffer.add_string b " instructions for machine ";
      Buffer.add_string b m.Machine.name;
      Buffer.add_char b '\n';
      Sp_vliw.Prog.to_buffer b r.code)

(* ------------------------------------------------------------------ *)

type ctx = {
  m : Machine.t;
  cfg : config;
  vregs : Vreg.Supply.supply;
  ops : Op.Supply.supply;
  global_uses : int Sp_util.Itbl.t;
  global_defs : int Sp_util.Itbl.t;
  mutable reports : loop_report list;
  mutable next_loop : int;
  seq_rid : int;
  all_resources : (int * int) list;
      (** one entry per resource unit, at offset 0 *)
  pool : Sp_util.Pool.t;
      (** runs the analysis phase of sibling innermost loops, at width
          [cfg.jobs] *)
  on_compact : Ddg.t -> unit;
      (** sees every graph handed to {!Listsched.compact}
          ({!compaction_graphs}) *)
}

let bump_count tbl (v : Vreg.t) =
  Sp_util.Itbl.replace tbl v.Vreg.id
    (1 + Option.value ~default:0 (Sp_util.Itbl.find_opt tbl v.Vreg.id))

let count tbl (v : Vreg.t) =
  Option.value ~default:0 (Sp_util.Itbl.find_opt tbl v.Vreg.id)

let count_uses tbl (r : Region.t) =
  let bump = bump_count tbl in
  let rec go = function
    | Region.Ops ops -> List.iter (fun op -> List.iter bump (Op.reads op)) ops
    | Region.Seq rs -> List.iter go rs
    | Region.If { cond; then_; else_ } ->
      bump cond;
      go then_;
      go else_
    | Region.For { n; body; _ } ->
      (match n with Region.Reg v -> bump v | Region.Const _ -> ());
      go body
  in
  go r

let count_defs tbl (r : Region.t) =
  let bump = bump_count tbl in
  let rec go = function
    | Region.Ops ops -> List.iter (fun op -> List.iter bump (Op.writes op)) ops
    | Region.Seq rs -> List.iter go rs
    | Region.If { then_; else_; _ } ->
      go then_;
      go else_
    | Region.For { iv; body; _ } ->
      (* the synthesized counter init and per-iteration update *)
      bump iv;
      bump iv;
      go body
  in
  go r

let make_ctx ?(on_compact = ignore) (m : Machine.t) cfg (p : Program.t) =
  let global_uses = Sp_util.Itbl.create 256 in
  count_uses global_uses p.Program.body;
  let global_defs = Sp_util.Itbl.create 256 in
  count_defs global_defs p.Program.body;
  let seq_rid = (Machine.find_resource m "seq").Machine.rid in
  (* every datapath resource unit (at offset 0), excluding the
     sequencer — control constructs claim the sequencer separately for
     their whole length, and must not double-book it *)
  let all_resources =
    List.concat
      (List.init (Machine.num_resources m) (fun rid ->
           if rid = seq_rid then []
           else
             List.init (Machine.resource m rid).Machine.count (fun _ ->
                 (0, rid))))
  in
  {
    m;
    cfg;
    (* copies: compiling a program never changes it *)
    vregs = Vreg.Supply.copy p.Program.vregs;
    ops = Op.Supply.copy p.Program.ops;
    global_uses;
    global_defs;
    reports = [];
    next_loop = 0;
    seq_rid;
    all_resources;
    pool = Sp_util.Pool.create ~jobs:cfg.jobs;
    on_compact;
  }

(* A unit no schedule holds. OCaml 5 forces a minor collection to make
   an array of more than 256 words from a young element, so arrays of
   units are made from this long-lived one and then filled. *)
let filler =
  { Sunit.sid = -1; len = 1; uses = []; defs = []; mems = []; resv = [];
    payload =
      Sunit.P_loop
        { prolog = [||]; epilog = [||];
          mid = { emit_mid = (fun ~rename:_ ~depth:_ _ -> ()) } };
    no_wrap = false }

let renumber units =
  let a = Array.make (List.length units) filler in
  List.iteri (fun i (u : Sunit.t) -> a.(i) <- { u with Sunit.sid = i }) units;
  a

(** Conservative memory summary of a scheduled construct for the
    enclosing level: reads at entry, writes at entry and exit, unknown
    subscripts. *)
let summarize_mems (units : Sunit.t array) ~len =
  let segs = Hashtbl.create ~random:false 8 in
  Array.iter
    (fun u ->
      List.iter
        (fun (e : Sunit.mem_eff) ->
          let sid = e.Sunit.seg.Memseg.sid in
          Hashtbl.replace segs sid
            (match Hashtbl.find_opt segs sid with
            | None -> (e.Sunit.seg, not e.Sunit.write, e.Sunit.write)
            | Some (seg, r, w) ->
              (seg, r || not e.Sunit.write, w || e.Sunit.write)))
        (Ddg.effects u))
    units;
  Hashtbl.fold
    (fun _ (seg, r, w) acc ->
      let base =
        if r then
          [ { Sunit.seg; write = false; sub = None; at = 0; summary = true };
            { Sunit.seg; write = false; sub = None; at = Int.max 0 (len - 1);
              summary = true } ]
        else []
      in
      let wr =
        if w then
          [ { Sunit.seg; write = true; sub = None; at = 0; summary = true };
            { Sunit.seg; write = true; sub = None; at = Int.max 0 (len - 1);
              summary = true } ]
        else []
      in
      base @ wr @ acc)
    segs []

(* ------------------------------------------------------------------ *)
(* Reduction of conditionals                                           *)
(* ------------------------------------------------------------------ *)

(** Schedule a straight-line unit list as a basic block and produce its
    fragment, reservation profile and length. Basic blocks are
    compacted at the enclosing, loop-free level (a branch body or the
    program's top level), never inside a loop's analysis. *)
let compact_units ctx units ~pad_to =
  let arr = renumber units in
  let g =
    Phase.run ~loop:(-1) P_ddg (fun () ->
        Ddg.of_streams ~mve:false (Ddg.streams arr))
  in
  ctx.on_compact g;
  let p = Phase.run ~loop:(-1) P_compact (fun () -> Listsched.compact ctx.m g) in
  let len = Int.max p.Listsched.len pad_to in
  let frag =
    Phase.run ~loop:(-1) P_emit (fun () -> Emit.seq_frag arr p ~r_len:len)
  in
  (arr, p, frag, len)

(* Per-domain marks by register id for [reduce_if]'s one-sided-def
   test: [marks.(id)] is the current [stamp] (a multiple of 4), plus 1
   when the then-branch defines [id] and 2 when the else-branch does.
   An older stamp means neither does. *)
type def_marks = { mutable stamp : int; mutable marks : int array }

let def_marks = Domain.DLS.new_key (fun () -> { stamp = 0; marks = [||] })

let reduce_if ctx ~cond ~(then_units : Sunit.t list) ~(else_units : Sunit.t list)
    : Sunit.t =
  Phase.run ~loop:(-1) P_reduce @@ fun () ->
  let t_arr, t_pl, t_frag, t_len = compact_units ctx then_units ~pad_to:1 in
  let e_arr, e_pl, e_frag, e_len = compact_units ctx else_units ~pad_to:1 in
  let lb = Int.max t_len e_len in
  let len = 1 + lb in
  let exclusive_resv () =
    List.concat
      (List.init len (fun o ->
           (o, ctx.seq_rid)
           :: List.map (fun (_, r) -> (o, r)) ctx.all_resources))
  in
  let exact () =
    (* A branch that contains a loop expands at emission beyond its
       static length; every static operand/effect time inside it then
       under-approximates the dynamic one. Live-ins must stay valid
       until the construct's end, defs land only after it, and memory
       effects are pinned to both ends. *)
    let expanding =
      List.exists Sunit.expands then_units
      || List.exists Sunit.expands else_units
    in
    (* register uses/defs of a scheduled branch, shifted past the test
       slot *)
    let side (arr : Sunit.t array) (pl : Listsched.placement) =
      let uses = ref [] and defs = ref [] and mems = ref [] in
      Array.iteri
        (fun i (u : Sunit.t) ->
          let base = 1 + pl.Listsched.times.(i) in
          List.iter
            (fun (r, t) ->
              uses := (r, base + t) :: !uses;
              (* pinned past the end plus the maximum write latency: an
                 overwriting operation from another iteration must ISSUE
                 after the construct's last slot — its write lands a
                 dynamic latency after issue, and only issue order
                 survives the emission-time expansion *)
              if expanding then uses := (r, len + 7) :: !uses)
            u.Sunit.uses;
          List.iter
            (fun (r, t) ->
              let t' =
                if expanding then len + Int.max 0 (t - (u.Sunit.len - 1))
                else base + t
              in
              defs := (r, t') :: !defs)
            u.Sunit.defs;
          List.iter
            (fun (e : Sunit.mem_eff) ->
              mems := { e with Sunit.at = base + e.Sunit.at } :: !mems;
              if expanding then
                mems := { e with Sunit.at = len - 1 } :: !mems)
            (Ddg.effects u))
        arr;
      (!uses, !defs, !mems)
    in
    let t_uses, t_defs, t_mems = side t_arr t_pl in
    let e_uses, e_defs, e_mems = side e_arr e_pl in
    (* a register defined on one side only must stay valid across the
       other path: record it as used at entry as well *)
    let one_sided =
      let mk = Domain.DLS.get def_marks in
      mk.stamp <- mk.stamp + 4;
      let mark bit ((r : Vreg.t), _) =
        let id = r.Vreg.id in
        if id >= Array.length mk.marks then begin
          let a = Array.make (Int.max (id + 1) (2 * Array.length mk.marks)) 0 in
          Array.blit mk.marks 0 a 0 (Array.length mk.marks);
          mk.marks <- a
        end;
        let v = mk.marks.(id) in
        let v = if v land lnot 3 = mk.stamp then v else mk.stamp in
        mk.marks.(id) <- v lor bit
      in
      List.iter (mark 1) t_defs;
      List.iter (mark 2) e_defs;
      let only bit ((r : Vreg.t), _) = mk.marks.(r.Vreg.id) land bit = 0 in
      List.filter (only 2) t_defs @ List.filter (only 1) e_defs
    in
    let uses =
      ((cond, 0) :: t_uses)
      @ e_uses
      @ List.map (fun (r, _) -> (r, 0)) one_sided
    in
    (* A definition lands at a different time on each path; record it
       at both bounds, earliest first: output- and anti-dependences
       into the construct are drawn to a unit's first-listed def (the
       earliest any path's write can land), flow edges out of it from
       the last-listed (the latest). A single max-merged time would let
       a co-scheduled earlier write land inside the faster branch after
       that branch's own write. *)
    let defs =
      let h = Hashtbl.create ~random:false 16 in
      List.iter
        (fun ((r : Vreg.t), t) ->
          match Hashtbl.find_opt h r.Vreg.id with
          | Some (_, lo, hi) ->
            Hashtbl.replace h r.Vreg.id (r, Int.min lo t, Int.max hi t)
          | None -> Hashtbl.replace h r.Vreg.id (r, t, t))
        (t_defs @ e_defs);
      Hashtbl.fold
        (fun _ (r, lo, hi) acc ->
          if lo = hi then (r, hi) :: acc else (r, lo) :: (r, hi) :: acc)
        h []
    in
    let shift l = List.map (fun (o, r) -> (o + 1, r)) l in
    let resv =
      if ctx.cfg.if_exclusive then exclusive_resv ()
      else
        (* the construct claims the sequencer for its whole length; any
           sequencer claims inside the branches (nested constructs) are
           subsumed, and must not double-book the single unit *)
        List.filter
          (fun (_, r) -> r <> ctx.seq_rid)
          (Sunit.union_resv
             (shift (Emit.seq_resv t_arr t_pl))
             (shift (Emit.seq_resv e_arr e_pl)))
        @ List.init len (fun o -> (o, ctx.seq_rid))
    in
    (uses, defs, t_mems @ e_mems, resv)
  in
  (* Degraded decoration: every register either branch touches is live
     at entry and pinned past the construct's (dynamic) end, every def
     lands only after it, memory effects are summarized at both ends,
     and the construct claims every resource — nothing co-schedules
     with it, so the timing of whatever is inside cannot be violated
     by the surrounding schedule. *)
  let conservative msg =
    Sp_obs.Trace.instant "compile.reduce.degraded" ~args:(fun () ->
        [ ("reason", Sp_obs.Trace.S msg) ]);
    let both = Array.append t_arr e_arr in
    let regs = Hashtbl.create ~random:false 32 in
    Array.iter
      (fun (u : Sunit.t) ->
        List.iter
          (fun ((r : Vreg.t), _) -> Hashtbl.replace regs r.Vreg.id r)
          (u.Sunit.uses @ u.Sunit.defs))
      both;
    let uses =
      (cond, 0)
      :: Hashtbl.fold (fun _ r acc -> (r, 0) :: (r, len + 7) :: acc) regs []
    in
    let defs =
      let h = Hashtbl.create ~random:false 32 in
      Array.iter
        (fun (u : Sunit.t) ->
          List.iter
            (fun ((r : Vreg.t), _) -> Hashtbl.replace h r.Vreg.id r)
            u.Sunit.defs)
        both;
      Hashtbl.fold (fun _ r acc -> (r, len + 7) :: acc) h []
    in
    (uses, defs, summarize_mems both ~len, exclusive_resv ())
  in
  let uses, defs, mems, resv =
    try exact ()
    with e ->
      conservative
        (match e with
        | Sp_util.Fault.Injected site -> "fault injected at " ^ site
        | e -> Printexc.to_string e)
  in
  {
    Sunit.sid = 0;
    len;
    uses;
    defs;
    mems;
    resv;
    payload = Sunit.P_if { cond; then_ = t_frag; else_ = e_frag };
    no_wrap = true;
  }

(* ------------------------------------------------------------------ *)
(* Reduction of loops                                                  *)
(* ------------------------------------------------------------------ *)

let iconst_kinds = [ Sp_machine.Opkind.Iconst; Sp_machine.Opkind.Fconst ]

let is_hoistable (u : Sunit.t) =
  match u.Sunit.payload with
  | Sunit.P_op op ->
    List.mem op.Op.kind iconst_kinds && op.Op.srcs = [] && op.Op.addr = None
  | _ -> false

(** Validate a pipelined loop's fragments against the timing contract
    before committing to them. The linearized prolog ++ kernel ++
    epilog is exactly the dynamic instruction stream of a minimal-trip
    execution (one kernel pass), so checking it as a straight-line
    pseudo-program is sound. Fragments holding nested constructs
    (slots with control payloads) are skipped — their expansion is not
    straight-line, and the inner construct was already checked when it
    was reduced. *)
let validate_frags ctx (units : Sunit.t array) (pf : Emit.pipe_frags) :
    string option =
  (* Registers the loop reads before its first definition of them (in
     program order) enter the fragments holding a landed value from the
     enclosing level; without declaring them the straight-line check
     mistakes iteration-0 reads that legally overlap the first carried
     definition for displaced producers. *)
  let live_in =
    let decided = Sp_util.Itbl.create 16 and acc = ref [] in
    Array.iter
      (fun (u : Sunit.t) ->
        List.iter
          (fun ((r : Vreg.t), _) ->
            if not (Sp_util.Itbl.mem decided r.Vreg.id) then begin
              Sp_util.Itbl.replace decided r.Vreg.id ();
              acc := r :: !acc
            end)
          u.Sunit.uses;
        List.iter
          (fun ((r : Vreg.t), _) ->
            if not (Sp_util.Itbl.mem decided r.Vreg.id) then
              Sp_util.Itbl.replace decided r.Vreg.id ())
          u.Sunit.defs)
      units;
    !acc
  in
  let frags = [ pf.Emit.f_prolog; pf.Emit.f_kernel; pf.Emit.f_epilog ] in
  let straight =
    List.for_all
      (fun (f : Sunit.frag) ->
        Array.for_all (fun s -> Option.is_none s.Sunit.sctl) f)
      frags
  in
  if not straight then None
  else
    (* filled from the static [Inst.empty]: OCaml 5 forces a minor
       collection to make an array of more than 256 words from a young
       element *)
    let code =
      Array.make
        (List.fold_left (fun n f -> n + Array.length f) 0 frags)
        Sp_vliw.Inst.empty
    in
    let k = ref 0 in
    List.iter
      (Array.iter (fun (s : Sunit.slot) ->
           code.(!k) <-
             { Sp_vliw.Inst.ops = List.rev s.Sunit.sops;
               ctl = Sp_vliw.Inst.Next };
           incr k))
      frags;
    match
      Sp_vliw.Validate.check_timing ~live_in ctx.m { Sp_vliw.Prog.code }
    with
    | [] -> None
    | v :: _ -> Some (Fmt.str "%a" Sp_vliw.Validate.pp_violation v)

(** Flat visual-artifact record for {!Sp_obs.Render}: Gantt rows from
    the flat schedule, MRT occupancy by folding every reservation entry
    to its residue, lifetimes from the MVE allocations. *)
let render_view (m : Machine.t) ~l_id (units : Sunit.t array)
    (sched : Modsched.schedule) (mve : Mve.t) : Sp_obs.Render.loop_view =
  let s = sched.Modsched.s in
  let nres = Machine.num_resources m in
  let grid = Array.make_matrix nres s 0 in
  Array.iteri
    (fun i (u : Sunit.t) ->
      List.iter
        (fun (off, rid) ->
          let slot = ((sched.Modsched.times.(i) + off) mod s + s) mod s in
          grid.(rid).(slot) <- grid.(rid).(slot) + 1)
        u.Sunit.resv)
    units;
  let v_mrt =
    List.init nres (fun rid ->
        let r = Machine.resource m rid in
        {
          Sp_obs.Render.rr_name = r.Machine.rname;
          rr_limit = r.Machine.count;
          rr_counts = grid.(rid);
        })
  in
  let v_ops =
    Array.to_list
      (Array.mapi
         (fun i (u : Sunit.t) ->
           let t = sched.Modsched.times.(i) in
           {
             Sp_obs.Render.op_id = i;
             op_desc = Fmt.str "%a" Sunit.pp u;
             op_time = t;
             op_len = u.Sunit.len;
             op_stage = t / s;
           })
         units)
  in
  let v_lifetimes =
    List.map
      (fun (a : Mve.alloc) ->
        {
          Sp_obs.Render.lf_reg = Vreg.to_string a.Mve.reg;
          lf_birth = a.Mve.birth;
          lf_death = a.Mve.death;
          lf_q = a.Mve.q;
        })
      mve.Mve.allocs
  in
  {
    Sp_obs.Render.v_loop = l_id;
    v_ii = s;
    v_span = sched.Modsched.span;
    v_sc = sched.Modsched.sc;
    v_unroll = mve.Mve.unroll;
    v_ops;
    v_mrt;
    v_lifetimes;
  }

(* The per-loop pipeline is split into three phases so sibling
   innermost loops can be analyzed in parallel without perturbing any
   observable output:

   - {b prelude} (sequential, at discovery): allocate the loop id and
     the synthesized induction ops — everything that draws from the
     compile's vreg/op supplies before analysis;
   - {b analysis} ([loop_analyze], parallelizable): dependence graphs,
     serial compaction, interval bounds, the fueled interval search and
     the optional certifier — pure with respect to the supplies, so
     sibling loops can run it on worker domains;
   - {b finish} (sequential, in loop order): modulo variable expansion
     (which allocates expanded registers), fragment emission,
     validation, reporting and unit construction.

   The supplies are only touched in preludes (discovery order) and
   finishes (loop order), both fixed by the program shape — so
   register/op numbering, and with it every byte of emitted code and
   every report, is identical for any pool width. *)

type prelude = {
  pr_l_id : int;
  pr_iv : Vreg.t;
  pr_n : Region.bound;
  pr_depth : int;
  pr_units : Sunit.t array;
  pr_hoisted : Sunit.t list;
  pr_one_op : Op.t;
  pr_body_uses : int Sp_util.Itbl.t;
      (** AST-level use counts of the loop's body region — same walker
          as [ctx.global_uses], so comparing the two is well-defined.
          Unit-level counting would disagree: reductions add synthetic
          use entries (live-in pins, one-sided-branch keeps) that
          inflate a register's local count past its real one, hiding
          outside uses from the live-out test. *)
}

(** Outcome of the analysis phase's interval search. *)
type searched =
  | S_fail of status * Modsched.stats option
  | S_sched of Modsched.schedule * Modsched.stats * certification option

(** Everything the finish phase needs from the analysis phase. *)
type staged = {
  sg_seq_len : int;
  sg_seq_body : Sunit.frag;
  sg_g_mve : Ddg.t;
  sg_mii : Mii.t;
  sg_res_use : (string * int) list;
  sg_has_if : bool;
  sg_has_scc : bool;
  sg_has_inner_loop : bool;
  sg_search : searched;
  sg_commit : (cached_sched -> unit) option;
      (** schedule-cache commit for this loop, to be called once from
          the sequential finish phase if the loop pipelines *)
}

let loop_prelude ctx ~(iv : Vreg.t) ~(n : Region.bound) ~(body : Region.t)
    ~depth (body_units : Sunit.t list) : prelude =
  let l_id = ctx.next_loop in
  ctx.next_loop <- l_id + 1;
  Phase.run ~loop:l_id P_reduce @@ fun () ->
  (* Hoist loop-invariant constants to the enclosing level. Moving a
     body definition [r := const] before the loop is only sound when
     every execution observes the same values it did in place:
       - [r] has no other definition in the body (an inner loop's
         counter is initialized by a constant yet redefined by its
         update, and must be re-initialized every iteration);
       - no body unit before the definition reads [r] — otherwise
         iteration 0 must see the pre-loop value, not the constant;
       - [r] has no definition elsewhere in the program, and either the
         loop is statically known to run at least once or every read of
         [r] in the whole program happens inside this body — otherwise
         a zero-trip execution would leak the constant to code after
         the loop. Registers synthesized after the whole-program count
         (inner-loop plumbing) are local by construction and pass. *)
  let def_counts = Sp_util.Itbl.create 32 in
  List.iter
    (fun (u : Sunit.t) ->
      List.iter (fun (r, _) -> bump_count def_counts r) u.Sunit.defs)
    body_units;
  let body_uses = Sp_util.Itbl.create 32 in
  let first_use = Sp_util.Itbl.create 32 in
  List.iteri
    (fun i (u : Sunit.t) ->
      List.iter
        (fun ((r : Vreg.t), _) ->
          bump_count body_uses r;
          if not (Sp_util.Itbl.mem first_use r.Vreg.id) then
            Sp_util.Itbl.replace first_use r.Vreg.id i)
        u.Sunit.uses)
    body_units;
  let trip_ge_1 = match n with Region.Const k -> k >= 1 | Region.Reg _ -> false in
  let safe_to_hoist i (u : Sunit.t) =
    is_hoistable u
    && List.for_all
         (fun ((r : Vreg.t), _) ->
           let id = r.Vreg.id in
           count def_counts r = 1
           && (match Sp_util.Itbl.find_opt first_use id with
              | Some j -> j >= i
              | None -> true)
           && ((not
                  (Sp_util.Itbl.mem ctx.global_defs id
                  || Sp_util.Itbl.mem ctx.global_uses id))
              || count ctx.global_defs r = 1
                 && (trip_ge_1 || count ctx.global_uses r = count body_uses r)))
         u.Sunit.defs
  in
  let hoisted, body_units =
    let hp, bp =
      List.partition
        (fun (i, u) -> safe_to_hoist i u)
        (List.mapi (fun i u -> (i, u)) body_units)
    in
    (List.map snd hp, List.map snd bp)
  in
  (* synthesize the induction update: iv := iv + 1 *)
  let one = Vreg.Supply.fresh ctx.vregs ~name:"one" Vreg.I in
  let one_op =
    Op.Supply.mk ctx.ops ~dst:one ~imm:(Op.Iimm 1) Sp_machine.Opkind.Iconst
  in
  let upd_op =
    Op.Supply.mk ctx.ops ~dst:iv ~srcs:[ iv; one ] Sp_machine.Opkind.Aadd
  in
  let body_units = body_units @ [ Sunit.of_op ctx.m ~sid:0 upd_op ] in
  let units = renumber body_units in
  let ast_uses = Sp_util.Itbl.create 64 in
  count_uses ast_uses body;
  {
    pr_l_id = l_id;
    pr_iv = iv;
    pr_n = n;
    pr_depth = depth;
    pr_units = units;
    pr_hoisted = hoisted;
    pr_one_op = one_op;
    pr_body_uses = ast_uses;
  }

let loop_analyze ctx (pre : prelude) : staged =
  let l_id = pre.pr_l_id in
  let units = pre.pr_units in
  Phase.enter_loop l_id;
  (* live-out test: used more often in the whole program than inside
     the loop's body region — both counts taken by the same AST walker
     ([count_uses]), so the comparison is exact *)
  let live_out r = count ctx.global_uses r > count pre.pr_body_uses r in
  (* full dependence graph: serial restart interval and fallback body.
     Its access streams also serve the pipelining graph below. *)
  let streams, g_full =
    Phase.run ~loop:l_id P_ddg (fun () ->
        let s = Ddg.streams units in
        (s, Ddg.of_streams ~mve:false s))
  in
  ctx.on_compact g_full;
  let pl, seq_len =
    Phase.run ~loop:l_id P_compact (fun () ->
        let pl = Listsched.compact ctx.m g_full in
        (pl, Listsched.restart_interval g_full pl))
  in
  let seq_body =
    Phase.run ~loop:l_id P_emit (fun () ->
        Emit.seq_frag units pl ~r_len:seq_len)
  in
  (* pipelining graph: carried deps on expandable variables removed,
     in the order the interval search reads *)
  let g_mve =
    Phase.run ~loop:l_id P_ddg (fun () ->
        Ddg.ordered
          (Ddg.of_streams ~mve:(ctx.cfg.mve_mode <> Mve.Off) ~live_out
             streams))
  in
  let analysis, mii =
    Phase.run ~loop:l_id P_bounds (fun () ->
        let analysis = Modsched.analyze ~s_max:seq_len g_mve in
        ( analysis,
          Mii.compute ctx.m units ~rec_mii:analysis.Modsched.a_rec_mii ))
  in
  let scc = analysis.Modsched.a_scc in
  (* a reduced control construct must fit strictly inside one s-window
     (see Modsched.wrap_ok), so its length + 1 is a genuine lower bound
     on the initiation interval for this machine *)
  let ctl_bound =
    Array.fold_left
      (fun acc (u : Sunit.t) ->
        if u.Sunit.no_wrap then Int.max acc (u.Sunit.len + 1) else acc)
      1 units
  in
  let mii = { mii with Mii.mii = Int.max mii.Mii.mii ctl_bound } in
  let res_use = Mii.per_resource ctx.m units in
  if Sp_obs.Explain.enabled () then begin
    let binding =
      if mii.Mii.mii = ctl_bound && ctl_bound > mii.Mii.res_mii
         && ctl_bound > mii.Mii.rec_mii
      then "control"
      else if mii.Mii.rec_mii > mii.Mii.res_mii then "recurrence"
      else "resource"
    in
    let critical =
      (* busiest resource: the one whose per-iteration demand, divided
         by its unit count, is largest — the numerator of res_mii *)
      match
        List.sort (fun (_, a) (_, b) -> compare b a) res_use
      with
      | (r, u) :: _ -> Printf.sprintf "%s (%d slots/iter)" r u
      | [] -> "none"
    in
    Sp_obs.Explain.record
      (Sp_obs.Explain.Bounds
         {
           res_mii = mii.Mii.res_mii;
           rec_mii = mii.Mii.rec_mii;
           ctl_bound;
           mii = mii.Mii.mii;
           seq_len;
           binding;
           critical;
         });
    let comps =
      List.filter_map
        (fun c ->
          if scc.Scc.nontrivial.(c) then Some scc.Scc.comps.(c) else None)
        (Scc.topo_components scc)
    in
    if comps <> [] then
      Sp_obs.Explain.record (Sp_obs.Explain.Scc_order { comps })
  end;
  let has_if =
    Array.exists
      (fun (u : Sunit.t) ->
        match u.Sunit.payload with Sunit.P_if _ -> true | _ -> false)
      units
  in
  let has_inner_loop =
    Array.exists
      (fun (u : Sunit.t) ->
        match u.Sunit.payload with Sunit.P_loop _ -> true | _ -> false)
      units
  in
  let has_scc =
    (* a genuine recurrence: a dependence cycle involving something
       other than the counter bookkeeping (the address-unit copy and
       update every loop carries) *)
    let bookkeeping v =
      match units.(v).Sunit.payload with
      | Sunit.P_op op -> (
        match op.Op.kind with
        | Sp_machine.Opkind.Aadd | Sp_machine.Opkind.Amov -> true
        | _ -> false)
      | _ -> false
    in
    Array.exists2
      (fun nontrivial members ->
        nontrivial && List.exists (fun v -> not (bookkeeping v)) members)
      scc.Scc.nontrivial scc.Scc.comps
  in
  (* ---- pipelining decision: interval search ----------------------- *)
  (* Every step of the attempt — interval search, certification, and
     later modulo variable expansion, fragment expansion and fragment
     validation in the finish phase — runs inside a guard: whatever
     goes wrong (an exhausted budget, an injected fault, an internal
     error, fragments that fail the timing contract), this loop alone
     degrades to the serial schedule already in hand and compilation
     continues. *)
  let search, commit =
    if not ctx.cfg.pipeline then (S_fail (Disabled, None), None)
    else if seq_len > ctx.cfg.threshold then
      (S_fail (Over_threshold, None), None)
    else if
      float_of_int mii.Mii.mii
      >= ctx.cfg.profit_margin *. float_of_int seq_len
    then (S_fail (Not_profitable, None), None)
    else
      try
        (* schedule cache: a read-only probe — eligible loops ask the
           cache for a previously adopted schedule of a structurally
           identical (DDG, machine) pair before paying for the interval
           search. Probes may run concurrently (the analyze phase is
           parallel); the matching commit is deferred to the sequential
           finish phase, so the cache's contents evolve in loop order
           and the output stays byte-identical at any job count.
           Explain mode bypasses the cache: a replayed schedule records
           no probe events, and the decision log must not depend on
           what some earlier compilation happened to insert. *)
        let probe =
          match ctx.cfg.cache with
          | Some c when not (Sp_obs.Explain.enabled ()) ->
            Some
              (Phase.run ~loop:l_id P_cache (fun () ->
                   c.cache_probe ctx.m g_mve ~mii:mii.Mii.mii
                     ~max_ii:(seq_len - 1)))
          | _ -> None
        in
        let commit = Option.map (fun p -> p.cp_commit) probe in
        match probe with
        | Some { cp_hit = Some cs; _ }
          when (cs.cs_cert = None) = (ctx.cfg.certifier = None) ->
          (* replay only when the cached certification level matches the
             requested one — a certified run must not report an entry
             cached without a certificate, nor vice versa *)
          (S_sched (cs.cs_schedule, cs.cs_stats, cs.cs_cert), commit)
        | _ -> (
          match
            Phase.run ~loop:l_id P_search (fun () ->
                Modsched.schedule_with_budget ~search:ctx.cfg.search ~analysis
                  ?fuel:ctx.cfg.fuel ctx.m g_mve ~mii:mii.Mii.mii
                  ~max_ii:(seq_len - 1))
          with
          | Modsched.No_interval stats ->
            (S_fail (Not_profitable, Some stats), None)
          | Modsched.Fuel_exhausted stats ->
            (S_fail (Budget_exhausted, Some stats), None)
          | Modsched.Scheduled (sched, stats) ->
            (* optimality oracle: may replace the heuristic schedule with
               a proven-better one; either way the adopted schedule flows
               through the same MVE / emission / validation path in the
               finish phase *)
            let sched, cert =
              match ctx.cfg.certifier with
              | None -> (sched, None)
              | Some certify ->
                let sched', c =
                  Phase.run ~loop:l_id P_certify (fun () ->
                      certify ctx.m g_mve ~analysis ~mii:mii.Mii.mii sched)
                in
                (sched', Some c)
            in
            (S_sched (sched, stats, cert), commit))
      with
      | Sp_util.Fault.Injected site ->
        (S_fail (Degraded ("fault injected at " ^ site), None), None)
      | e -> (S_fail (Degraded (Printexc.to_string e), None), None)
  in
  {
    sg_seq_len = seq_len;
    sg_seq_body = seq_body;
    sg_g_mve = g_mve;
    sg_mii = mii;
    sg_res_use = res_use;
    sg_has_if = has_if;
    sg_has_scc = has_scc;
    sg_has_inner_loop = has_inner_loop;
    sg_search = search;
    sg_commit = commit;
  }

let loop_finish ctx (pre : prelude) (sg : staged) : Sunit.t list =
  let l_id = pre.pr_l_id in
  let units = pre.pr_units in
  let n = pre.pr_n in
  let g_mve = sg.sg_g_mve in
  let mii = sg.sg_mii in
  let seq_len = sg.sg_seq_len in
  let seq_body = sg.sg_seq_body in
  let has_if = sg.sg_has_if in
  let has_scc = sg.sg_has_scc in
  let res_use = sg.sg_res_use in
  Phase.enter_loop l_id;
  (* ---- pipelining decision: expansion and validation --------------- *)
  let attempt =
    match sg.sg_search with
    | S_fail (status, stats) -> Error (status, stats)
    | S_sched (sched, stats, cert) -> (
      try
        let mve =
          Phase.run ~loop:l_id P_mve (fun () ->
              Mve.compute ~mode:ctx.cfg.mve_mode ctx.m g_mve sched
                ~supply:ctx.vregs)
        in
        if sg.sg_has_inner_loop && mve.Mve.unroll > 1 then
          (* pipelining around an inner loop only overlaps the outer
             bookkeeping with the inner prolog/epilog; replicating the
             whole inner loop per kernel copy is never worth the code
             size (Section 2.4's concern) *)
          Error (Not_profitable, Some stats)
        else if not mve.Mve.fits then Error (Register_overflow, Some stats)
        else
          match n with
          | Region.Const k when k - (sched.Modsched.sc - 1) < mve.Mve.unroll ->
            Error (Trip_too_small, Some stats)
          | _ -> (
            let pf =
              Phase.run ~loop:l_id P_emit (fun () ->
                  Emit.pipe_frags units sched mve)
            in
            match
              Phase.run ~loop:l_id P_validate (fun () ->
                  validate_frags ctx units pf)
            with
            | Some msg -> Error (Degraded msg, Some stats)
            | None -> Ok (sched, mve, pf, stats, cert))
      with
      | Sp_util.Fault.Injected site ->
        Error (Degraded ("fault injected at " ^ site), None)
      | e -> Error (Degraded (Printexc.to_string e), None))
  in
  (* ---- payload construction: the reduced loop node ----------------- *)
  Phase.run ~loop:l_id P_reduce @@ fun () ->
  let seq_count =
    match n with
    | Region.Const k -> Emit.Known k
    | Region.Reg v -> Emit.Runtime v
  in
  (* Empty words separating two schedules stitched back to back (the
     drained pipeline and the serial remainder, or the peeled serial
     iterations and the prolog). Each schedule is internally
     latency-correct, but a write issued near the end of the first may
     still be in flight when the second begins reading; the pad covers
     the longest write latency any body unit can leave in flight. *)
  let drain_pad =
    let d =
      Array.fold_left
        (fun acc (u : Sunit.t) ->
          List.fold_left
            (fun a ((_ : Vreg.t), t) -> Int.max a t)
            acc u.Sunit.defs)
        1 units
    in
    d - 1
  in
  let emit_drain asm =
    for _ = 1 to drain_pad do
      Sp_vliw.Prog.Asm.inst asm []
    done
  in
  let mk_unit ~prolog ~epilog ~prolog_resv ~epilog_resv ~(mid : Sunit.mid_emit)
      : Sunit.t =
    let plen = Array.length prolog and elen = Array.length epilog in
    let len = plen + 1 + elen in
    let uses =
      let h = Hashtbl.create ~random:false 32 in
      Array.iter
        (fun (u : Sunit.t) ->
          List.iter
            (fun ((r : Vreg.t), _) ->
              if not (Vreg.Set.mem r g_mve.Ddg.mve_candidates) then
                Hashtbl.replace h r.Vreg.id r)
            u.Sunit.uses)
        units;
      (match n with Region.Reg v -> Hashtbl.replace h v.Vreg.id v | _ -> ());
      (* live-ins are needed from the start and must survive until the
         dynamic end of the loop (plus the maximum write latency, so
         overwriters from other iterations issue after the node) *)
      Hashtbl.fold
        (fun _ r acc -> (r, 0) :: (r, len + 7) :: acc)
        h []
    in
    let defs =
      (* Each register the body defines is recorded at two times. The
         late bound: a value may land in the register file up to its
         write latency after the loop's final instruction, and code
         after the loop must not read a stale value, so the def carries
         that overhang past the node's length. The early bound: the
         loop's first pass can land the write as soon as the def's
         unit-relative latency after the node begins, so preceding
         in-flight writes (write-port conflicts) and preceding reads
         (anti-dependences) at the enclosing level must resolve before
         that — the static length of the node understates its dynamic
         expansion, which makes the late bound alone unsound for
         those edges. *)
      let h = Hashtbl.create ~random:false 32 in
      Array.iter
        (fun (u : Sunit.t) ->
          List.iter
            (fun ((r : Vreg.t), t) ->
              let over = Int.max 0 (t - u.Sunit.len + 1) in
              match Hashtbl.find_opt h r.Vreg.id with
              | Some (_, o, e) ->
                Hashtbl.replace h r.Vreg.id (r, Int.max o over, Int.min e t)
              | None -> Hashtbl.replace h r.Vreg.id (r, over, t))
            u.Sunit.defs)
        units;
      (* The early entry must precede the late one in the access
         stream: the dependence builder draws output and anti edges to
         a unit's first-listed def, and flow edges from its last. *)
      Hashtbl.fold
        (fun _ (r, over, early) acc ->
          (r, early) :: (r, len + over) :: acc)
        h []
    in
    let mems = summarize_mems units ~len in
    let resv =
      (* nested constructs' sequencer claims are subsumed by this
         node's blanket claim *)
      List.filter
        (fun (_, r) -> r <> ctx.seq_rid)
        (prolog_resv
        @ List.map (fun (o, r) -> (o + plen + 1, r)) epilog_resv)
      @ List.map (fun (_, r) -> (plen, r)) ctx.all_resources
      @ List.init len (fun o -> (o, ctx.seq_rid))
    in
    {
      Sunit.sid = 0;
      len;
      uses;
      defs;
      mems;
      resv;
      payload =
        Sunit.P_loop
          { prolog = (if plen = 0 then [||] else prolog);
            epilog = (if elen = 0 then [||] else epilog);
            mid };
      no_wrap = true;
    }
  in
  let report ?cert ?view
      ?(stats = { Modsched.intervals_probed = 0; fuel_spent = 0 })
      ~ii ~sc ~unroll ~mf ~mi status =
    if Sp_obs.Explain.enabled () then
      Sp_obs.Explain.record
        (Sp_obs.Explain.Outcome
           {
             status = status_to_string status;
             ii;
             cert = Option.map cert_to_string cert;
           });
    ctx.reports <-
      {
        l_id;
        l_depth = pre.pr_depth;
        n_units = Array.length units;
        has_if;
        has_scc;
        res_mii = mii.Mii.res_mii;
        rec_mii = mii.Mii.rec_mii;
        mii = mii.Mii.mii;
        seq_len;
        ii;
        sc;
        unroll;
        mve_fregs = mf;
        mve_iregs = mi;
        probed = stats.Modsched.intervals_probed;
        fuel_spent = stats.Modsched.fuel_spent;
        res_use;
        cert;
        status;
        view;
      }
      :: ctx.reports
  in
  let loop_unit =
    match attempt with
    | Error (status, stats) ->
      report ?stats ~ii:None ~sc:0 ~unroll:1 ~mf:0 ~mi:0 status;
      let mid =
        {
          Sunit.emit_mid =
            (fun ~rename ~depth asm ->
              Emit.emit_counted_loop asm ~rename ~depth ~count:seq_count
                seq_body);
        }
      in
      mk_unit ~prolog:[||] ~epilog:[||] ~prolog_resv:[] ~epilog_resv:[] ~mid
    | Ok (sched, mve, pf, stats, cert) ->
      let view =
        if Sp_obs.Render.enabled () then
          Some (render_view ctx.m ~l_id units sched mve)
        else None
      in
      report ?cert ?view ~stats
        ~ii:(Some sched.Modsched.s)
        ~sc:sched.Modsched.sc ~unroll:mve.Mve.unroll ~mf:mve.Mve.fregs
        ~mi:mve.Mve.iregs Pipelined;
      (* the loop pipelined and its fragments validated: commit the
         adopted schedule to the cache (insert on a miss, refresh
         recency on a hit). Runs here — in the sequential finish phase,
         in loop order — so cache evolution is job-count-independent.
         A cache failure must never break a compilation that already
         succeeded. *)
      (match sg.sg_commit with
      | None -> ()
      | Some commit -> (
        try
          commit
            { cs_schedule = sched; cs_stats = stats; cs_cert = cert }
        with e ->
          Sp_obs.Trace.instant "cache.commit_failed" ~args:(fun () ->
              [ ("loop", Sp_obs.Trace.I l_id);
                ("error", Sp_obs.Trace.S (Printexc.to_string e)) ])));
      let sc = pf.Emit.sc and u = pf.Emit.unroll in
      (match n with
      | Region.Const k ->
        let r = (k - (sc - 1)) mod u in
        let nn = k - r in
        let passes = (nn - (sc - 1)) / u in
        if r = 0 then
          (* clean split: expose prolog and epilog for overlap *)
          let mid =
            {
              Sunit.emit_mid =
                (fun ~rename ~depth asm ->
                  Emit.emit_kernel asm ~rename ~depth ~passes:(Emit.Known passes)
                    pf.Emit.f_kernel);
            }
          in
          mk_unit ~prolog:pf.Emit.f_prolog ~epilog:pf.Emit.f_epilog
            ~prolog_resv:pf.Emit.prolog_resv ~epilog_resv:pf.Emit.epilog_resv
            ~mid
        else
          (* remainder iterations run serially after the drained pipeline *)
          let mid =
            {
              Sunit.emit_mid =
                (fun ~rename ~depth asm ->
                  Emit.emit_slots asm ~rename ~depth pf.Emit.f_prolog
                    ~extras:Emit.no_extras;
                  Emit.emit_kernel asm ~rename ~depth ~passes:(Emit.Known passes)
                    pf.Emit.f_kernel;
                  Emit.emit_slots asm ~rename ~depth pf.Emit.f_epilog
                    ~extras:Emit.no_extras;
                  emit_drain asm;
                  Emit.emit_counted_loop asm ~rename ~depth ~count:(Emit.Known r)
                    seq_body);
            }
          in
          mk_unit ~prolog:[||] ~epilog:[||] ~prolog_resv:[] ~epilog_resv:[]
            ~mid
      | Region.Reg nreg ->
        (* run-time two-version scheme (Section 2.4) *)
        let mk k ?dst ?srcs ?imm () = Op.Supply.mk ctx.ops ?dst ?srcs ?imm k in
        let fresh nm = Vreg.Supply.fresh ctx.vregs ~name:nm Vreg.I in
        let c_sc1 = fresh "sc1" and c_u = fresh "u" in
        let t1 = fresh "t1" and cflag = fresh "small" in
        let rrem = fresh "rem" and qpass = fresh "passes" in
        let setup1 =
          [
            mk Sp_machine.Opkind.Iconst ~dst:c_sc1 ~imm:(Op.Iimm (sc - 1)) ();
            mk Sp_machine.Opkind.Iconst ~dst:c_u ~imm:(Op.Iimm u) ();
            mk Sp_machine.Opkind.Isub ~dst:t1 ~srcs:[ nreg; c_sc1 ] ();
            mk (Sp_machine.Opkind.Icmp Sp_machine.Opkind.Lt) ~dst:cflag
              ~srcs:[ t1; c_u ] ();
          ]
        in
        let setup2 =
          [
            mk Sp_machine.Opkind.Imod ~dst:rrem ~srcs:[ t1; c_u ] ();
            mk Sp_machine.Opkind.Idiv ~dst:qpass ~srcs:[ t1; c_u ] ();
          ]
        in
        let mid =
          {
            Sunit.emit_mid =
              (fun ~rename ~depth asm ->
                let module A = Sp_vliw.Prog.Asm in
                let l_seq = A.fresh_label asm in
                let l_done = A.fresh_label asm in
                Emit.emit_op_chain asm ctx.m ~rename setup1;
                (* the flag lands one cycle after the compare issues:
                   the branch must sit in a later instruction *)
                A.inst asm
                  ~ctl:
                    (Sp_vliw.Inst.CJump
                       { cond = rename cflag; if_zero = false; target = l_seq })
                  [];
                Emit.emit_op_chain asm ctx.m ~rename setup2;
                (* peel (n - (sc-1)) mod u iterations serially first *)
                Emit.emit_counted_loop asm ~rename ~depth
                  ~count:(Emit.Runtime rrem) seq_body;
                emit_drain asm;
                (* the pass counter is loaded before the prolog: the
                   prolog->kernel seam is part of the modulo timeline
                   and must not gain an extra instruction *)
                Emit.preset_counter asm ~rename ~depth
                  ~passes:(Emit.Runtime qpass);
                Emit.emit_slots asm ~rename ~depth pf.Emit.f_prolog
                  ~extras:Emit.no_extras;
                Emit.emit_kernel ~preset:true asm ~rename ~depth
                  ~passes:(Emit.Runtime qpass) pf.Emit.f_kernel;
                Emit.emit_slots asm ~rename ~depth pf.Emit.f_epilog
                  ~extras:Emit.no_extras;
                A.attach_ctl asm (Sp_vliw.Inst.Jump l_done);
                A.place asm l_seq;
                Emit.emit_counted_loop asm ~rename ~depth
                  ~count:(Emit.Runtime nreg) seq_body;
                A.place asm l_done);
          }
        in
        mk_unit ~prolog:[||] ~epilog:[||] ~prolog_resv:[] ~epilog_resv:[]
          ~mid)
  in
  (* the induction variable starts at zero; initialization happens at
     the enclosing level, before the loop node *)
  let init_op =
    Op.Supply.mk ctx.ops ~dst:pre.pr_iv ~imm:(Op.Iimm 0)
      Sp_machine.Opkind.Iconst
  in
  (* whatever is scheduled next belongs to the enclosing level *)
  Phase.enter_loop (-1);
  List.map (Sunit.of_op ctx.m ~sid:0) [ pre.pr_one_op; init_op ]
  @ pre.pr_hoisted
  @ [ loop_unit ]

(** Reduce one loop fully inline (prelude, analysis, finish on the
    calling domain, recording straight into the ambient observability
    buffers). Used for non-innermost loops — their bodies were already
    reduced, so there is nothing to overlap them with. *)
let reduce_loop ctx ~iv ~n ~body ~depth (body_units : Sunit.t list) :
    Sunit.t list =
  let pre = loop_prelude ctx ~iv ~n ~body ~depth body_units in
  loop_finish ctx pre (loop_analyze ctx pre)

(* ------------------------------------------------------------------ *)
(* Region recursion                                                    *)
(* ------------------------------------------------------------------ *)

(* Innermost loops are not reduced at discovery: their prelude runs
   immediately (fixing the loop id and the supply draw order), and the
   analysis is deferred into a batch so independent sibling loops can
   run it concurrently. A batch is flushed — analyses executed, then
   finishes applied in loop order — whenever an enclosing construct
   needs the reduced units. *)
type item = Now of Sunit.t list | Later of prelude

let flush_items ctx (items : item list) : Sunit.t list =
  let pendings =
    List.filter_map (function Later p -> Some p | Now _ -> None) items
  in
  match pendings with
  | [] ->
    List.concat_map (function Now us -> us | Later _ -> assert false) items
  | _ ->
    (* Each analysis task runs under [Phase.capture] (trace events,
       explain events, cost profile): the recordings are replayed in
       loop order below, so the buffers end up byte-identical to a fully
       sequential run — whether the tasks ran on one domain or many. An
       analysis that raises is captured as [Error] so its partial
       recording survives: the merge loop replays everything recorded up
       to and including the failing loop before re-raising, leaving
       failed loops attributable instead of blank. *)
    let task (pre : prelude) =
      Phase.capture (fun () ->
          match loop_analyze ctx pre with
          | sg -> Ok sg
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    let tasks = List.map task pendings in
    let staged =
      (* fault injection counts hits globally in call order; keep it
         deterministic by running armed batches sequentially *)
      if Sp_util.Fault.is_armed () then List.map (fun f -> f ()) tasks
      else Sp_util.Pool.run ctx.pool tasks
    in
    let results = Sp_util.Itbl.create 8 in
    List.iter2
      (fun (p : prelude) r -> Sp_util.Itbl.replace results p.pr_l_id r)
      pendings staged;
    List.concat_map
      (function
        | Now us -> us
        | Later pre -> (
          let outcome, recording =
            Option.get (Sp_util.Itbl.find_opt results pre.pr_l_id)
          in
          Phase.replay recording;
          match outcome with
          | Ok sg -> loop_finish ctx pre sg
          | Error (e, bt) -> Printexc.raise_with_backtrace e bt))
      items

let rec items_of_region ctx ~depth (r : Region.t) : item list =
  match r with
  | Region.Ops ops -> [ Now (List.map (Sunit.of_op ctx.m ~sid:0) ops) ]
  | Region.Seq rs -> List.concat_map (items_of_region ctx ~depth) rs
  | Region.If { cond; then_; else_ } ->
    let then_units = flush_items ctx (items_of_region ctx ~depth then_) in
    let else_units = flush_items ctx (items_of_region ctx ~depth else_) in
    [ Now [ reduce_if ctx ~cond ~then_units ~else_units ] ]
  | Region.For { iv; n; body } ->
    let inner_items = items_of_region ctx ~depth:(depth + 1) body in
    if Region.contains_loop body then
      [ Now (reduce_loop ctx ~iv ~n ~body ~depth (flush_items ctx inner_items)) ]
    else
      (* innermost: bodies hold no pendings (nested Ifs were flushed),
         so this flush is a plain concatenation *)
      [
        Later (loop_prelude ctx ~iv ~n ~body ~depth (flush_items ctx inner_items));
      ]

let units_of_region ctx ~depth (r : Region.t) : Sunit.t list =
  flush_items ctx (items_of_region ctx ~depth r)

let innermost_ddgs ?(config = default) (m : Machine.t) (p : Program.t) :
    (Vreg.t * Ddg.t) list =
  let ctx = make_ctx m config p in
  let out = ref [] in
  let rec go = function
    | Region.Ops _ -> ()
    | Region.Seq rs -> List.iter go rs
    | Region.If { then_; else_; _ } ->
      go then_;
      go else_
    | Region.For { iv; body; _ } ->
      if Region.contains_loop body then go body
      else begin
        let units = renumber (units_of_region ctx ~depth:0 body) in
        out := (iv, Ddg.build units) :: !out
      end
  in
  go p.Program.body;
  List.rev !out

let compile ctx (p : Program.t) : result =
  let units = units_of_region ctx ~depth:0 p.Program.body in
  let _, _, frag, _ = compact_units ctx units ~pad_to:0 in
  let code =
    Phase.run ~loop:(-1) P_emit @@ fun () ->
    let asm = Sp_vliw.Prog.Asm.create () in
    Emit.emit_slots asm ~rename:Emit.identity_rename ~depth:0 frag
      ~extras:Emit.no_extras;
    Sp_vliw.Prog.Asm.inst asm ~ctl:Sp_vliw.Inst.Halt [];
    Sp_vliw.Prog.Asm.finish asm
  in
  {
    code;
    loops = List.rev ctx.reports;
    code_size = Sp_vliw.Prog.size code;
  }

let program ?(config = default) (m : Machine.t) (p : Program.t) : result =
  Sp_obs.Trace.span "compile" @@ fun () ->
  compile (Phase.run ~loop:(-1) P_reduce (fun () -> make_ctx m config p)) p

let compaction_graphs ?(config = default) (m : Machine.t) (p : Program.t) :
    Ddg.t list =
  let graphs = ref [] in
  let on_compact g = graphs := g :: !graphs in
  ignore (compile (make_ctx ~on_compact m { config with jobs = 1 } p) p);
  List.rev !graphs

(* Data-dependence graph over scheduling units (Section 2.1), with the
   modulo variable expansion candidates (Section 2.3). *)

open Sp_ir

type edge = { src : int; dst : int; delay : int; omega : int }

type t = {
  units : Sunit.t array;
  edges : edge list;
  succs : edge list array;
  preds : edge list array;
  mve_candidates : Vreg.Set.t;
}

let pp_edge ppf e =
  Fmt.pf ppf "u%d -> u%d (d=%d, w=%d)" e.src e.dst e.delay e.omega

let completion (u : Sunit.t) =
  let m = ref u.len in
  List.iter (fun (_, t) -> if t > !m then m := t) u.defs;
  List.iter (fun (e : Sunit.mem_eff) -> if e.at + 1 > !m then m := e.at + 1) u.mems;
  !m

let chan_seg ~out ch : Memseg.t =
  {
    Memseg.sid = -1 - ch - (if out then 100 else 0);
    sname = (if out then "chout" else "chin") ^ string_of_int ch;
    size = 0;
    elt = Memseg.Float_elt;
    independent = false;
  }

let chan_eff ~out ch : Sunit.mem_eff =
  { Sunit.seg = chan_seg ~out ch; write = true; sub = None; at = 0;
    summary = false }

let effects (u : Sunit.t) : Sunit.mem_eff list =
  match u.payload with
  | Sunit.P_op { Op.kind = Sp_machine.Opkind.Recv ch; _ } ->
    u.mems @ [ chan_eff ~out:false ch ]
  | Sunit.P_op { Op.kind = Sp_machine.Opkind.Send ch; _ } ->
    u.mems @ [ chan_eff ~out:true ch ]
  | _ -> u.mems

(* ---- access streams ------------------------------------------------- *)

(* Buffers each domain keeps and every analysis reuses. A build's other
   buffers are sized to it, so most are small enough to be allocated
   young and die there (reusing those too cut allocation so far that
   the major GC fell behind and the heap's peak rose; EXPERIMENTS E26).
   - [seen] and [index] map a register id to its dense index. They are
     indexed by id, so they are kept, not made per build. An entry is
     live when [seen.(id)] is the current analysis's [stamp], so
     nothing is cleared between analyses.
   - An array of more than 256 words would be allocated straight in the
     major heap, so streams of 256 accesses or more use the long
     buffers [l_start], [l_acc] and [l_time], which hold the analysis
     whose stamp is [holder]. Stamps are unique across domains, so no
     domain takes another's analysis for the one its buffers hold. *)
type buffers = {
  mutable stamp : int;
  mutable seen : int array;
  mutable index : int array;
  mutable holder : int;
  mutable l_start : int array;
  mutable l_acc : int array;
  mutable l_time : int array;
}

let buffers_key =
  Domain.DLS.new_key (fun () ->
      { stamp = 0; seen = [||]; index = [||]; holder = 0; l_start = [||];
        l_acc = [||]; l_time = [||] })

let stamps = Atomic.make 0

(* [a] lengthened to hold index [i], the new cells 0 *)
let widen a i =
  let b = Array.make (max (i + 1) (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A zeroed start array, and acc and time arrays, for [n] accesses, and
   the analysis's stamp when they are the long buffers (else 0). *)
let stream_arrays b n =
  if n < 256 then (Array.make (n + 1) 0, Array.make n 0, Array.make n 0, 0)
  else begin
    if Array.length b.l_acc < n then begin
      b.l_start <- Array.make ((2 * n) + 1) 0;
      b.l_acc <- Array.make (2 * n) 0;
      b.l_time <- Array.make (2 * n) 0
    end
    else Array.fill b.l_start 0 (n + 1) 0;
    b.holder <- b.stamp;
    (b.l_start, b.l_acc, b.l_time, b.stamp)
  end

type streams = {
  s_units : Sunit.t array;
  s_regs : Vreg.t array;  (** dense register index -> register *)
  s_walk : int array;  (** dense indices in the order registers are walked *)
  s_start : int array;
      (** register [k]'s accesses are [s_start.(k)] to [s_start.(k+1) - 1] *)
  s_acc : int array;  (** [unit lsl 1], plus 1 for a def *)
  s_time : int array;
  s_long : int;  (** the analysis's stamp if in the long buffers, else 0 *)
}

let no_reg = { Vreg.id = -1; cls = Vreg.I; name = "" }

let streams (units : Sunit.t array) : streams =
  let b = Domain.DLS.get buffers_key in
  b.stamp <- 1 + Atomic.fetch_and_add stamps 1;
  let n_acc =
    Array.fold_left
      (fun n (u : Sunit.t) -> n + List.length u.uses + List.length u.defs)
      0 units
  in
  (* Dense indices in first-access order. Each unit lists its uses,
     then its defs, so this order is program order. The walk visits
     registers in the fold order of a table that sees one insert per
     register, in first-access order. *)
  let walk = Hashtbl.create ~random:false 64 in
  let regs = ref [] and n_regs = ref 0 in
  (* [start.(k+1)] counts register [k]'s accesses, then ends its stream *)
  let start, s_acc, s_time, s_long = stream_arrays b n_acc in
  let count ((r : Vreg.t), _) =
    let id = r.Vreg.id in
    if id >= Array.length b.seen then begin
      b.seen <- widen b.seen id;
      b.index <- widen b.index id
    end;
    if b.seen.(id) <> b.stamp then begin
      b.seen.(id) <- b.stamp;
      b.index.(id) <- !n_regs;
      Hashtbl.add walk id !n_regs;
      regs := r :: !regs;
      incr n_regs
    end;
    let k = b.index.(id) + 1 in
    start.(k) <- start.(k) + 1
  in
  Array.iter
    (fun (u : Sunit.t) ->
      List.iter count u.uses;
      List.iter count u.defs)
    units;
  let n_regs = !n_regs in
  let s_walk = Array.make n_regs 0 in
  ignore
    (Hashtbl.fold
       (fun _ k j ->
         s_walk.(j) <- k;
         j + 1)
       walk 0);
  (* counting sort: each stream keeps program order *)
  for k = 1 to n_regs do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let next = Array.sub start 0 n_regs in
  let place x ((r : Vreg.t), t) =
    let k = b.index.(r.Vreg.id) in
    let p = next.(k) in
    s_acc.(p) <- x;
    s_time.(p) <- t;
    next.(k) <- p + 1
  in
  Array.iteri
    (fun i (u : Sunit.t) ->
      List.iter (place (i lsl 1)) u.uses;
      List.iter (place ((i lsl 1) lor 1)) u.defs)
    units;
  (* [!regs] is last register first; the array is made from the
     long-lived [no_reg] and filled, since a register the compile drew
     (a loop's [one]) may be young *)
  let s_regs = Array.make n_regs no_reg in
  List.iteri (fun k r -> s_regs.(n_regs - 1 - k) <- r) !regs;
  { s_units = units; s_regs; s_walk; s_start = start; s_acc; s_time; s_long }

(* ---- edges ---------------------------------------------------------- *)

(* An edge while emissions merge into it: a repeated [(src, dst,
   omega)] keeps the larger delay. *)
type pending = {
  p_src : int;
  p_dst : int;
  p_omega : int;
  mutable p_delay : int;
}

let absent = { p_src = -1; p_dst = -1; p_omega = -1; p_delay = 0 }

(* The edge to [dst] at [omega] among one source's, or [absent]. *)
let rec find_pending dst omega = function
  | [] -> absent
  | p :: rest ->
    if p.p_dst = dst && p.p_omega = omega then p
    else find_pending dst omega rest

(* ---- graphs ---------------------------------------------------------- *)

let of_streams ?(mve = true) ?(live_out = fun (_ : Vreg.t) -> false)
    (s : streams) : t =
  let s =
    if s.s_long <> 0 && (Domain.DLS.get buffers_key).holder <> s.s_long then
      streams s.s_units
    else s
  in
  let units = s.s_units in
  let n = Array.length units in
  let acc = s.s_acc and time = s.s_time and start = s.s_start in
  let n_regs = Array.length s.s_regs in
  (* --- MVE candidates ---------------------------------------------- *)
  let candidate = Array.make n_regs false in
  let candidates = ref Vreg.Set.empty in
  if mve then
    Array.iter
      (fun k ->
        let r = s.s_regs.(k) in
        if acc.(start.(k)) land 1 = 1 && not (live_out r) then begin
          candidate.(k) <- true;
          candidates := Vreg.Set.add r !candidates
        end)
      s.s_walk;
  (* --- edge accumulation, strongest-per-(src,dst,omega) ------------ *)
  (* A negative intra-iteration delay licenses the successor to issue
     before the predecessor, trusting that cycle distance equals
     instruction-word distance (reads at issue, writes land a latency
     later). A unit that expands at emission (an inner loop) re-executes
     its words, so any such unit scheduled between the two issue points
     stretches the cycle distance past the word distance and the
     in-flight-write-over-read overlap resolves the wrong way. When the
     body contains an expanding unit, negative same-iteration delays
     are therefore clamped to zero: issue order then implies cycle
     order under any monotone word-to-cycle mapping. Carried edges
     need no clamp — the restart interval spans the whole (dynamic)
     body, covering any stretch. *)
  let expanding_present = Array.exists Sunit.expands units in
  (* distinct edges, newest first: all of them, and by source *)
  let pending = ref [] and n_edges = ref 0 and by_src = Array.make n [] in
  let edge src dst delay omega =
    let delay =
      if expanding_present && omega = 0 && delay < 0 then 0 else delay
    in
    if src <> dst || omega <> 0 then begin
      let p = find_pending dst omega by_src.(src) in
      if p != absent then p.p_delay <- Int.max p.p_delay delay
      else begin
        let p =
          { p_src = src; p_dst = dst; p_omega = omega; p_delay = delay }
        in
        by_src.(src) <- p :: by_src.(src);
        pending := p :: !pending;
        incr n_edges
      end
    end
  in
  (* A reduced loop's mid slot expands to the whole dynamic execution
     at emission, so an operation that must access a register before
     the loop's body does (anti- or output-dependence into the loop)
     cannot rely on latency slack alone: scheduled at or after the mid
     slot it would be emitted after the expansion and run after every
     iteration. Such edges are clamped so the predecessor issues
     strictly before the mid. *)
  let edge_into_def src dst delay omega =
    let delay =
      match units.(dst).Sunit.payload with
      | Sunit.P_loop { prolog; _ } -> max delay (1 - Array.length prolog)
      | _ -> delay
    in
    edge src dst delay omega
  in
  (* --- register dependences ---------------------------------------- *)
  let is_def q = acc.(q) land 1 = 1 and unit_at q = acc.(q) lsr 1 in
  for j = 0 to n_regs - 1 do
    let k = s.s_walk.(j) in
    let lo = start.(k) and hi = start.(k + 1) in
    let first = ref lo in
    while !first < hi && not (is_def !first) do incr first done;
    (* a live-in only register needs no ordering *)
    if !first < hi then begin
      let first = !first and last = ref (hi - 1) in
      while not (is_def !last) do decr last done;
      let last = !last in
      (* same-iteration edges. [anti] only moves forward: a unit's
         accesses are adjacent in its stream, so the next def of
         another unit never moves back as the use moves on. *)
      let anti = ref lo in
      for q = lo to hi - 1 do
        let u = unit_at q and t = time.(q) in
        if is_def q then begin
          (* flow to uses up to next def; output to next def *)
          let b = ref (q + 1) in
          while !b < hi && not (is_def !b) do
            edge u (unit_at !b) (t - time.(!b)) 0;
            incr b
          done;
          if !b < hi then edge_into_def u (unit_at !b) (t - time.(!b) + 1) 0
        end
        else begin
          (* anti to the next def of ANOTHER unit. A def by the use's
             own unit (a construct that both reads and rewrites the
             register, or a dual-time def entry) must not stop the
             scan: it would only produce a skipped self edge, and the
             unit's output edge to the next def bounds that def
             against the unit's WRITE time, not against this read —
             which can be later. *)
          if !anti <= q then anti := q + 1;
          while !anti < hi && not (is_def !anti && unit_at !anti <> u) do
            incr anti
          done;
          if !anti < hi then
            edge_into_def u (unit_at !anti) (t - time.(!anti) + 1) 0
        end
      done;
      (* carried edges (omega = 1) *)
      if not candidate.(k) then begin
        let uf = unit_at first and tf = time.(first) in
        let ul = unit_at last and tl = time.(last) in
        (* flow: last def feeds uses that precede the first def *)
        for q = lo to first - 1 do
          edge ul (unit_at q) (tl - time.(q)) 1
        done;
        (* anti: uses after the last def must finish before the next
           iteration's first def *)
        for q = last + 1 to hi - 1 do
          edge_into_def (unit_at q) uf (time.(q) - tf + 1) 1
        done;
        (* output: last def before next iteration's first def *)
        edge_into_def ul uf (tl - tf + 1) 1
      end
    end
  done;
  (* --- memory and channel dependences ------------------------------- *)
  let effs =
    List.concat
      (List.init n (fun i -> List.map (fun e -> (i, e)) (effects units.(i))))
  in
  let mem_delay (a : Sunit.mem_eff) (b : Sunit.mem_eff) =
    (* store->load and store->store need one full cycle; load->store may
       share a cycle (stores commit at end of cycle) *)
    if a.write then a.at - b.at + 1 else a.at - b.at
  in
  List.iter
    (fun (i, (a : Sunit.mem_eff)) ->
      List.iter
        (fun (j, (b : Sunit.mem_eff)) ->
          if
            a.seg.Memseg.sid = b.seg.Memseg.sid
            && (a.write || b.write)
            && not (i = j && a == b && not a.write)
          then
            let dist =
              match (a.sub, b.sub) with
              | Some sa, Some sb -> Subscript.distance ~from:sa ~to_:sb
              | _ -> Subscript.Unknown
            in
            match dist with
            | Subscript.Never -> ()
            | Subscript.Exactly p ->
              if p > 0 then edge i j (mem_delay a b) p
              else if p = 0 && i < j then edge i j (mem_delay a b) 0
              else if p = 0 && i = j && a != b then
                (* two accesses in one unit at fixed relative times *)
                ()
            | Subscript.Unknown ->
              if
                a.seg.Memseg.independent
                && not (a.summary || b.summary)
              then ()
              else if i < j then edge i j (mem_delay a b) 0
              else if i > j then edge i j (mem_delay a b) 1
              else (* i = j: conservative self dependence across iterations *)
                edge i j (mem_delay a b) 1)
        effs)
    effs;
  (* --- assemble ------------------------------------------------------ *)
  (* Emission order: [!pending] is newest first, so consing reverses it
     into [edges], and each unit's [succs] and [preds] follow it too. *)
  if Sp_obs.Cost.enabled () then Sp_obs.Cost.add Sp_obs.Cost.Ddg_edge !n_edges;
  let succs = Array.make n [] and preds = Array.make n [] in
  let edges =
    List.fold_left
      (fun l p ->
        let e =
          { src = p.p_src; dst = p.p_dst; delay = p.p_delay; omega = p.p_omega }
        in
        succs.(e.src) <- e :: succs.(e.src);
        preds.(e.dst) <- e :: preds.(e.dst);
        e :: l)
      [] !pending
  in
  { units; edges; succs; preds; mve_candidates = !candidates }

let ordered (g : t) : t =
  (* The fold order of a polymorphic table that sees one insert per
     distinct edge, in first-emission order. *)
  let tbl = Hashtbl.create ~random:false 256 in
  List.iter (fun e -> Hashtbl.add tbl (e.src, e.dst, e.omega) e) g.edges;
  let edges = Hashtbl.fold (fun _ e l -> e :: l) tbl [] in
  let n = Array.length g.units in
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun e ->
      succs.(e.src) <- e :: succs.(e.src);
      preds.(e.dst) <- e :: preds.(e.dst))
    edges;
  { g with edges; succs; preds }

let build ?mve ?live_out units =
  ordered (of_streams ?mve ?live_out (streams units))

(** Translation validation for assembled VLIW programs (see the
    interface for the contract being checked).

    The walk is along layout order, which equals dynamic issue order —
    one instruction per cycle — on every fall-through stretch. State
    (in-flight writes) is discarded after an unconditional transfer
    ([Jump], [Halt]): the fall-through edge out of those is never
    executed, so distances measured across it are meaningless and
    would otherwise flag legal code (e.g. a then-branch write against
    an else-branch read). Conditional branches and counter loops fall
    through on one of their outcomes, so checking continues across
    them: any violation reported there is a violation on a real
    execution path. Back-edge (cross-iteration) timing is not checked
    here — that is what the whole-program equivalence suites cover. *)

open Sp_ir
open Sp_machine

type rule = Latency | Write_port | Counter | Mem_order

type violation = {
  at : int;
  rule : rule;
  detail : string;
}

let rule_to_string = function
  | Latency -> "latency"
  | Write_port -> "write-port"
  | Counter -> "counter"
  | Mem_order -> "memory-order"

let pp_violation ppf v =
  Fmt.pf ppf "instruction %d violates %s: %s" v.at (rule_to_string v.rule)
    v.detail

(* ------------------------------------------------------------------ *)

(** Do two references within one instruction provably touch the same
    element? Two accesses in one cycle read their address registers at
    the same instant, so identical (post-renaming) registers with the
    same displacement mean the same address; the subscript distance
    must also prove coincidence, because symbolic subscripts are
    per-iteration expressions and modulo-expanded register copies keep
    co-scheduled iterations apart. Anything not provable is not
    flagged: references the dependence analysis proved or made
    disjoint are legally co-scheduled. *)
let same_element (a : Op.addr) (b : Op.addr) =
  let same_reg x y =
    match (x, y) with
    | None, None -> true
    | Some (rx : Vreg.t), Some ry -> rx.Vreg.id = ry.Vreg.id
    | _ -> false
  in
  Memseg.equal a.Op.seg b.Op.seg
  && (not a.Op.seg.Memseg.independent)
  && same_reg a.Op.base b.Op.base
  && same_reg a.Op.idx b.Op.idx
  && a.Op.off = b.Op.off
  &&
  match (a.Op.sub, b.Op.sub) with
  | Some sa, Some sb -> Subscript.distance ~from:sa ~to_:sb = Subscript.Exactly 0
  | _ -> false

(* Per-register write state along the current fall-through stretch,
   held per domain in arrays indexed by register id. Register [id] has
   state on this stretch iff [stamp.(id) = cur]: then [landed.(id)]
   says whether a write to it has landed, and [head.(id)] is its newest
   write still in flight ([-1] for none). In-flight writes are nodes of
   a pool — issue index, due cycle, next older node — that return to
   its free list as they land. A flush and a new call each bump [cur]
   and empty the pool, touching no array; the arrays grow to the
   largest register id checked, the pool to the most writes in flight
   at once. *)
type wstate = {
  mutable cur : int;
  mutable stamp : int array;
  mutable landed : bool array;
  mutable head : int array;
  mutable n_iss : int array;
  mutable n_due : int array;
  mutable n_next : int array;
  mutable top : int;  (** nodes [0, top) have been handed out *)
  mutable free : int;  (** landed nodes, linked through [n_next] *)
}

let wstate_key =
  Domain.DLS.new_key (fun () ->
      { cur = 0; stamp = [||]; landed = [||]; head = [||]; n_iss = [||];
        n_due = [||]; n_next = [||]; top = 0; free = -1 })

(* [a] lengthened to [len] cells, the new ones [x] *)
let widen a len x =
  let b = Array.make len x in
  Array.blit a 0 b 0 (Array.length a);
  b

(* a new stretch: no register has state, every node is free *)
let flush st =
  st.cur <- st.cur + 1;
  st.top <- 0;
  st.free <- -1

(* register [id] with state on this stretch: [landed], nothing in
   flight *)
let start st id landed =
  if id >= Array.length st.stamp then begin
    let len = Int.max (id + 1) (2 * Array.length st.stamp) in
    st.stamp <- widen st.stamp len 0;
    st.landed <- widen st.landed len false;
    st.head <- widen st.head len (-1)
  end;
  st.stamp.(id) <- st.cur;
  st.landed.(id) <- landed;
  st.head.(id) <- -1

let has_state st id = id < Array.length st.stamp && st.stamp.(id) = st.cur

(* the in-flight writes from node [k] on (after [prev]) that are due by
   word [i] land: they mark register [id] landed and their nodes return
   to the pool *)
let rec land_due st id i prev k =
  if k >= 0 then begin
    let next = st.n_next.(k) in
    if st.n_due.(k) <= i then begin
      st.landed.(id) <- true;
      if prev < 0 then st.head.(id) <- next else st.n_next.(prev) <- next;
      st.n_next.(k) <- st.free;
      st.free <- k;
      land_due st id i prev next
    end
    else land_due st id i k next
  end

(* register [id]'s state brought up to word [i] *)
let settle st id i = land_due st id i (-1) st.head.(id)

(* a write issued at [iss] and due at [due], now register [id]'s
   newest in flight *)
let push st id iss due =
  let k =
    if st.free >= 0 then begin
      let k = st.free in
      st.free <- st.n_next.(k);
      k
    end
    else begin
      if st.top = Array.length st.n_iss then begin
        let len = Int.max 64 (2 * st.top) in
        st.n_iss <- widen st.n_iss len 0;
        st.n_due <- widen st.n_due len 0;
        st.n_next <- widen st.n_next len 0
      end;
      st.top <- st.top + 1;
      st.top - 1
    end
  in
  st.n_iss.(k) <- iss;
  st.n_due.(k) <- due;
  st.n_next.(k) <- st.head.(id);
  st.head.(id) <- k

(* the first node from [k] on due at [due], or [-1] *)
let rec due_at st due k =
  if k < 0 || st.n_due.(k) = due then k else due_at st due st.n_next.(k)

(* The register the last write to [id] in word [w] names. *)
let writer (p : Prog.t) w id =
  List.fold_left
    (fun found (op : Op.t) ->
      match op.Op.dst with
      | Some (d : Vreg.t) when d.Vreg.id = id -> Some d
      | _ -> found)
    None p.Prog.code.(w).Inst.ops
  |> Option.get

let check_timing ?(ctrs = 16) ?(live_in = []) (m : Machine.t) (p : Prog.t) :
    violation list =
  let viols = ref [] in
  let report at rule detail = viols := { at; rule; detail } :: !viols in
  (* A read while writes are in flight is legal — it returns the latest
     landed value, which is exactly how a modulo schedule overlaps a
     register's next write with the last reads of its current value.
     What is never legal in compiled code is a read whose register has
     a write issued strictly earlier and still in flight while NOTHING
     has landed: the read returns a value from before the stretch
     although the code already started replacing it — the signature of
     a producer displaced past its consumer. That judgment is only
     provable on the entry stretch (layout position 0 up to the first
     unconditional transfer): a stretch entered through a branch may
     find an older landed value in the register file, making the same
     read pattern legal, so there the rule stays silent. *)
  let st = Domain.DLS.get wstate_key in
  flush st;
  (* Registers declared live into the checked stretch hold a landed
     value at entry, so a read overlapping their first in-stretch write
     is the legal modulo-overlap pattern, not a displaced producer. *)
  List.iter (fun (r : Vreg.t) -> start st r.Vreg.id true) live_in;
  (* counters set so far, in layout order (never flushed: every loop in
     this code base sets its counter in the stretch that enters it) *)
  let counters_set = Array.make ctrs false in
  (* counter-loop body ranges (target, branch, ctr) for the nesting
     check below *)
  let ranges = ref [] in
  let entry_stretch = ref true in
  let check_ctr i c =
    if c < 0 || c >= ctrs then begin
      report i Counter (Printf.sprintf "counter %d out of range [0,%d)" c ctrs);
      false
    end
    else true
  in
  let read i (r : Vreg.t) =
    let id = r.Vreg.id in
    if has_state st id then begin
      settle st id i;
      if (not st.landed.(id)) && !entry_stretch then begin
        (* nothing has landed, so every write of the stretch is in
           flight and the newest, [head], named the register *)
        let reg = writer p st.n_iss.(st.head.(id)) id in
        let k = ref st.head.(id) in
        while !k >= 0 do
          let iss = st.n_iss.(!k) in
          if iss < i then
            report i Latency
              (Printf.sprintf
                 "%s read %d cycle(s) after its first write issued at %d; \
                  the result lands only at %d"
                 (Vreg.to_string reg) (i - iss) iss st.n_due.(!k));
          k := st.n_next.(!k)
        done
      end
    end
  in
  let read_opt i = function Some r -> read i r | None -> () in
  let rec read_list i = function
    | [] -> ()
    | r :: rest ->
      read i r;
      read_list i rest
  in
  (* sources, then address registers, op by op *)
  let rec read_ops i = function
    | [] -> ()
    | (op : Op.t) :: rest ->
      read_list i op.Op.srcs;
      (match op.Op.addr with
      | Some a ->
        read_opt i a.Op.base;
        read_opt i a.Op.idx
      | None -> ());
      read_ops i rest
  in
  (* two stores to provably the same element in one cycle collide —
     the element's next-cycle value is undefined. A load issued with
     such a store is fine: it deterministically reads the old value
     (stores become visible on the following cycle), which is exactly
     how an anti-dependent load legally co-schedules at distance 0. *)
  let rec stores_against i a = function
    | [] -> ()
    | (op : Op.t) :: rest ->
      (match op.Op.addr with
      | Some sa when Op.is_store op && same_element a sa ->
        report i Mem_order
          (Printf.sprintf "two stores to the same element of %s in one cycle"
             a.Op.seg.Memseg.sname)
      | _ -> ());
      stores_against i a rest
  in
  let rec store_pairs i = function
    | [] -> ()
    | (op : Op.t) :: rest ->
      (match op.Op.addr with
      | Some a when Op.is_store op -> stores_against i a rest
      | _ -> ());
      store_pairs i rest
  in
  (* writes due the same cycle on one register violate the write-port
     discipline *)
  let rec write_ops i = function
    | [] -> ()
    | (op : Op.t) :: rest ->
      (match op.Op.dst with
      | None -> ()
      | Some d ->
        let id = d.Vreg.id in
        let due = i + Int.max 1 (Machine.latency m op.Op.kind) in
        if has_state st id then settle st id i
        else start st id false;
        let k = ref (due_at st due st.head.(id)) in
        while !k >= 0 do
          report i Write_port
            (Printf.sprintf
               "two in-flight writes to %s land in cycle %d (issued at %d \
                and %d)"
               (Vreg.to_string d) due st.n_iss.(!k) i);
          k := due_at st due st.n_next.(!k)
        done;
        push st id i due);
      write_ops i rest
  in
  Array.iteri
    (fun i (inst : Inst.t) ->
      (* 1. all reads happen at issue, against the state before this
         instruction's writes are recorded *)
      read_ops i inst.Inst.ops;
      (match inst.Inst.ctl with
      | Inst.CJump { cond = r; _ } | Inst.CtrSetR { reg = r; _ } -> read i r
      | Inst.Next | Inst.Halt | Inst.Jump _ | Inst.CtrSet _ | Inst.CtrLoop _
      | Inst.CtrJumpLt _ -> ());
      (* 2. same-cycle memory conflicts *)
      store_pairs i inst.Inst.ops;
      (* 3. control field: counter discipline *)
      (match inst.Inst.ctl with
      | Inst.CtrSet { ctr; _ } | Inst.CtrSetR { ctr; _ } ->
        if check_ctr i ctr then counters_set.(ctr) <- true
      | Inst.CtrLoop { ctr; target } ->
        if check_ctr i ctr then begin
          if not counters_set.(ctr) then
            report i Counter
              (Printf.sprintf "counter %d looped before any set" ctr);
          if target > i then
            report i Counter
              (Printf.sprintf "counter loop branches forward to %d" target)
          else ranges := (target, i, ctr) :: !ranges
        end
      | Inst.CtrJumpLt { ctr; _ } ->
        if check_ctr i ctr && not counters_set.(ctr) then
          report i Counter
            (Printf.sprintf "counter %d tested before any set" ctr)
      | Inst.Next | Inst.Halt | Inst.Jump _ | Inst.CJump _ -> ());
      (* 4. record this instruction's writes *)
      write_ops i inst.Inst.ops;
      (* 5. an unconditional transfer makes the next layout position
         unreachable from here: measure nothing across it *)
      match inst.Inst.ctl with
      | Inst.Jump _ | Inst.Halt ->
        flush st;
        entry_stretch := false
      | _ -> ())
    p.Prog.code;
  (* counter-loop nesting: bodies must nest or be disjoint, and nested
     loops must use distinct counters *)
  let ranges = !ranges in
  List.iteri
    (fun k (t1, i1, c1) ->
      List.iteri
        (fun k' (t2, i2, c2) ->
          if k < k' then begin
            let nested_12 = t1 <= t2 && i2 <= i1 in
            let nested_21 = t2 <= t1 && i1 <= i2 in
            let disjoint = i1 < t2 || i2 < t1 in
            if not (nested_12 || nested_21 || disjoint) then
              report (Int.max i1 i2) Counter
                (Printf.sprintf
                   "counter-loop bodies [%d,%d] and [%d,%d] overlap \
                    without nesting"
                   t1 i1 t2 i2)
            else if (nested_12 || nested_21) && c1 = c2 then
              report (Int.max i1 i2) Counter
                (Printf.sprintf
                   "nested counter loops at [%d,%d] and [%d,%d] share \
                    counter %d"
                   t1 i1 t2 i2 c1)
          end)
        ranges)
    ranges;
  List.rev !viols

(* ------------------------------------------------------------------ *)

type report = {
  timing : violation list;
  resources : Check.violation list;
}

let all ?ctrs (m : Machine.t) (p : Prog.t) : report =
  { timing = check_timing ?ctrs m p; resources = Check.check_prog m p }

let ok r = r.timing = [] && r.resources = []

let pp_report ppf r =
  if ok r then Fmt.pf ppf "validate: ok"
  else begin
    List.iter (fun v -> Fmt.pf ppf "%a@." pp_violation v) r.timing;
    List.iter (fun v -> Fmt.pf ppf "%a@." Check.pp_violation v) r.resources
  end

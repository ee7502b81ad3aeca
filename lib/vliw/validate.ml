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

(** Registers read at issue by the instruction's control field. *)
let ctl_reads = function
  | Inst.CJump { cond; _ } -> [ cond ]
  | Inst.CtrSetR { reg; _ } -> [ reg ]
  | Inst.Next | Inst.Halt | Inst.Jump _ | Inst.CtrSet _ | Inst.CtrLoop _
  | Inst.CtrJumpLt _ -> []

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

let check_timing ?(ctrs = 16) ?(live_in = []) (m : Machine.t) (p : Prog.t) :
    violation list =
  let viols = ref [] in
  let report at rule detail = viols := { at; rule; detail } :: !viols in
  (* Per-register write state along the current fall-through stretch:
     whether any write has landed yet, and the writes still in flight
     (issue index, due cycle). A read while writes are in flight is
     legal — it returns the latest landed value, which is exactly how
     a modulo schedule overlaps a register's next write with the last
     reads of its current value. What is never legal in compiled code
     is a read whose register has a write issued strictly earlier and
     still in flight while NOTHING has landed: the read returns a
     value from before the stretch although the code already started
     replacing it — the signature of a producer displaced past its
     consumer. That judgment is only provable on the entry stretch
     (layout position 0 up to the first unconditional transfer):
     a stretch entered through a branch may find an older landed
     value in the register file, making the same read pattern legal,
     so there the rule stays silent. *)
  let wstate : (int, bool * (int * int) list * Vreg.t) Hashtbl.t =
    Hashtbl.create ~random:false 64
  in
  (* Registers declared live into the checked stretch hold a landed
     value at entry, so a read overlapping their first in-stretch write
     is the legal modulo-overlap pattern, not a displaced producer. *)
  List.iter
    (fun (r : Vreg.t) -> Hashtbl.replace wstate r.Vreg.id (true, [], r))
    live_in;
  (* counters set so far, in layout order (never flushed: every loop in
     this code base sets its counter in the stretch that enters it) *)
  let counters_set = Array.make ctrs false in
  (* counter-loop body ranges (target, branch, ctr) for the nesting
     check below *)
  let ranges = ref [] in
  let entry_stretch = ref true in
  let flush () =
    Hashtbl.reset wstate;
    entry_stretch := false
  in
  let check_ctr i c =
    if c < 0 || c >= ctrs then begin
      report i Counter (Printf.sprintf "counter %d out of range [0,%d)" c ctrs);
      false
    end
    else true
  in
  let flush_next = ref false in
  Array.iteri
    (fun i (inst : Inst.t) ->
      if !flush_next then flush ();
      flush_next := false;
      (* 1. all reads happen at issue, against the state before this
         instruction's writes are recorded *)
      let reads =
        List.concat_map Op.reads inst.Inst.ops @ ctl_reads inst.Inst.ctl
      in
      List.iter
        (fun (r : Vreg.t) ->
          match Hashtbl.find_opt wstate r.Vreg.id with
          | None -> ()
          | Some (landed, pend, reg) ->
            let landed =
              landed || List.exists (fun (_, due) -> due <= i) pend
            in
            let pend = List.filter (fun (_, due) -> due > i) pend in
            Hashtbl.replace wstate r.Vreg.id (landed, pend, reg);
            if (not landed) && !entry_stretch then
              List.iter
                (fun (iss, due) ->
                  if iss < i then
                    report i Latency
                      (Printf.sprintf
                         "%s read %d cycle(s) after its first write issued \
                          at %d; the result lands only at %d"
                         (Vreg.to_string reg) (i - iss) iss due))
                pend)
        reads;
      (* 2. same-cycle memory conflicts: two stores to provably the
         same element in one cycle collide — the element's next-cycle
         value is undefined. A load issued with such a store is fine:
         it deterministically reads the old value (stores become
         visible on the following cycle), which is exactly how an
         anti-dependent load legally co-schedules at distance 0. *)
      let stores =
        List.filter_map
          (fun (op : Op.t) ->
            match op.Op.addr with
            | Some a when Op.is_store op -> Some (op, a)
            | _ -> None)
          inst.Inst.ops
      in
      let rec pairs = function
        | [] -> ()
        | ((_ : Op.t), a) :: rest ->
          List.iter
            (fun ((_ : Op.t), sa) ->
              if same_element a sa then
                report i Mem_order
                  (Printf.sprintf
                     "two stores to the same element of %s in one cycle"
                     a.Op.seg.Memseg.sname))
            rest;
          pairs rest
      in
      pairs stores;
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
      (* 4. record this instruction's writes; writes due the same cycle
         on one register violate the write-port discipline *)
      List.iter
        (fun (op : Op.t) ->
          match op.Op.dst with
          | None -> ()
          | Some d ->
            let lat = max 1 (Machine.latency m op.Op.kind) in
            let due = i + lat in
            let landed, pend =
              match Hashtbl.find_opt wstate d.Vreg.id with
              | None -> (false, [])
              | Some (landed, pend, _) ->
                ( landed || List.exists (fun (_, due') -> due' <= i) pend,
                  List.filter (fun (_, due') -> due' > i) pend )
            in
            List.iter
              (fun (a, due') ->
                if due' = due then
                  report i Write_port
                    (Printf.sprintf
                       "two in-flight writes to %s land in cycle %d \
                        (issued at %d and %d)"
                       (Vreg.to_string d) due a i))
              pend;
            Hashtbl.replace wstate d.Vreg.id (landed, (i, due) :: pend, d))
        inst.Inst.ops;
      (* 5. an unconditional transfer makes the next layout position
         unreachable from here: measure nothing across it *)
      match inst.Inst.ctl with
      | Inst.Jump _ | Inst.Halt -> flush_next := true
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
              report (max i1 i2) Counter
                (Printf.sprintf
                   "counter-loop bodies [%d,%d] and [%d,%d] overlap \
                    without nesting"
                   t1 i1 t2 i2)
            else if (nested_12 || nested_21) && c1 = c2 then
              report (max i1 i2) Counter
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

(** Reference checkers: [Validate.check_timing] and [Check.check_prog]
    as they were written before their state went flat — a hash table of
    per-register write lists, and a usage matrix with one row per word.
    The suites hold the library's checkers to these, violation for
    violation. *)

open Sp_ir
open Sp_machine
module Inst = Sp_vliw.Inst
module Prog = Sp_vliw.Prog
module V = Sp_vliw.Validate
module Check = Sp_vliw.Check

(** Registers read at issue by the instruction's control field. *)
let ctl_reads = function
  | Inst.CJump { cond; _ } -> [ cond ]
  | Inst.CtrSetR { reg; _ } -> [ reg ]
  | Inst.Next | Inst.Halt | Inst.Jump _ | Inst.CtrSet _ | Inst.CtrLoop _
  | Inst.CtrJumpLt _ -> []

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
    V.violation list =
  let viols = ref [] in
  let report at rule detail = viols := { V.at; rule; detail } :: !viols in
  (* per register: whether a write has landed, the writes in flight
     (issue index, due cycle), newest first, and the register named *)
  let wstate : (bool * (int * int) list * Vreg.t) Sp_util.Itbl.t =
    Sp_util.Itbl.create 64
  in
  List.iter
    (fun (r : Vreg.t) -> Sp_util.Itbl.replace wstate r.Vreg.id (true, [], r))
    live_in;
  let counters_set = Array.make ctrs false in
  let ranges = ref [] in
  let entry_stretch = ref true in
  let flush () =
    Sp_util.Itbl.reset wstate;
    entry_stretch := false
  in
  let check_ctr i c =
    if c < 0 || c >= ctrs then begin
      report i V.Counter
        (Printf.sprintf "counter %d out of range [0,%d)" c ctrs);
      false
    end
    else true
  in
  let flush_next = ref false in
  Array.iteri
    (fun i (inst : Inst.t) ->
      if !flush_next then flush ();
      flush_next := false;
      let reads =
        List.concat_map Op.reads inst.Inst.ops @ ctl_reads inst.Inst.ctl
      in
      List.iter
        (fun (r : Vreg.t) ->
          match Sp_util.Itbl.find_opt wstate r.Vreg.id with
          | None -> ()
          | Some (landed, pend, reg) ->
            let landed =
              landed || List.exists (fun (_, due) -> due <= i) pend
            in
            let pend = List.filter (fun (_, due) -> due > i) pend in
            Sp_util.Itbl.replace wstate r.Vreg.id (landed, pend, reg);
            if (not landed) && !entry_stretch then
              List.iter
                (fun (iss, due) ->
                  if iss < i then
                    report i V.Latency
                      (Printf.sprintf
                         "%s read %d cycle(s) after its first write issued \
                          at %d; the result lands only at %d"
                         (Vreg.to_string reg) (i - iss) iss due))
                pend)
        reads;
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
                report i V.Mem_order
                  (Printf.sprintf
                     "two stores to the same element of %s in one cycle"
                     a.Op.seg.Memseg.sname))
            rest;
          pairs rest
      in
      pairs stores;
      (match inst.Inst.ctl with
      | Inst.CtrSet { ctr; _ } | Inst.CtrSetR { ctr; _ } ->
        if check_ctr i ctr then counters_set.(ctr) <- true
      | Inst.CtrLoop { ctr; target } ->
        if check_ctr i ctr then begin
          if not counters_set.(ctr) then
            report i V.Counter
              (Printf.sprintf "counter %d looped before any set" ctr);
          if target > i then
            report i V.Counter
              (Printf.sprintf "counter loop branches forward to %d" target)
          else ranges := (target, i, ctr) :: !ranges
        end
      | Inst.CtrJumpLt { ctr; _ } ->
        if check_ctr i ctr && not counters_set.(ctr) then
          report i V.Counter
            (Printf.sprintf "counter %d tested before any set" ctr)
      | Inst.Next | Inst.Halt | Inst.Jump _ | Inst.CJump _ -> ());
      List.iter
        (fun (op : Op.t) ->
          match op.Op.dst with
          | None -> ()
          | Some d ->
            let lat = Int.max 1 (Machine.latency m op.Op.kind) in
            let due = i + lat in
            let landed, pend =
              match Sp_util.Itbl.find_opt wstate d.Vreg.id with
              | None -> (false, [])
              | Some (landed, pend, _) ->
                ( landed || List.exists (fun (_, due') -> due' <= i) pend,
                  List.filter (fun (_, due') -> due' > i) pend )
            in
            List.iter
              (fun (a, due') ->
                if due' = due then
                  report i V.Write_port
                    (Printf.sprintf
                       "two in-flight writes to %s land in cycle %d \
                        (issued at %d and %d)"
                       (Vreg.to_string d) due a i))
              pend;
            Sp_util.Itbl.replace wstate d.Vreg.id (landed, (i, due) :: pend, d))
        inst.Inst.ops;
      match inst.Inst.ctl with
      | Inst.Jump _ | Inst.Halt -> flush_next := true
      | _ -> ())
    p.Prog.code;
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
              report (Int.max i1 i2) V.Counter
                (Printf.sprintf
                   "counter-loop bodies [%d,%d] and [%d,%d] overlap \
                    without nesting"
                   t1 i1 t2 i2)
            else if (nested_12 || nested_21) && c1 = c2 then
              report (Int.max i1 i2) V.Counter
                (Printf.sprintf
                   "nested counter loops at [%d,%d] and [%d,%d] share \
                    counter %d"
                   t1 i1 t2 i2 c1)
          end)
        ranges)
    ranges;
  List.rev !viols

let check_prog (m : Machine.t) (p : Prog.t) : Check.violation list =
  let n = Prog.length p in
  let nr = Machine.num_resources m in
  (* usage.(i * nr + r) = units of resource r used by instruction i *)
  let usage = Array.make (n * nr) 0 in
  Array.iteri
    (fun i (inst : Inst.t) ->
      List.iter
        (fun (op : Op.t) ->
          List.iter
            (fun (off, rid) ->
              let j = i + off in
              if j >= 0 && j < n then begin
                let k = (j * nr) + rid in
                usage.(k) <- usage.(k) + 1
              end)
            (Machine.reservation m op.Op.kind))
        inst.Inst.ops)
    p.Prog.code;
  let viols = ref [] in
  Array.iteri
    (fun k used ->
      let r = Machine.resource m (k mod nr) in
      if used > r.Machine.count then
        viols :=
          { Check.at = k / nr; resource = r.Machine.rname; used;
            avail = r.Machine.count }
          :: !viols)
    usage;
  List.rev !viols

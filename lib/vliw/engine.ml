(** The decoded cell engine behind {!Sim} and {!Array_sim}.

    A program is decoded once per run into flat arrays over all its
    words: each operation goes through {!Semantics.decode_list}, and its
    latency is resolved from the machine description once per static
    operation instead of once per issue. Issuing a word runs
    {!Semantics.exec} on each operation, the executor the interpreter
    runs too. The engine counts issues per word; flops, operations and
    reserved resources are summed from those counts after the run.
    Pending register writes wait in a ring of [2^k] slots indexed by
    due cycle, where [2^k] exceeds the program's largest latency, so a
    slot is never reused before it lands. Each slot holds its float and
    its int writes in typed arrays, sized at decode for the most writes
    one cycle can receive, so a run allocates nothing per issued
    operation. The timing contract is DESIGN.md Section 6. *)

open Sp_ir
module Machine = Sp_machine.Machine
module Opkind = Sp_machine.Opkind

exception Write_conflict of string
exception Cycle_limit of int

(* The program, flattened: operation [k] of word [pc] is
   [ops.(first.(pc) + k)], a word's stores last in issue order. *)
type program = {
  machine : Machine.t;
  ops : Semantics.op array;
  lat : int array;  (** per operation: [max 1 latency] *)
  first : int array;  (** per word, and one past the last *)
  ctl : Inst.ctl array;
  slots : int;
  fcap : int;  (** per slot: the most float writes one cycle receives *)
  icap : int;  (** likewise for int writes *)
  regs : int;
}

(* The most writes of one class a slot can hold. One word issues per
   cycle, so the writes due at cycle [t] come from at most one word
   per latency [l], the one issued at [t - l]: the bound is the sum
   over latencies of the most such writes one word makes. *)
let capacity ops lat first longest fres =
  let most = Array.make (longest + 1) 0 in
  let counted (op : Semantics.op) = op.dst >= 0 && op.fres = fres in
  for pc = 0 to Array.length first - 2 do
    for k = first.(pc) to first.(pc + 1) - 1 do
      if counted ops.(k) then begin
        let n = ref 0 in
        for j = first.(pc) to first.(pc + 1) - 1 do
          if counted ops.(j) && lat.(j) = lat.(k) then incr n
        done;
        most.(lat.(k)) <- Int.max most.(lat.(k)) !n
      end
    done
  done;
  Array.fold_left ( + ) 0 most

let decode (m : Machine.t) (code : Prog.t) =
  let n = Prog.length code in
  (* one above the highest register id named, without allocating *)
  let regs = ref 0 in
  let name (v : Vreg.t) = if v.Vreg.id >= !regs then regs := v.Vreg.id + 1 in
  let name_opt = function Some v -> name v | None -> () in
  let name_op (op : Op.t) =
    name_opt op.Op.dst;
    List.iter name op.Op.srcs;
    match op.Op.addr with
    | Some a ->
      name_opt a.Op.base;
      name_opt a.Op.idx
    | None -> ()
  in
  let int_reg (v : Vreg.t) =
    name v;
    if v.Vreg.cls <> Vreg.I then
      raise
        (Machine_state.Type_error
           (Printf.sprintf "%s: expected int register" (Vreg.to_string v)))
  in
  let first = Array.make (n + 1) 0 and ctl = Array.make n Inst.Next in
  (* every word's operations and latencies, in lists reversed *)
  let all = ref [] and lats = ref [] and count = ref 0 and longest = ref 1 in
  let rec add = function
    | [] -> ()
    | (op : Op.t) :: rest ->
      let l = Int.max 1 (Machine.latency m op.Op.kind) in
      all := op :: !all;
      lats := l :: !lats;
      longest := Int.max !longest l;
      incr count;
      add rest
  in
  Array.iteri
    (fun pc (inst : Inst.t) ->
      List.iter name_op inst.Inst.ops;
      (match inst.Inst.ctl with
      | Inst.CJump { cond = v; _ } | Inst.CtrSetR { reg = v; _ } -> int_reg v
      | _ -> ());
      ctl.(pc) <- inst.Inst.ctl;
      first.(pc) <- !count;
      (* a load issued with a store reads the old value, and the
         word's stores land in issue order: running them last keeps
         both *)
      if List.exists Op.is_store inst.Inst.ops then begin
        let stores, rest = List.partition Op.is_store inst.Inst.ops in
        add rest;
        add stores
      end
      else add inst.Inst.ops)
    code.Prog.code;
  first.(n) <- !count;
  let ops = Semantics.decode_list (List.rev !all) in
  let lat = Array.of_list (List.rev !lats) in
  (* the smallest power of two above the longest latency *)
  let rec slots k = if k > !longest then k else slots (2 * k) in
  {
    machine = m;
    ops;
    lat;
    first;
    ctl;
    slots = slots 2;
    fcap = capacity ops lat first !longest true;
    icap = capacity ops lat first !longest false;
    regs = !regs;
  }

let regs prog = prog.regs

type t = {
  prog : program;
  st : Machine_state.t;
  blocking : bool;  (** channels stall rather than raise *)
  capacity : int;  (** a send channel holding this many is full *)
  label : string;
  counters : int array;
  mask : int;
  (* the ring: slot [s] holds its [fn.(s)] float writes at
     [s * fcap ...], its [in_.(s)] int writes at [s * icap ...] *)
  fdst : int array;
  fval : float array;
  fn : int array;
  idst : int array;
  ival : int array;
  in_ : int array;
  issued : int array;  (** per pc: how often its word issued *)
  mutable pc : int;
  mutable halted : bool;
  mutable stalls : int;
}

let create ?(ctrs = 16) ?(label = "") ?capacity prog st =
  let slots = prog.slots in
  {
    prog;
    st;
    blocking = Option.is_some capacity;
    capacity = Option.value capacity ~default:max_int;
    label;
    counters = Array.make ctrs 0;
    mask = slots - 1;
    fdst = Array.make (slots * prog.fcap) 0;
    fval = Array.make (slots * prog.fcap) 0.0;
    fn = Array.make slots 0;
    idst = Array.make (slots * prog.icap) 0;
    ival = Array.make (slots * prog.icap) 0;
    in_ = Array.make slots 0;
    issued = Array.make (Array.length prog.ctl) 0;
    pc = 0;
    halted = false;
    stalls = 0;
  }

(* Land the writes due at cycle [t]. One register is written at most
   once per slot, so their order does not matter. *)
let land_due e t =
  let s = t land e.mask and st = e.st in
  let base = s * e.prog.fcap in
  for j = base to base + e.fn.(s) - 1 do
    let d = e.fdst.(j) in
    st.f.(d) <- e.fval.(j);
    Bytes.set st.fset d '\001'
  done;
  e.fn.(s) <- 0;
  let base = s * e.prog.icap in
  for j = base to base + e.in_.(s) - 1 do
    st.i.(e.idst.(j)) <- e.ival.(j)
  done;
  e.in_.(s) <- 0

let conflict e due (op : Semantics.op) =
  let d =
    match op.src.Op.dst with Some d -> Vreg.to_string d | None -> "?"
  in
  raise
    (Write_conflict
       (Printf.sprintf "%stwo writes to %s due at cycle %d" e.label d due))

(* Queue the result the executor just left in the state for [due]. *)
let pend e due (op : Semantics.op) =
  let s = due land e.mask and d = op.dst in
  if op.fres then begin
    let base = s * e.prog.fcap and n = e.fn.(s) in
    for j = base to base + n - 1 do
      if e.fdst.(j) = d then conflict e due op
    done;
    e.fdst.(base + n) <- d;
    e.fval.(base + n) <- e.st.res_f.(0);
    e.fn.(s) <- n + 1
  end
  else begin
    let base = s * e.prog.icap and n = e.in_.(s) in
    for j = base to base + n - 1 do
      if e.idst.(j) = d then conflict e due op
    done;
    e.idst.(base + n) <- d;
    e.ival.(base + n) <- e.st.res_i.(0);
    e.in_.(s) <- n + 1
  end

(* A word is ready unless a receive finds its channel empty or a send
   finds its channel full. *)
let ready e pc =
  let p = e.prog and st = e.st in
  let rec from k =
    k >= p.first.(pc + 1)
    ||
    let op = p.ops.(k) in
    (match op.kind with
    | Opkind.Recv ch ->
      let q = st.rx.(ch) in
      q.tail > q.head
    | Opkind.Send ch ->
      let q = st.tx.(ch) in
      q.tail - q.head < e.capacity
    | _ -> true)
    && from (k + 1)
  in
  from p.first.(pc)

let issue e pc cycle =
  let p = e.prog in
  e.issued.(pc) <- e.issued.(pc) + 1;
  (* every operation reads the register file as it was at issue: its
     write lands no earlier than the next cycle *)
  for k = p.first.(pc) to p.first.(pc + 1) - 1 do
    let op = p.ops.(k) in
    Semantics.exec e.st op;
    if op.dst >= 0 then pend e (cycle + p.lat.(k)) op
  done;
  match p.ctl.(pc) with
  | Inst.Next -> e.pc <- pc + 1
  | Inst.Halt -> e.halted <- true
  | Inst.Jump l -> e.pc <- l
  | Inst.CJump { cond; if_zero; target } ->
    let c = e.st.i.(cond.Vreg.id) in
    let taken = if if_zero then c = 0 else c <> 0 in
    e.pc <- (if taken then target else pc + 1)
  | Inst.CtrSet { ctr; value } ->
    e.counters.(ctr) <- value;
    e.pc <- pc + 1
  | Inst.CtrSetR { ctr; reg } ->
    e.counters.(ctr) <- e.st.i.(reg.Vreg.id);
    e.pc <- pc + 1
  | Inst.CtrLoop { ctr; target } ->
    e.counters.(ctr) <- e.counters.(ctr) - 1;
    e.pc <- (if e.counters.(ctr) > 0 then target else pc + 1)
  | Inst.CtrJumpLt { ctr; bound; target } ->
    e.pc <- (if e.counters.(ctr) < bound then target else pc + 1)

let step e cycle =
  land_due e cycle;
  let pc = e.pc in
  if e.halted then false
  else if pc < 0 || pc >= Array.length e.prog.ctl then begin
    e.halted <- true;
    false
  end
  else begin
    if (not e.blocking) || ready e pc then issue e pc cycle
    else e.stalls <- e.stalls + 1;
    true
  end

let run e ~max_cycles =
  let cycle = ref 0 in
  while not e.halted do
    if !cycle > max_cycles then raise (Cycle_limit !cycle);
    (* leaving the program halts without spending a cycle; a [Halt]
       word spends its own *)
    if step e !cycle then incr cycle
  done;
  !cycle

let drain e cycle =
  for t = cycle to cycle + e.mask do
    land_due e t
  done

let halted e = e.halted
let stalls e = e.stalls
let state e = e.st

(* [f n kind] for every operation of every word, [n] the word's
   issues. *)
let iter_issued e f =
  let p = e.prog in
  Array.iteri
    (fun pc n ->
      for k = p.first.(pc) to p.first.(pc + 1) - 1 do
        f n p.ops.(k).kind
      done)
    e.issued

let sum_issued e f =
  let total = ref 0 in
  iter_issued e (fun n k -> total := !total + (n * f k));
  !total

let flops e = sum_issued e (fun k -> Bool.to_int (Opkind.is_flop k))
let dyn_ops e = sum_issued e (fun _ -> 1)

let res_busy e =
  let m = e.prog.machine in
  let busy = Array.make (Machine.num_resources m) 0 in
  iter_issued e (fun n k ->
      List.iter
        (fun (_, r) -> busy.(r) <- busy.(r) + n)
        (Machine.reservation m k));
  busy

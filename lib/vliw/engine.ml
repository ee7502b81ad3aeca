(** The decoded cell engine behind {!Sim} and {!Array_sim}.

    A program is decoded once per run: every instruction word becomes
    flat arrays, and each operation's latency, reservation and flop
    flag are resolved from the machine description once per static
    operation instead of once per issue. Pending register writes wait
    in a ring of [2^k] slots indexed by due cycle, where [2^k] exceeds
    the program's largest latency, so a slot is never reused before it
    lands. The timing contract is DESIGN.md Section 6. *)

open Sp_ir
module Machine = Sp_machine.Machine
module Opkind = Sp_machine.Opkind

exception Write_conflict of string

type word = {
  ops : Op.t array;
  lat : int array;  (** per operation: [max 1 latency] *)
  res : int array;  (** the resource id of every reservation entry *)
  flops : int;
  recvs : int array;  (** channels the word dequeues from *)
  sends : int array;  (** channels the word enqueues to *)
  ctl : Inst.ctl;
}

type program = { words : word array; slots : int; nres : int; regs : int }

(* What a decoded program is filled from before its words are written:
   a static constant, since OCaml 5 forces a minor collection to make
   an array of more than 256 words from a young element *)
let blank =
  { ops = [||]; lat = [||]; res = [||]; flops = 0; recvs = [||];
    sends = [||]; ctl = Inst.Next }

let decode (m : Machine.t) (code : Prog.t) =
  let longest = ref 1 in
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
  let word (inst : Inst.t) =
    List.iter name_op inst.Inst.ops;
    (match inst.Inst.ctl with
    | Inst.CJump { cond = v; _ } | Inst.CtrSetR { reg = v; _ } -> name v
    | _ -> ());
    let kinds = List.map (fun (op : Op.t) -> op.Op.kind) inst.Inst.ops in
    let lat k =
      let l = max 1 (Machine.latency m k) in
      longest := max !longest l;
      l
    in
    let chans f = Array.of_list (List.filter_map f kinds) in
    {
      ops = Array.of_list inst.Inst.ops;
      lat = Array.of_list (List.map lat kinds);
      res =
        Array.of_list
          (List.concat_map
             (fun k -> List.map snd (Machine.reservation m k))
             kinds);
      flops = List.length (List.filter Opkind.is_flop kinds);
      recvs = chans (function Opkind.Recv ch -> Some ch | _ -> None);
      sends = chans (function Opkind.Send ch -> Some ch | _ -> None);
      ctl = inst.Inst.ctl;
    }
  in
  let words = Array.make (Prog.length code) blank in
  Array.iteri (fun i inst -> words.(i) <- word inst) code.Prog.code;
  (* the smallest power of two above the longest latency *)
  let rec slots k = if k > !longest then k else slots (2 * k) in
  { words; slots = slots 2; nres = Machine.num_resources m; regs = !regs }

let regs prog = prog.regs

type io = {
  recv : int -> float;
  send : int -> float -> unit;
  can_recv : int -> bool;
  can_send : int -> bool;
}

(* The writes due in one cycle, in parallel arrays; [n] are live. *)
type slot = {
  mutable dst : Vreg.t array;
  mutable v : Semantics.value array;
  mutable n : int;
}

(* Stores issued this cycle, committed in issue order at its end. *)
type stores = {
  mutable seg : Memseg.t array;
  mutable idx : int array;
  mutable sv : Semantics.value array;
  mutable sn : int;
}

type t = {
  prog : program;
  st : Machine_state.t;
  ctx : Semantics.ctx;
  io : io;
  label : string;
  counters : int array;
  ring : slot array;
  mask : int;
  stores : stores;
  issued : int array;  (** per pc: how often its word issued *)
  mutable pc : int;
  mutable halted : bool;
  mutable stalls : int;
}

(* [a] doubled in length (to at least 4), [x] filling the new half *)
let grow a x =
  let a' = Array.make (max 4 (2 * Array.length a)) x in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let create ?(ctrs = 16) ?(label = "") ?io prog st =
  let io =
    match io with
    | Some io -> io
    | None ->
      {
        recv = Machine_state.recv st;
        send = Machine_state.send st;
        can_recv = (fun _ -> true);
        can_send = (fun _ -> true);
      }
  in
  let b = { seg = [||]; idx = [||]; sv = [||]; sn = 0 } in
  let buffer s i v =
    if b.sn = Array.length b.idx then begin
      b.seg <- grow b.seg s;
      b.idx <- grow b.idx i;
      b.sv <- grow b.sv v
    end;
    b.seg.(b.sn) <- s;
    b.idx.(b.sn) <- i;
    b.sv.(b.sn) <- v;
    b.sn <- b.sn + 1
  in
  {
    prog;
    st;
    ctx = Machine_state.ctx ~st:buffer ~recv:io.recv ~send:io.send st;
    io;
    label;
    counters = Array.make ctrs 0;
    ring = Array.init prog.slots (fun _ -> { dst = [||]; v = [||]; n = 0 });
    mask = prog.slots - 1;
    stores = b;
    issued = Array.make (Array.length prog.words) 0;
    pc = 0;
    halted = false;
    stalls = 0;
  }

(* Land the writes due at cycle [t]. One register is written at most
   once per slot, so their order does not matter. *)
let land_due e t =
  let s = e.ring.(t land e.mask) in
  for j = 0 to s.n - 1 do
    Machine_state.write e.st s.dst.(j) s.v.(j)
  done;
  s.n <- 0

let pend e due (d : Vreg.t) v =
  let s = e.ring.(due land e.mask) in
  for j = 0 to s.n - 1 do
    if s.dst.(j).Vreg.id = d.Vreg.id then
      raise
        (Write_conflict
           (Printf.sprintf "%stwo writes to %s due at cycle %d" e.label
              (Vreg.to_string d) due))
  done;
  if s.n = Array.length s.dst then begin
    s.dst <- grow s.dst d;
    s.v <- grow s.v v
  end;
  s.dst.(s.n) <- d;
  s.v.(s.n) <- v;
  s.n <- s.n + 1

let rec all_ready ready chs k =
  k >= Array.length chs || (ready chs.(k) && all_ready ready chs (k + 1))

let issue e w cycle =
  e.issued.(e.pc) <- e.issued.(e.pc) + 1;
  (* every operation reads the register file as it was at issue: its
     write lands no earlier than the next cycle *)
  for k = 0 to Array.length w.ops - 1 do
    let op = w.ops.(k) in
    match (Semantics.exec e.ctx op, op.Op.dst) with
    | Some v, Some d -> pend e (cycle + w.lat.(k)) d v
    | None, None | Some _, None -> ()
    | None, Some _ -> raise (Semantics.Type_error "dst op produced no value")
  done;
  let b = e.stores in
  for j = 0 to b.sn - 1 do
    Machine_state.store e.st b.seg.(j) b.idx.(j) b.sv.(j)
  done;
  b.sn <- 0;
  match w.ctl with
  | Inst.Next -> e.pc <- e.pc + 1
  | Inst.Halt -> e.halted <- true
  | Inst.Jump l -> e.pc <- l
  | Inst.CJump { cond; if_zero; target } ->
    let c = Semantics.as_i (Machine_state.read e.st cond) in
    let taken = if if_zero then c = 0 else c <> 0 in
    e.pc <- (if taken then target else e.pc + 1)
  | Inst.CtrSet { ctr; value } ->
    e.counters.(ctr) <- value;
    e.pc <- e.pc + 1
  | Inst.CtrSetR { ctr; reg } ->
    e.counters.(ctr) <- Semantics.as_i (Machine_state.read e.st reg);
    e.pc <- e.pc + 1
  | Inst.CtrLoop { ctr; target } ->
    e.counters.(ctr) <- e.counters.(ctr) - 1;
    e.pc <- (if e.counters.(ctr) > 0 then target else e.pc + 1)
  | Inst.CtrJumpLt { ctr; bound; target } ->
    e.pc <- (if e.counters.(ctr) < bound then target else e.pc + 1)

let step e cycle =
  land_due e cycle;
  if e.halted then false
  else if e.pc < 0 || e.pc >= Array.length e.prog.words then begin
    e.halted <- true;
    false
  end
  else begin
    let w = e.prog.words.(e.pc) in
    if
      all_ready e.io.can_recv w.recvs 0 && all_ready e.io.can_send w.sends 0
    then issue e w cycle
    else e.stalls <- e.stalls + 1;
    true
  end

let drain e cycle =
  for t = cycle to cycle + e.mask do
    land_due e t
  done

let halted e = e.halted
let stalls e = e.stalls
let state e = e.st

let sum_issued e f =
  let total = ref 0 in
  Array.iteri
    (fun pc n -> total := !total + (n * f e.prog.words.(pc)))
    e.issued;
  !total

let flops e = sum_issued e (fun w -> w.flops)
let dyn_ops e = sum_issued e (fun w -> Array.length w.ops)

let res_busy e =
  let busy = Array.make e.prog.nres 0 in
  Array.iteri
    (fun pc n ->
      Array.iter (fun r -> busy.(r) <- busy.(r) + n) e.prog.words.(pc).res)
    e.issued;
  busy

(** Co-simulation of a linear array of cells — the Warp machine proper.

    The paper's evaluation reports array-level rates for homogeneous
    programs ("a Warp array typically consists of ten processors"),
    accounting one-tenth per cell because such programs "never stall on
    input or output except for a short setup time". This module lets us
    {e check} that claim rather than assume it: each cell runs its own
    VLIW program; channel 0/1 outputs of cell [k] feed channel 0/1
    inputs of cell [k+1] through bounded FIFO queues (512 words on
    Warp), with the real blocking semantics — a cell stalls for the
    cycle when any receive finds its queue empty or any send finds it
    full.

    Stalling is per-instruction: a stalled instruction re-issues the
    next cycle. This is slightly coarser than Warp's hardware (which
    stalled per-queue-access), and conservative: measured array rates
    are a lower bound.

    Each cell is one {!Engine}, the same issue loop {!Sim} runs; a
    word stalls when its decoded channel list finds a receive queue
    empty or a send queue full. *)

open Sp_ir

exception Write_conflict = Sim.Write_conflict
exception Cycle_limit = Sim.Cycle_limit

type result = {
  cycles : int;            (** cycles until every cell halted *)
  flops : int;             (** total over the array *)
  per_cell_stalls : int array;
  states : Machine_state.t array;
  outputs : float list array;
      (** what the last cell's output queues received, per channel *)
}

let run ?(cells = 10) ?(queue_capacity = 512) ?(feed = [ []; [] ])
    ?(max_cycles = 100_000_000) ?(ctrs = 16)
    ?(init = fun (_ : int) (_ : Machine_state.t) -> ())
    (m : Sp_machine.Machine.t) (p : Program.t) (codes : Prog.t array) :
    result =
  if Array.length codes = 0 then invalid_arg "Array_sim.run: no cells";
  let progs = Array.map (Engine.decode m) codes in
  (* queues.(k) feeds cell k; queues.(cells) collects the last cell's
     output — an unbounded sink (the host interface), so a finite
     terminal queue cannot deadlock the array *)
  let queues =
    Array.init (cells + 1) (fun k ->
        (* preload the first cell's input *)
        let feed ch =
          if k = 0 then Option.value (List.nth_opt feed ch) ~default:[] else []
        in
        [| Machine_state.chan (feed 0); Machine_state.chan (feed 1) |])
  in
  let mk_cell k =
    let prog = progs.(k mod Array.length progs) in
    let st = Machine_state.create ~regs:(Engine.regs prog) p in
    init k st;
    Machine_state.link st ~rx:queues.(k) ~tx:queues.(k + 1);
    let capacity = if k + 1 = cells then max_int else queue_capacity in
    Engine.create ~ctrs ~label:(Printf.sprintf "cell %d: " k) ~capacity prog
      st
  in
  let arr = Array.init cells mk_cell in
  let cycle = ref 0 in
  while (not (Array.for_all Engine.halted arr)) && !cycle <= max_cycles do
    Array.iter (fun e -> ignore (Engine.step e !cycle)) arr;
    incr cycle
  done;
  if !cycle > max_cycles then raise (Cycle_limit !cycle);
  (* drain remaining in-flight writes *)
  Array.iter (fun e -> Engine.drain e !cycle) arr;
  {
    cycles = !cycle;
    flops = Array.fold_left (fun a e -> a + Engine.flops e) 0 arr;
    per_cell_stalls = Array.map Engine.stalls arr;
    states = Array.map Engine.state arr;
    outputs = Array.map Machine_state.chan_to_list queues.(cells);
  }

let mflops (m : Sp_machine.Machine.t) (r : result) =
  Sp_machine.Machine.mflops m ~flops:r.flops ~cycles:r.cycles

(** Cycle-accurate VLIW simulator.

    Timing contract (shared with the scheduler's dependence model, see
    DESIGN.md Section 6):

    - one instruction issues per cycle; every micro-operation in it
      reads its source registers at issue;
    - a result with latency [l] becomes readable exactly [l] cycles
      after issue (in-flight values are invisible before that);
    - stores become visible to loads on the {e following} cycle; a load
      issued in the same instruction as a store to the same address
      reads the old value;
    - control (jumps, hardware loop counters) takes effect on the next
      cycle, with no delay slots;
    - channel receives dequeue at issue, sends enqueue at issue.

    The simulator deliberately performs no resource checking — that is
    {!Check.check_prog}'s job — but it does verify the register
    write-port discipline: two in-flight writes landing on the same
    register in the same cycle indicate a scheduling bug and raise
    {!Write_conflict}.

    The issue loop is {!Engine}'s, run over one cell and decoded once
    per run; {!Array_sim} steps the same engine per cell. *)

open Sp_ir

exception Write_conflict = Engine.Write_conflict
exception Cycle_limit = Engine.Cycle_limit

type result = {
  state : Machine_state.t;
  cycles : int;
  flops : int;
  dyn_ops : int;
  res_busy : int array;
      (** issue-slot uses per resource id, accumulated over the whole
          execution from each issued operation's reservation *)
}


let run ?(channels = 2) ?(inputs = []) ?(max_cycles = 100_000_000)
    ?(ctrs = 16) ?(init = fun (_ : Machine_state.t) -> ())
    (m : Sp_machine.Machine.t) (p : Program.t) (code : Prog.t) : result =
  let prog = Engine.decode m code in
  let st = Machine_state.create ~channels ~regs:(Engine.regs prog) p in
  List.iteri (fun ch xs -> Machine_state.set_input st ch xs) inputs;
  init st;
  let e = Engine.create ~ctrs prog st in
  let cycle = Engine.run e ~max_cycles in
  (* drain remaining in-flight writes so the final state is complete *)
  Engine.drain e cycle;
  let flops = Engine.flops e and dyn = Engine.dyn_ops e in
  Sp_obs.Trace.instant "sim.run"
    ~args:(fun () ->
      [
        ("cycles", Sp_obs.Trace.I cycle);
        ("dyn_ops", Sp_obs.Trace.I dyn);
        ("flops", Sp_obs.Trace.I flops);
      ]);
  {
    state = st;
    cycles = cycle;
    flops;
    dyn_ops = dyn;
    res_busy = Engine.res_busy e;
  }

(** MFLOPS achieved by a simulation on machine [m]. *)
let mflops (m : Sp_machine.Machine.t) (r : result) =
  Sp_machine.Machine.mflops m ~flops:r.flops ~cycles:r.cycles

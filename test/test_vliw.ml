(** Tests for the VLIW target: assembler, the simulators' timing
    contract and pending-write ring, the static resource checker, and a
    golden of both simulators' results on the repository's workloads. *)

open Sp_ir
module Inst = Sp_vliw.Inst
module Prog = Sp_vliw.Prog
module Sim = Sp_vliw.Sim
module Array_sim = Sp_vliw.Array_sim
module Check = Sp_vliw.Check
module Opkind = Sp_machine.Opkind

let m = Sp_machine.Machine.warp

(* a tiny hand-assembled program over a one-segment context *)
type ctx = {
  p : Program.t;
  a : Memseg.t;
  sup : Vreg.Supply.supply;
  ops : Op.Supply.supply;
}

let mk_ctx () =
  let b = Builder.create "ctx" in
  let a = Builder.farray b "a" 16 in
  let p = Builder.finish b in
  { p; a; sup = p.Program.vregs; ops = p.Program.ops }

let freg c = Vreg.Supply.fresh c.sup Vreg.F

let fconst c x dst = Op.Supply.mk c.ops ~dst ~imm:(Op.Fimm x) Opkind.Fconst
let fadd c dst x y = Op.Supply.mk c.ops ~dst ~srcs:[ x; y ] Opkind.Fadd

let store c v off =
  Op.Supply.mk c.ops ~srcs:[ v ]
    ~addr:{ Op.seg = c.a; base = None; idx = None; off; sub = None }
    Opkind.Store

let run c code = Sim.run m c.p code

let test_write_latency_visibility () =
  (* an adder result is invisible before its 7-cycle latency elapses *)
  let c = mk_ctx () in
  let x = freg c and y = freg c and z = freg c in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm [ fconst c 1.5 x; fconst c 0.25 y ];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [ fadd c y x x ];      (* issues at 2, lands at 9 *)
  Prog.Asm.inst asm [ fadd c z y y ];      (* reads y at 3: still 0.25! *)
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [ store c y 0 ];       (* at 10: sees 3.0 *)
  Prog.Asm.inst asm [ store c z 1 ];       (* z = 0 + 0 *)
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  let r = run c (Prog.Asm.finish asm) in
  let arr = Machine_state.get_farray r.Sim.state c.a in
  Alcotest.(check (float 0.0)) "landed value" 3.0 arr.(0);
  Alcotest.(check (float 0.0)) "early read saw the old value" 0.5 arr.(1)

let test_store_load_same_cycle () =
  (* a load issued with a store to the same address reads the OLD value *)
  let c = mk_ctx () in
  let one = freg c and got = freg c in
  let load dst off =
    Op.Supply.mk c.ops ~dst
      ~addr:{ Op.seg = c.a; base = None; idx = None; off; sub = None }
      Opkind.Load
  in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm [ fconst c 9.0 one ];
  Prog.Asm.inst asm [];
  (* same instruction: store a[0] := 9.0 and load a[0] *)
  Prog.Asm.inst asm [ store c one 0; load got 0 ];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [ store c got 1 ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  let r = run c (Prog.Asm.finish asm) in
  let arr = Machine_state.get_farray r.Sim.state c.a in
  Alcotest.(check (float 0.0)) "store landed" 9.0 arr.(0);
  Alcotest.(check (float 0.0)) "load saw the old value" 0.0 arr.(1)

let test_ctr_loop () =
  (* hardware counter: body executes exactly [n] times *)
  let c = mk_ctx () in
  let acc = freg c and one = freg c in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm [ fconst c 1.0 one ];
  Prog.Asm.inst asm [ fconst c 0.0 acc ];
  Prog.Asm.inst asm ~ctl:(Inst.CtrSet { ctr = 0; value = 5 }) [];
  let top = Prog.Asm.fresh_label asm in
  Prog.Asm.place asm top;
  Prog.Asm.inst asm [ fadd c acc acc one ];
  (* wait out the adder before the next accumulation *)
  for _ = 1 to 6 do
    Prog.Asm.inst asm []
  done;
  Prog.Asm.attach_ctl asm (Inst.CtrLoop { ctr = 0; target = top });
  Prog.Asm.inst asm [ store c acc 0 ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  let r = run c (Prog.Asm.finish asm) in
  let arr = Machine_state.get_farray r.Sim.state c.a in
  Alcotest.(check (float 0.0)) "5 iterations" 5.0 arr.(0)

let test_ctr_jump_lt () =
  let c = mk_ctx () in
  let flag = freg c in
  let asm = Prog.Asm.create () in
  let skip = Prog.Asm.fresh_label asm in
  Prog.Asm.inst asm [ fconst c 0.0 flag ];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm ~ctl:(Inst.CtrSet { ctr = 1; value = 0 }) [];
  Prog.Asm.inst asm ~ctl:(Inst.CtrJumpLt { ctr = 1; bound = 1; target = skip }) [];
  Prog.Asm.inst asm [ fconst c 7.0 flag ]; (* skipped *)
  Prog.Asm.place asm skip;
  Prog.Asm.inst asm [ store c flag 0 ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  let r = run c (Prog.Asm.finish asm) in
  let arr = Machine_state.get_farray r.Sim.state c.a in
  Alcotest.(check (float 0.0)) "guard skipped the body" 0.0 arr.(0)

let test_write_conflict_detected () =
  let c = mk_ctx () in
  let x = freg c in
  let asm = Prog.Asm.create () in
  (* two writes landing on x in the same cycle *)
  Prog.Asm.inst asm [ fconst c 1.0 x; fconst c 2.0 x ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  let code = Prog.Asm.finish asm in
  match run c code with
  | exception Sim.Write_conflict _ -> ()
  | _ -> Alcotest.fail "expected a write-port conflict"

let test_cycle_limit () =
  (* both simulators report the cycle reached, one past the limit *)
  let c = mk_ctx () in
  let asm = Prog.Asm.create () in
  let top = Prog.Asm.fresh_label asm in
  Prog.Asm.place asm top;
  Prog.Asm.inst asm ~ctl:(Inst.Jump top) [];
  let code = Prog.Asm.finish asm in
  (match Sim.run ~max_cycles:1000 m c.p code with
  | exception Sim.Cycle_limit n -> Alcotest.(check int) "sim" 1001 n
  | _ -> Alcotest.fail "expected the cycle limit to fire");
  match Array_sim.run ~cells:2 ~max_cycles:1000 m c.p [| code |] with
  | exception Array_sim.Cycle_limit n ->
    Alcotest.(check int) "array" 1001 n
  | _ -> Alcotest.fail "expected the array's cycle limit to fire"

let test_unplaced_label () =
  let rejected label l =
    let asm = Prog.Asm.create () in
    ignore (Prog.Asm.fresh_label asm);
    Prog.Asm.inst asm ~ctl:(Inst.Jump l) [];
    match Prog.Asm.finish asm with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s must be rejected" label
  in
  rejected "an unplaced label" 0;
  rejected "a label of another assembler" 7

(** Where the assembler's labels resolve, and when [attach_ctl] needs a
    word of its own. *)
let test_asm_labels () =
  let jumps (code : Prog.t) =
    Array.to_list
      (Array.map
         (fun (i : Inst.t) ->
           match i.Inst.ctl with Inst.Jump l -> l | Inst.Next -> -1 | _ -> -2)
         code.Prog.code)
  in
  let check label expect asm =
    Alcotest.(check (list int)) label expect (jumps (Prog.Asm.finish asm))
  in
  (* a label at the current address: the jump takes a fresh word *)
  let asm = Prog.Asm.create () in
  let l = Prog.Asm.fresh_label asm in
  Prog.Asm.inst asm [];
  Prog.Asm.place asm l;
  Prog.Asm.attach_ctl asm (Inst.Jump l);
  check "label here: a fresh word" [ -1; 1 ] asm;
  (* labels only behind: the jump rides on the last word *)
  let asm = Prog.Asm.create () in
  let l = Prog.Asm.fresh_label asm in
  Prog.Asm.place asm l;
  Prog.Asm.inst asm [];
  Prog.Asm.attach_ctl asm (Inst.Jump l);
  check "label behind: attached" [ 0 ] asm;
  (* placed twice: the newest placement *)
  let asm = Prog.Asm.create () in
  let l = Prog.Asm.fresh_label asm in
  Prog.Asm.place asm l;
  Prog.Asm.inst asm [];
  Prog.Asm.place asm l;
  Prog.Asm.inst asm ~ctl:(Inst.Jump l) [];
  check "placed twice: the newest" [ -1; 1 ] asm;
  (* placed after the last word: that address *)
  let asm = Prog.Asm.create () in
  let l = Prog.Asm.fresh_label asm in
  Prog.Asm.inst asm ~ctl:(Inst.Jump l) [];
  Prog.Asm.inst asm [];
  Prog.Asm.place asm l;
  check "placed after the end" [ 2; -1 ] asm

let test_checker_flags_oversubscription () =
  let c = mk_ctx () in
  let x = freg c and y = freg c and z = freg c and w = freg c in
  let asm = Prog.Asm.create () in
  (* two adds in one instruction on the single adder *)
  Prog.Asm.inst asm [ fadd c x y y; fadd c z w w ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  let code = Prog.Asm.finish asm in
  match Check.check_prog m code with
  | [ v ] ->
    Alcotest.(check string) "resource" "fadd" v.Check.resource;
    Alcotest.(check int) "used" 2 v.Check.used
  | _ -> Alcotest.fail "expected exactly one violation"

let test_checker_accepts_legal () =
  let c = mk_ctx () in
  let x = freg c and y = freg c in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm [ fadd c x y y ];
  Prog.Asm.inst asm [ fadd c y x x ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  Alcotest.(check int) "no violations" 0
    (List.length (Check.check_prog m (Prog.Asm.finish asm)))

let test_stats () =
  let c = mk_ctx () in
  let x = freg c and y = freg c in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm [ fconst c 1.0 x; fconst c 2.0 y ];
  Prog.Asm.inst asm [];
  Prog.Asm.inst asm [ store c x 0 ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  let st = Sp_vliw.Stats.compute m (Prog.Asm.finish asm) in
  Alcotest.(check int) "words" 4 st.Sp_vliw.Stats.words;
  Alcotest.(check int) "ops" 3 st.Sp_vliw.Stats.ops;
  Alcotest.(check int) "empty" 2 st.Sp_vliw.Stats.empty_words;
  Alcotest.(check int) "peak" 2 st.Sp_vliw.Stats.max_ops_per_word;
  Alcotest.(check (float 1e-9)) "mean" 0.75 st.Sp_vliw.Stats.mean_ops_per_word;
  Alcotest.(check (option int)) "mem uses" (Some 1)
    (List.assoc_opt "mem" st.Sp_vliw.Stats.resource_use)

(* ---- the pending-write ring ------------------------------------------ *)

let iconst c x dst = Op.Supply.mk c.ops ~dst ~imm:(Op.Iimm x) Opkind.Iconst
let ireg c = Vreg.Supply.fresh c.sup Vreg.I

(* [k] empty words *)
let gap asm k =
  for _ = 1 to k do
    Prog.Asm.inst asm []
  done

(* Run [code] on the simulator and on a one-cell array, which step the
   same engine from different loops. *)
let both c code =
  let sim = Sim.run m c.p code in
  let arr = Array_sim.run ~cells:1 m c.p [| code |] in
  [ ("sim", sim.Sim.state); ("array", arr.Array_sim.states.(0)) ]

let expect_conflict c code =
  (match Sim.run m c.p code with
  | exception Sim.Write_conflict _ -> ()
  | _ -> Alcotest.fail "sim: expected a write-port conflict");
  match Array_sim.run ~cells:1 m c.p [| code |] with
  | exception Array_sim.Write_conflict _ -> ()
  | _ -> Alcotest.fail "array: expected a write-port conflict"

let test_cross_cycle_conflict () =
  (* an fmul issued at 1 and an fconst issued at 7 both land on x at 8;
     a third write, due at 4, is queued between them, so remembering
     only the latest due cycle per register would miss the clash *)
  let c = mk_ctx () in
  let x = freg c and y = freg c in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm [ fconst c 3.0 y ];
  Prog.Asm.inst asm [ Op.Supply.mk c.ops ~dst:x ~srcs:[ y; y ] Opkind.Fmul ];
  gap asm 1;
  Prog.Asm.inst asm [ fconst c 1.0 x ];
  gap asm 3;
  Prog.Asm.inst asm [ fconst c 2.0 x ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  expect_conflict c (Prog.Asm.finish asm)

let test_latency_beyond_16 () =
  (* an idiv (latency 17) issued at 1 lands at 18: a store at 17 still
     sees the old value, one at 18 the quotient *)
  let b = Builder.create "div" in
  let q = Builder.iarray b "q" 4 in
  let p = Builder.finish b in
  let c = { p; a = q; sup = p.Program.vregs; ops = p.Program.ops } in
  let num = ireg c and den = ireg c and r = ireg c in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm [ iconst c 100 num; iconst c 7 den; iconst c 5 r ];
  Prog.Asm.inst asm
    [ Op.Supply.mk c.ops ~dst:r ~srcs:[ num; den ] Opkind.Idiv ];
  gap asm 15;
  Prog.Asm.inst asm [ store c r 0 ];
  Prog.Asm.inst asm [ store c r 1 ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  List.iter
    (fun (who, st) ->
      Alcotest.(check (array int))
        (who ^ ": old value at issue + 16, quotient at issue + 17")
        [| 5; 14; 0; 0 |]
        (Machine_state.get_iarray st q))
    (both c (Prog.Asm.finish asm))

let test_write_in_flight_at_halt () =
  (* the fadd issued just before Halt lands 7 cycles later, after the
     last word: the drain must still deliver it *)
  let c = mk_ctx () in
  let x = freg c and y = freg c in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm [ fconst c 1.5 x ];
  Prog.Asm.inst asm [ fadd c y x x ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  List.iter
    (fun (who, st) ->
      Alcotest.(check (float 0.0))
        (who ^ ": in-flight write reaches the register file")
        3.0
        (match Machine_state.read st y with
        | Machine_state.VF x -> x
        | Machine_state.VI _ -> Float.nan))
    (both c (Prog.Asm.finish asm))

(* ---- runtime checks both engines keep ------------------------------- *)

(* [f] on [Interp.run] and on [Sim.run] of [p]'s compiled code *)
let on_both_engines (p : Program.t) f =
  let code = (Sp_core.Compile.program m p).Sp_core.Compile.code in
  f "interp" (fun () -> ignore (Interp.run p));
  f "sim" (fun () -> ignore (Sim.run m p code))

let raises_on_both exn p =
  on_both_engines p (fun who run -> Alcotest.check_raises who exn run)

let test_out_of_bounds () =
  let load =
    let b = Builder.create "load" in
    let a = Builder.farray b "a" 4 in
    let out = Builder.farray b "out" 1 in
    Builder.store b ~off:0 out (Builder.load b ~off:4 a);
    Builder.finish b
  in
  raises_on_both (Machine_state.Out_of_bounds "a[4] (size 4)") load;
  let store =
    let b = Builder.create "store" in
    let a = Builder.farray b "a" 4 in
    Builder.store b ~off:(-1) a (Builder.fconst b 1.0);
    Builder.finish b
  in
  raises_on_both (Machine_state.Out_of_bounds "a[-1] (size 4)") store

let test_unwritten_float_read () =
  let b = Builder.create "unwritten" in
  let out = Builder.farray b "out" 1 in
  let x = Builder.fresh_f b in
  Builder.store b ~off:0 out (Builder.fadd b x (Builder.fconst b 1.0));
  raises_on_both
    (Machine_state.Type_error "expected float register")
    (Builder.finish b)

(** The decode-time class check fires on an operation that never runs:
    an [Fadd] reading an I register, after the simulator's [Halt] and
    in the interpreter's zero-trip loop. *)
let test_misclassed_source () =
  let c = mk_ctx () in
  let i = ireg c and f = freg c in
  let bad = Op.Supply.mk c.ops ~dst:f ~srcs:[ i; f ] Opkind.Fadd in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  Prog.Asm.inst asm [ bad ];
  let code = Prog.Asm.finish asm in
  let raises who run =
    match run () with
    | exception Machine_state.Type_error _ -> ()
    | _ -> Alcotest.failf "%s: a mis-classed source must fail at decode" who
  in
  raises "sim" (fun () -> ignore (Sim.run m c.p code));
  raises "array" (fun () -> ignore (Array_sim.run ~cells:1 m c.p [| code |]));
  let b = Builder.create "misclassed" in
  let i = Builder.iconst b 1 in
  let f = Builder.fresh_f b in
  Builder.for_ b (Region.Const 0) (fun _ ->
      ignore (Builder.emit b ~dst:f ~srcs:[ i; f ] Opkind.Fadd));
  let p = Builder.finish b in
  raises "interp" (fun () -> ignore (Interp.run p))

(* A compiled loop whose trip count is a run-time register set to [n],
   so that only the constant differs between two trip counts. Its body
   runs every kind of arithmetic the executor has. *)
let daxpy n =
  let b = Builder.create "daxpy" in
  let x = Builder.farray b "x" 1000 and y = Builder.farray b "y" 1000 in
  let k = Builder.fconst b 2.5 and one = Builder.fconst b 1.0 in
  Builder.for_reg b (Builder.iconst b n) (fun i ->
      let v = Builder.load_iv b x i 0 in
      let w = Builder.fadd b (Builder.fmul b v k) (Builder.load_iv b y i 0) in
      let m =
        Builder.fsel b (Builder.fcmp b Opkind.Gt v k) (Builder.fmin b v w)
          (Builder.fmax b v (Builder.fsub b w one))
      in
      let r = Builder.frecs b (Builder.fadd b (Builder.fabs b m) one) in
      let q =
        Builder.frsqs b (Builder.fadd b (Builder.fabs b (Builder.fneg b r)) one)
      in
      let j = Builder.ftoi b (Builder.fmul b m k) in
      let j =
        Builder.isel b (Builder.icmp b Opkind.Lt j i) j (Builder.iadd b j i)
      in
      Builder.store_iv b y i 0 (Builder.fadd b q (Builder.itof b j)));
  let p = Builder.finish b in
  let init st = Machine_state.init_farray st x float_of_int in
  (p, init, (Sp_core.Compile.program m p).Sp_core.Compile.code)

(** Ten times the iterations allocate the same: neither engine
    allocates per executed operation, decode and set-up included. *)
let test_no_allocation_per_op () =
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let p1, init1, c1 = daxpy 100 and p2, init2, c2 = daxpy 1000 in
  Alcotest.(check int) "same code size" (Prog.length c1) (Prog.length c2);
  let s1 = Sim.run ~init:init1 m p1 c1 and s2 = Sim.run ~init:init2 m p2 c2 in
  Alcotest.(check bool) "ten times the cycles" true
    (s2.Sim.cycles > 5 * s1.Sim.cycles);
  Alcotest.(check (float 0.)) "Sim.run"
    (words (fun () -> Sim.run ~init:init1 m p1 c1))
    (words (fun () -> Sim.run ~init:init2 m p2 c2));
  Alcotest.(check (float 0.)) "Interp.run"
    (words (fun () -> Interp.run ~init:init1 p1))
    (words (fun () -> Interp.run ~init:init2 p2))

(* ---- simulation golden ---------------------------------------------- *)

let state_md5 = Golden.state_md5

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let sim_line b label ?(inputs = []) ~init p =
  let code = (Sp_core.Compile.program m p).Sp_core.Compile.code in
  let r = Sim.run ~inputs ~init m p code in
  Printf.bprintf b "%s cycles=%d flops=%d dyn=%d busy=%s state=%s\n" label
    r.Sim.cycles r.Sim.flops r.Sim.dyn_ops (ints r.Sim.res_busy)
    (state_md5 p r.Sim.state)

(** Cycles, flops, dynamic operations, per-resource busy counts and
    the final memory and outputs of every Livermore kernel, population
    program and Wgen seed 1–500, plus the Table 4-1 ten-cell
    co-simulation: the simulators' whole observable behaviour on the
    repository's workloads. A change to how they execute must leave
    this file as it is. *)
let test_sim_golden () =
  let b = Buffer.create 65536 in
  let kernel (k : Sp_kernels.Kernel.t) =
    let p = Sp_kernels.Kernel.program k in
    sim_line b k.Sp_kernels.Kernel.name ~inputs:k.Sp_kernels.Kernel.inputs
      ~init:(fun st -> k.Sp_kernels.Kernel.init st p)
      p
  in
  List.iter kernel Sp_kernels.Livermore.all;
  List.iter
    (fun (e : Sp_kernels.Suite.entry) -> kernel e.Sp_kernels.Suite.kernel)
    Sp_kernels.Suite.all;
  for seed = 1 to 500 do
    let p =
      Sp_lang.Lower.compile_source
        (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed))
    in
    sim_line b (Printf.sprintf "wgen/%d" seed)
      ~init:(fun st -> Sp_camp.Oracle.init_state st p)
      p
  done;
  (* the bench --table 4-1 co-simulation row *)
  let k, _ = List.hd Sp_kernels.Apps.all in
  let p = Sp_kernels.Kernel.program k in
  let code = (Sp_core.Compile.program m p).Sp_core.Compile.code in
  let n = 48 * 48 in
  let stream =
    List.init n (fun i -> 0.5 +. (0.125 *. float_of_int (i mod 31)))
  in
  let feed = [ stream; List.map (fun x -> 0.125 *. x) stream ] in
  let init _ st = Sp_kernels.Kernel.init_all_arrays ~seed:41 st p in
  let r = Array_sim.run ~cells:10 ~feed ~init m p [| code |] in
  let outs = Buffer.create 65536 in
  Array.iter
    (fun xs ->
      List.iter (Printf.bprintf outs "%h ") xs;
      Buffer.add_char outs '|')
    r.Array_sim.outputs;
  Printf.bprintf b "cosim cycles=%d flops=%d stalls=%s outputs=%s states=%s\n"
    r.Array_sim.cycles r.Array_sim.flops
    (ints r.Array_sim.per_cell_stalls)
    (Digest.to_hex (Digest.string (Buffer.contents outs)))
    (Digest.to_hex
       (Digest.string
          (String.concat ","
             (Array.to_list
                (Array.map (state_md5 p) r.Array_sim.states)))));
  Golden.check "golden/sim_results.golden" (Buffer.contents b)

(* ---- forced minor collections --------------------------------------- *)

(** OCaml 5 forces a minor collection to make an array of more than 256
    words from a young element. The assembler and the simulator build
    arrays with one entry per program word, the checkers keep state per
    domain; none may force a collection on a long program, and the
    checkers, warmed up, allocate nothing in the major heap. *)
let test_no_forced_collections () =
  let p =
    Sp_lang.Lower.compile_source
      (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed:31))
  in
  let code = (Sp_core.Compile.program m p).Sp_core.Compile.code in
  Alcotest.(check bool) "a long program" true (Prog.length code > 256);
  let none label f =
    Alcotest.(check int) label 0 (Alloc.minor_collections f)
  in
  none "Check.check_prog" (fun () -> Check.check_prog m code);
  none "Validate.all" (fun () -> Sp_vliw.Validate.all m code);
  none "Sim.run" (fun () ->
      Sim.run ~init:(fun st -> Sp_camp.Oracle.init_state st p) m p code);
  (* the checkers keep their state per domain: once a call has grown it
     to this program, none allocates in the major heap *)
  let no_major label f =
    ignore (Sys.opaque_identity (f ()));
    Alcotest.(check (float 0.)) label 0. (Alloc.direct_major_words f)
  in
  no_major "Check.check_prog major words" (fun () -> Check.check_prog m code);
  no_major "Validate.check_timing major words" (fun () ->
      Sp_vliw.Validate.check_timing m code);
  let c = mk_ctx () in
  let x = freg c in
  let asm = Prog.Asm.create () in
  for k = 1 to 1000 do
    Prog.Asm.inst asm [ fconst c (float_of_int k) x ]
  done;
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  none "Prog.Asm.finish" (fun () -> Prog.Asm.finish asm)

(** Violations at the first and last word of a 300-word program, on two
    different resources, come back exactly and in order. *)
let test_checker_long_program () =
  let c = mk_ctx () in
  let x = freg c and y = freg c in
  let fmul dst a b = Op.Supply.mk c.ops ~dst ~srcs:[ a; b ] Opkind.Fmul in
  let asm = Prog.Asm.create () in
  Prog.Asm.inst asm [ fadd c x y y; fadd c y x x ];
  for _ = 1 to 298 do
    Prog.Asm.inst asm [ fadd c x y y; fmul y x x ]
  done;
  Prog.Asm.inst asm ~ctl:Inst.Halt [ fmul x y y; fmul y x x ];
  let code = Prog.Asm.finish asm in
  Alcotest.(check int) "words" 300 (Prog.length code);
  Alcotest.(check (list (triple int string int)))
    "violations"
    [ (0, "fadd", 2); (299, "fmul", 2) ]
    (List.map
       (fun (v : Check.violation) -> (v.Check.at, v.Check.resource, v.Check.used))
       (Check.check_prog m code))

(* ---- program equality ------------------------------------------------ *)

let listing p =
  let b = Buffer.create 4096 in
  Prog.to_buffer b p;
  Buffer.contents b

(* [p] rebuilt record by record, so that no word, operation or register
   is shared with it *)
let deep_copy (p : Prog.t) =
  let reg (r : Vreg.t) = { r with Vreg.name = r.Vreg.name ^ "" } in
  let sub (s : Subscript.t) = { s with Subscript.iv = Option.map reg s.Subscript.iv } in
  let addr (a : Op.addr) =
    { a with
      Op.seg = { a.Op.seg with Memseg.sid = a.Op.seg.Memseg.sid };
      base = Option.map reg a.Op.base;
      idx = Option.map reg a.Op.idx;
      sub = Option.map sub a.Op.sub }
  in
  let op (o : Op.t) =
    { o with
      Op.dst = Option.map reg o.Op.dst;
      srcs = List.map reg o.Op.srcs;
      imm =
        Option.map
          (function Op.Fimm f -> Op.Fimm f | Op.Iimm i -> Op.Iimm i)
          o.Op.imm;
      addr = Option.map addr o.Op.addr }
  in
  let ctl = function
    | Inst.CJump c -> Inst.CJump { c with cond = reg c.cond }
    | Inst.CtrSetR c -> Inst.CtrSetR { c with reg = reg c.reg }
    | c -> c
  in
  { Prog.code =
      Array.map
        (fun (i : Inst.t) -> { Inst.ops = List.map op i.Inst.ops; ctl = ctl i.Inst.ctl })
        p.Prog.code }

type edit =
  | Same
  | Negate_imm of int  (** the [k]th float immediate's sign flipped *)
  | Rename of int  (** the [k]th operation's destination renamed *)
  | Renumber of int  (** the [k]th operation's uid moved *)
  | Retarget of int  (** the [k]th branch moved one word on *)
  | Drop_op of int

let pp_edit ppf = function
  | Same -> Fmt.string ppf "same"
  | Negate_imm k -> Fmt.pf ppf "negate-imm %d" k
  | Rename k -> Fmt.pf ppf "rename %d" k
  | Renumber k -> Fmt.pf ppf "renumber %d" k
  | Retarget k -> Fmt.pf ppf "retarget %d" k
  | Drop_op k -> Fmt.pf ppf "drop-op %d" k

(* the [k]th (modulo their number) operation satisfying [pick] replaced
   by [f op], [None] deleting it *)
let edit_op (p : Prog.t) pick k f =
  let sites =
    Array.to_list p.Prog.code
    |> List.mapi (fun w (i : Inst.t) ->
           List.filteri (fun _ o -> pick o) i.Inst.ops |> List.map (fun o -> (w, o)))
    |> List.concat
  in
  if sites = [] then p
  else begin
    let w, target = List.nth sites (k mod List.length sites) in
    let code = Array.copy p.Prog.code in
    let i = code.(w) in
    code.(w) <-
      { i with
        Inst.ops =
          List.filter_map (fun o -> if o == target then f o else Some o) i.Inst.ops };
    { Prog.code }
  end

let apply_edit (p : Prog.t) = function
  | Same -> p
  | Negate_imm k ->
    edit_op p
      (fun o -> match o.Op.imm with Some (Op.Fimm _) -> true | _ -> false)
      k
      (fun o ->
        match o.Op.imm with
        | Some (Op.Fimm f) -> Some { o with Op.imm = Some (Op.Fimm (-.f)) }
        | _ -> Some o)
  | Rename k ->
    edit_op p
      (fun o -> o.Op.dst <> None)
      k
      (fun o ->
        Some
          { o with
            Op.dst =
              Option.map (fun (d : Vreg.t) -> { d with Vreg.name = d.Vreg.name ^ "'" }) o.Op.dst })
  | Renumber k -> edit_op p (fun _ -> true) k (fun o -> Some { o with Op.uid = o.Op.uid + 1 })
  | Drop_op k -> edit_op p (fun _ -> true) k (fun _ -> None)
  | Retarget k ->
    let branches =
      List.filter
        (fun w ->
          match p.Prog.code.(w).Inst.ctl with
          | Inst.Jump _ | Inst.CJump _ | Inst.CtrLoop _ | Inst.CtrJumpLt _ -> true
          | _ -> false)
        (List.init (Prog.length p) Fun.id)
    in
    if branches = [] then p
    else begin
      let w = List.nth branches (k mod List.length branches) in
      let code = Array.copy p.Prog.code in
      let i = code.(w) in
      let ctl =
        match i.Inst.ctl with
        | Inst.Jump l -> Inst.Jump (l + 1)
        | Inst.CJump c -> Inst.CJump { c with target = c.target + 1 }
        | Inst.CtrLoop c -> Inst.CtrLoop { c with target = c.target + 1 }
        | Inst.CtrJumpLt c -> Inst.CtrJumpLt { c with target = c.target + 1 }
        | c -> c
      in
      code.(w) <- { i with Inst.ctl };
      { Prog.code }
    end

(** [Prog.equal] is never weaker than the listing: programs it calls
    equal render the same text. Flipping a float immediate's sign (0 to
    -0 included) must make them unequal, and an unedited copy sharing
    no record must stay equal. *)
let prop_equal_implies_listing =
  QCheck2.Test.make ~count:300 ~name:"Prog.equal implies the same listing"
    ~print:(fun (k, e) -> Fmt.str "%s, %a" (fst (Corpus.nth k)) pp_edit e)
    QCheck2.Gen.(
      pair (int_bound 1000)
        (let k = int_bound 100_000 in
         oneof
           [
             return Same;
             map (fun k -> Negate_imm k) k;
             map (fun k -> Rename k) k;
             map (fun k -> Renumber k) k;
             map (fun k -> Retarget k) k;
             map (fun k -> Drop_op k) k;
           ]))
    (fun (k, e) ->
      let _, a = Corpus.nth k in
      let b = apply_edit (deep_copy a) e in
      (e <> Same || Prog.equal a b || QCheck2.Test.fail_report "a copy is unequal")
      && ((not (Prog.equal a b)) || String.equal (listing a) (listing b)
         || QCheck2.Test.fail_report "equal programs with different listings"))

(** Programs that differ only in a float immediate's sign, zero
    included: the listing tells them apart, so [Prog.equal] must. *)
let test_equal_float_sign () =
  let one x =
    let c = mk_ctx () in
    let asm = Prog.Asm.create () in
    Prog.Asm.inst asm ~ctl:Inst.Halt [ fconst c x (freg c) ];
    Prog.Asm.finish asm
  in
  List.iter
    (fun x ->
      let a = one x and b = one (-.x) in
      Alcotest.(check bool)
        (Printf.sprintf "%g and %g render apart" x (-.x))
        false
        (String.equal (listing a) (listing b));
      Alcotest.(check bool)
        (Printf.sprintf "%g and %g are unequal" x (-.x))
        false (Prog.equal a b);
      Alcotest.(check bool) (Printf.sprintf "%g equals itself" x) true
        (Prog.equal a (one x)))
    [ 0.0; 2.5 ]

(* ---- the reference printer ------------------------------------------ *)

(* An edit a listing must render as the reference printer does: the
   [k]th operation's immediate, address offset, subscript, kind or
   register names, or the [k]th word's control field, replaced. *)
type print_edit =
  | Fimm of int * float
  | Iimm of int * int
  | Offset of int * int
  | Sub of int * Subscript.t
  | Kind of int * Opkind.t
  | Names of int * string
  | Ctl of int * Inst.ctl

let pp_print_edit ppf = function
  | Fimm (k, f) -> Fmt.pf ppf "fimm %d %h" k f
  | Iimm (k, i) -> Fmt.pf ppf "iimm %d %d" k i
  | Offset (k, o) -> Fmt.pf ppf "offset %d %d" k o
  | Sub (k, _) -> Fmt.pf ppf "sub %d" k
  | Kind (k, kd) -> Fmt.pf ppf "kind %d %s" k (Ref_listing.kind_name kd)
  | Names (k, n) -> Fmt.pf ppf "names %d %S" k n
  | Ctl (w, _) -> Fmt.pf ppf "ctl %d" w

let apply_print_edit (p : Prog.t) = function
  | Fimm (k, f) -> edit_op p (fun _ -> true) k (fun o -> Some { o with Op.imm = Some (Op.Fimm f) })
  | Iimm (k, i) -> edit_op p (fun _ -> true) k (fun o -> Some { o with Op.imm = Some (Op.Iimm i) })
  | Offset (k, off) ->
    edit_op p
      (fun o -> o.Op.addr <> None)
      k
      (fun o -> Some { o with Op.addr = Option.map (fun a -> { a with Op.off }) o.Op.addr })
  | Sub (k, sub) ->
    edit_op p
      (fun o -> o.Op.addr <> None)
      k
      (fun o ->
        Some { o with Op.addr = Option.map (fun a -> { a with Op.sub = Some sub }) o.Op.addr })
  | Kind (k, kind) -> edit_op p (fun _ -> true) k (fun o -> Some { o with Op.kind })
  | Names (k, name) ->
    let rn (r : Vreg.t) = { r with Vreg.name } in
    edit_op p (fun _ -> true) k (fun o ->
        Some { o with Op.dst = Option.map rn o.Op.dst; srcs = List.map rn o.Op.srcs })
  | Ctl (w, ctl) ->
    if Prog.length p = 0 then p
    else begin
      let code = Array.copy p.Prog.code in
      let w = w mod Array.length code in
      code.(w) <- { (code.(w)) with Inst.ctl };
      { Prog.code }
    end

let print_edit_gen =
  let open QCheck2.Gen in
  let k = int_bound 100_000 in
  let float =
    oneof
      [
        oneofl
          [ 0.; -0.; 1e300; -1e300; Float.nan; -.Float.nan; Float.infinity;
            Float.neg_infinity; 0.1; 5e-324; 1e-5; 123456789.; 2.5 ];
        float;
      ]
  in
  let int = oneof [ oneofl [ min_int; max_int; -1; 0; 9; 10; 999; 1000 ]; int ] in
  let reg =
    map
      (fun (id, f) -> { Vreg.id; cls = (if f then Vreg.F else Vreg.I); name = "" })
      (pair (int_bound 5000) bool)
  in
  let rel = oneofl Opkind.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  oneof
    [
      map2 (fun k f -> Fimm (k, f)) k float;
      map2 (fun k i -> Iimm (k, i)) k int;
      map2 (fun k o -> Offset (k, o)) k int;
      map2
        (fun k (coef, iv, syms, off) -> Sub (k, { Subscript.coef; iv; syms; off }))
        k
        (quad int (opt reg) (small_list (int_bound 9999)) int);
      map2 (fun k kind -> Kind (k, kind)) k
        (oneof
           [
             map (fun r -> Opkind.Fcmp r) rel;
             map (fun r -> Opkind.Icmp r) rel;
             map (fun c -> Opkind.Recv c) (int_bound 9);
             map (fun c -> Opkind.Send c) (int_bound 9);
             oneofl (Array.to_list Opkind.dense);
           ]);
      map2 (fun k n -> Names (k, n)) k (oneofl [ ""; "x"; "a'b"; "i%2"; "\xce\xbb" ]);
      map2 (fun w c -> Ctl (w, c)) k
        (oneof
           [
             return Inst.Next;
             return Inst.Halt;
             map (fun l -> Inst.Jump l) int;
             map3
               (fun cond if_zero target -> Inst.CJump { cond; if_zero; target })
               reg bool int;
             map2 (fun ctr value -> Inst.CtrSet { ctr; value }) int int;
             map2 (fun ctr reg -> Inst.CtrSetR { ctr; reg }) int reg;
             map2 (fun ctr target -> Inst.CtrLoop { ctr; target }) int int;
             map3
               (fun ctr bound target -> Inst.CtrJumpLt { ctr; bound; target })
               int int int;
           ]);
    ]

(** A corpus program under a few edits renders as the reference
    printer renders it, through [Prog.pp] (the per-domain buffer) and
    through [to_buffer] into a caller's buffer. *)
let prop_listing_reference =
  QCheck2.Test.make ~count:300 ~name:"listing matches the reference printer"
    ~print:(fun (k, es) ->
      Fmt.str "%s, %a" (fst (Corpus.nth k)) Fmt.(list ~sep:comma pp_print_edit) es)
    QCheck2.Gen.(pair (int_bound 1000) (list_size (int_range 1 6) print_edit_gen))
    (fun (k, es) ->
      let p = List.fold_left apply_print_edit (snd (Corpus.nth k)) es in
      let expected = Ref_listing.prog_to_string p in
      String.equal expected (Fmt.str "%a" Prog.pp p)
      && String.equal expected (listing p))

(** Every compile of the service sources lists, fingerprints and
    prints as the reference does, and a program whose immediates
    alternate between floats that only their bits tell apart lists
    each one's own text. *)
let test_listing_reference () =
  List.iter
    (fun (name, src) ->
      let p = Sp_lang.Lower.compile_source src in
      let r = Sp_core.Compile.program m p in
      Alcotest.(check string) (name ^ ": listing")
        (Ref_listing.listing m p r) (Sp_core.Compile.listing m p r);
      Alcotest.(check string) (name ^ ": fingerprint")
        (Ref_listing.fingerprint r) (Sp_core.Compile.fingerprint r))
    (Lazy.force Corpus.service_sources);
  let c = mk_ctx () in
  let asm = Prog.Asm.create () in
  List.iter
    (fun x -> Prog.Asm.inst asm [ fconst c x (freg c) ])
    [ 0.; -0.; Float.nan; -.Float.nan; 0.; 1e300; -0.; Float.nan; 1e-310 ];
  Prog.Asm.inst asm ~ctl:Inst.Halt [];
  let p = Prog.Asm.finish asm in
  Alcotest.(check string) "float texts" (Ref_listing.prog_to_string p) (listing p)

(* Over the service sources' compiles, [Compile.listing] allocates
   under 0.1 minor words per listed byte (the reference, 1.51), and
   nothing straight in the major heap but its returned strings (the
   reference, 497,908 words a round against their 118k). The words are
   counted on the first pass: a listing keeps nothing from the last but
   its domain's buffer, which is allocated in the major heap as it
   grows, so the second pass, after that growth, counts the major
   words. *)
let test_listing_alloc () =
  let results =
    List.map
      (fun (_, src) ->
        let p = Sp_lang.Lower.compile_source src in
        (p, Sp_core.Compile.program m p))
      (Lazy.force Corpus.service_sources)
  in
  let list () = List.map (fun (p, r) -> Sp_core.Compile.listing m p r) results in
  let texts = ref [] in
  let words = Alloc.minor_words (fun () -> texts := list ()) in
  let bytes = List.fold_left (fun n s -> n + String.length s) 0 !texts in
  (* a string over 256 words is allocated in the major heap: its words,
     plus its header *)
  let major_strings =
    List.fold_left
      (fun n s ->
        let words = (String.length s / 8) + 1 in
        if words > 256 then n + words + 1 else n)
      0 !texts
  in
  let per_byte = words /. float_of_int bytes in
  if per_byte > 0.1 then
    Alcotest.failf "listing: %.3f minor words per byte (at most 0.1)" per_byte;
  let direct = Alloc.direct_major_words list in
  if direct > float_of_int major_strings then
    Alcotest.failf
      "listing: %.0f words straight in the major heap, its strings hold %d"
      direct major_strings

let suite =
  [
    ("write latency visibility", `Quick, test_write_latency_visibility);
    ("store/load same cycle", `Quick, test_store_load_same_cycle);
    ("hardware counter loop", `Quick, test_ctr_loop);
    ("counter guard", `Quick, test_ctr_jump_lt);
    ("write conflict detected", `Quick, test_write_conflict_detected);
    ("cycle limit", `Quick, test_cycle_limit);
    ("unplaced label rejected", `Quick, test_unplaced_label);
    ("assembler labels", `Quick, test_asm_labels);
    ("checker flags oversubscription", `Quick, test_checker_flags_oversubscription);
    ("checker accepts legal code", `Quick, test_checker_accepts_legal);
    ("occupancy statistics", `Quick, test_stats);
    ("write conflict across issue cycles", `Quick, test_cross_cycle_conflict);
    ("latency beyond 16", `Quick, test_latency_beyond_16);
    ("write in flight at halt", `Quick, test_write_in_flight_at_halt);
    ("simulation golden", `Slow, test_sim_golden);
    ("no forced minor collections", `Quick, test_no_forced_collections);
    ("resource check of a long program", `Quick, test_checker_long_program);
    ("out-of-bounds access on both engines", `Quick, test_out_of_bounds);
    ("unwritten float read on both engines", `Quick, test_unwritten_float_read);
    ("mis-classed source fails at decode", `Quick, test_misclassed_source);
    ("no allocation per executed operation", `Quick, test_no_allocation_per_op);
    ("float immediates compared by their bits", `Quick, test_equal_float_sign);
    QCheck_alcotest.to_alcotest prop_equal_implies_listing;
    ("listing matches the reference on the service compiles", `Quick,
     test_listing_reference);
    QCheck_alcotest.to_alcotest prop_listing_reference;
    ("listing allocates under 0.1 words per byte", `Quick, test_listing_alloc);
  ]

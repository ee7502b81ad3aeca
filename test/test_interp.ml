(** Tests for operation semantics, the machine state and the
    sequential interpreter. *)

open Sp_ir
module Opkind = Sp_machine.Opkind

(* tiny harness: evaluate a single binop through the interpreter *)
let eval_fbin kind a b =
  let bld = Builder.create "t" in
  let out = Builder.farray bld "out" 1 in
  let x = Builder.fconst bld a in
  let y = Builder.fconst bld b in
  let z = Builder.fbin bld kind x y in
  Builder.store bld ~off:0 out z;
  let p = Builder.finish bld in
  let r = Interp.run p in
  (Machine_state.get_farray r.Interp.state out).(0)

let feq = Alcotest.(check (float 1e-12))

let test_float_ops () =
  feq "add" 5.5 (eval_fbin Opkind.Fadd 2.0 3.5);
  feq "sub" (-1.5) (eval_fbin Opkind.Fsub 2.0 3.5);
  feq "mul" 7.0 (eval_fbin Opkind.Fmul 2.0 3.5);
  feq "min" 2.0 (eval_fbin Opkind.Fmin 2.0 3.5);
  feq "max" 3.5 (eval_fbin Opkind.Fmax 2.0 3.5)

let test_seeds () =
  (* the 8-bit seeds are within 2^-8 relative error *)
  let cases = [ 0.37; 1.0; 2.0; 3.14159; 123.456; 0.001 ] in
  List.iter
    (fun x ->
      let r = Semantics.recip_seed x in
      Alcotest.(check bool)
        (Printf.sprintf "recip seed %g" x)
        true
        (Float.abs ((r *. x) -. 1.0) < 0.01);
      let q = Semantics.rsqrt_seed x in
      Alcotest.(check bool)
        (Printf.sprintf "rsqrt seed %g" x)
        true
        (Float.abs ((q *. q *. x) -. 1.0) < 0.02))
    cases

(** The seed tables round to 8 mantissa bits without [Float.frexp],
    which allocates its result; the bits must be the ones the frexp
    definition gives, subnormals and infinities included. *)
let test_quantize_matches_frexp () =
  let reference x =
    if x = 0. || not (Float.is_finite x) then x
    else
      let m, e = Float.frexp x in
      Float.ldexp (Float.round (m *. 256.) /. 256.) e
  in
  let xs =
    [ 0.; -0.; 1.; -1.; 0.37; 3.14159; 1e300; -1e-300; Float.max_float;
      Float.min_float; 4.9e-324; -4.9e-324; 1e-310; 3e-320; 0x1.ffp-1023;
      Float.infinity; Float.neg_infinity; Float.nan; 0x1.ff8p0; 0x1.008p0 ]
    @ List.init 2000 (fun k ->
          Float.ldexp (1. +. (float_of_int k /. 2000.)) (k - 1070))
  in
  List.iter
    (fun x ->
      let want = reference x and got = Semantics.quantize8 x in
      if not (Int64.equal (Int64.bits_of_float want) (Int64.bits_of_float got))
      then Alcotest.failf "quantize8 %h: want %h, got %h" x want got)
    xs

let eval_expand f x =
  let bld = Builder.create "t" in
  let out = Builder.farray bld "out" 1 in
  let xv = Builder.fconst bld x in
  let z = f bld xv in
  Builder.store bld ~off:0 out z;
  let p = Builder.finish bld in
  let r = Interp.run p in
  (Machine_state.get_farray r.Interp.state out).(0)

let test_expansions () =
  (* INVERSE: 7 flops, SQRT: 19 flops (paper Section 4.2), and both
     numerically close after the Newton iterations *)
  List.iter
    (fun x ->
      let inv = eval_expand Expand.inverse x in
      Alcotest.(check bool)
        (Printf.sprintf "inverse %g" x)
        true
        (Float.abs ((inv *. x) -. 1.0) < 1e-4);
      let s = eval_expand Expand.sqrt_ x in
      Alcotest.(check bool)
        (Printf.sprintf "sqrt %g" x)
        true
        (Float.abs ((s *. s /. x) -. 1.0) < 1e-4))
    [ 0.25; 1.0; 2.0; 9.0; 100.0; 0.01 ];
  (* exp: moderate accuracy (11 fractional bits of the exponent) *)
  List.iter
    (fun x ->
      let e = eval_expand Expand.exp_ x in
      Alcotest.(check bool)
        (Printf.sprintf "exp %g" x)
        true
        (Float.abs ((e /. Float.exp x) -. 1.0) < 0.01))
    [ 0.0; 1.0; 2.5; 5.0 ]

let test_expansion_flop_counts () =
  let count f =
    let bld = Builder.create "t" in
    let x = Builder.fconst bld 2.0 in
    let before = Builder.finish (Builder.create "empty") in
    ignore before;
    let z = f bld x in
    ignore z;
    let p = Builder.finish bld in
    let n = ref 0 in
    Region.iter_ops (fun op -> if Op.is_flop op then incr n) p.Program.body;
    !n
  in
  Alcotest.(check int) "INVERSE expands to 7 flops" 7 (count Expand.inverse);
  Alcotest.(check int) "SQRT expands to 19 flops" 19 (count Expand.sqrt_)

let test_exp_conditionals () =
  let bld = Builder.create "t" in
  let x = Builder.fconst bld 2.0 in
  ignore (Expand.exp_ bld x);
  let p = Builder.finish bld in
  Alcotest.(check int) "EXP expands to 19 conditionals" 19
    (Program.stats p).Program.n_ifs

let test_interp_loop_and_if () =
  (* sum of conditionally scaled elements, computed two ways *)
  let bld = Builder.create "t" in
  let a = Builder.farray bld "a" 16 in
  let out = Builder.farray bld "out" 1 in
  let thr = Builder.fconst bld 5.0 in
  let acc0 = Builder.fconst bld 0.0 in
  let acc = Builder.fmov bld acc0 in
  Builder.for_ bld (Region.Const 16) (fun i ->
      let x = Builder.load_iv bld a i 0 in
      let c = Builder.fcmp bld Opkind.Gt x thr in
      let v = Builder.fresh_f bld in
      Builder.if_ bld c
        ~then_:(fun () ->
          let t = Builder.fmul bld x x in
          ignore (Builder.emit bld ~dst:v ~srcs:[ t ] Opkind.Fmov))
        ~else_:(fun () ->
          ignore (Builder.emit bld ~dst:v ~srcs:[ x ] Opkind.Fmov));
      ignore (Builder.emit bld ~dst:acc ~srcs:[ acc; v ] Opkind.Fadd));
  Builder.store bld ~off:0 out acc;
  let p = Builder.finish bld in
  let init st = Machine_state.init_farray st a (fun i -> float_of_int i) in
  let r = Interp.run ~init p in
  let expected =
    let s = ref 0.0 in
    for i = 0 to 15 do
      let x = float_of_int i in
      s := !s +. (if x > 5.0 then x *. x else x)
    done;
    !s
  in
  feq "conditional sum" expected
    (Machine_state.get_farray r.Interp.state out).(0)

let test_channels () =
  let bld = Builder.create "t" in
  Builder.for_ bld (Region.Const 4) (fun _ ->
      let x = Builder.recv bld 0 in
      let k = Builder.fconst bld 2.0 in
      Builder.send bld 1 (Builder.fmul bld x k));
  let p = Builder.finish bld in
  let r = Interp.run ~inputs:[ [ 1.; 2.; 3.; 4. ] ] p in
  Alcotest.(check (list (float 1e-9))) "doubled stream" [ 2.; 4.; 6.; 8. ]
    (Machine_state.outputs r.Interp.state 1);
  (* draining an empty queue raises *)
  Alcotest.check_raises "empty queue" (Machine_state.Channel_empty 0)
    (fun () -> ignore (Interp.run ~inputs:[ [ 1.; 2. ] ] p))

let test_bounds_check () =
  let bld = Builder.create "t" in
  let a = Builder.farray bld "a" 4 in
  Builder.for_ bld (Region.Const 5) (fun i ->
      let x = Builder.load_iv bld a i 0 in
      ignore x);
  let p = Builder.finish bld in
  Alcotest.check_raises "out of bounds"
    (Machine_state.Out_of_bounds "a[4] (size 4)") (fun () ->
      ignore (Interp.run p))

let test_trip_count_reg () =
  let bld = Builder.create "t" in
  let a = Builder.farray bld "a" 8 in
  let n = Builder.iconst bld 3 in
  let one = Builder.fconst bld 1.0 in
  Builder.for_reg bld n (fun i -> Builder.store_iv bld a i 0 one);
  let p = Builder.finish bld in
  let r = Interp.run p in
  let arr = Machine_state.get_farray r.Interp.state a in
  Alcotest.(check (list (float 1e-9))) "3 written" [ 1.; 1.; 1.; 0. ]
    [ arr.(0); arr.(1); arr.(2); arr.(3) ]

let test_flop_accounting () =
  let bld = Builder.create "t" in
  let a = Builder.farray bld "a" 8 in
  let k = Builder.fconst bld 1.0 in
  Builder.for_ bld (Region.Const 8) (fun i ->
      let x = Builder.load_iv bld a i 0 in
      let y = Builder.fadd bld x k in
      let z = Builder.fmul bld y y in
      Builder.store_iv bld a i 0 z);
  let p = Builder.finish bld in
  let r = Interp.run p in
  Alcotest.(check int) "2 flops x 8 iterations" 16 r.Interp.flops

(* ---- interpreter golden ---------------------------------------------- *)

(** Flops, dynamic operations and the final memory and outputs of
    [Interp.run] on every Livermore kernel, population program and
    Wgen seed 1–500. The simulator and the interpreter share one
    executor, so their agreement cannot catch a fault common to both;
    this file and the simulation golden can. *)
let test_interp_golden () =
  let b = Buffer.create 65536 in
  let line label ?(inputs = []) ~init p =
    let r = Interp.run ~inputs ~init p in
    Printf.bprintf b "%s flops=%d dyn=%d state=%s\n" label r.Interp.flops
      r.Interp.dyn_ops
      (Golden.state_md5 p r.Interp.state)
  in
  let kernel (k : Sp_kernels.Kernel.t) =
    let p = Sp_kernels.Kernel.program k in
    line k.Sp_kernels.Kernel.name ~inputs:k.Sp_kernels.Kernel.inputs
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
    line (Printf.sprintf "wgen/%d" seed)
      ~init:(fun st -> Sp_camp.Oracle.init_state st p)
      p
  done;
  Golden.check "golden/interp_results.golden" (Buffer.contents b)

(** The typed files keep the untyped file's view: an unwritten float
    register reads as [VI 0], a written one as its value, and a value
    of the other class is refused. *)
let test_state_read_write () =
  let b = Builder.create "t" in
  let f = Builder.fresh_f b and i = Builder.fresh_i b in
  let p = Builder.finish b in
  let st = Machine_state.create ~regs:(Program.num_vregs p) p in
  let value =
    Alcotest.testable
      (fun ppf -> function
        | Machine_state.VF x -> Fmt.pf ppf "VF %h" x
        | Machine_state.VI n -> Fmt.pf ppf "VI %d" n)
      ( = )
  in
  Alcotest.check value "unwritten float" (Machine_state.VI 0)
    (Machine_state.read st f);
  Alcotest.check value "unwritten int" (Machine_state.VI 0)
    (Machine_state.read st i);
  Machine_state.write st f (Machine_state.VF 2.5);
  Machine_state.write st i (Machine_state.VI 7);
  Alcotest.check value "float" (Machine_state.VF 2.5) (Machine_state.read st f);
  Alcotest.check value "int" (Machine_state.VI 7) (Machine_state.read st i);
  Alcotest.check_raises "int into a float register"
    (Machine_state.Type_error "int value for a float register") (fun () ->
      Machine_state.write st f (Machine_state.VI 1))

let suite =
  [
    ("float binops", `Quick, test_float_ops);
    ("hardware seeds", `Quick, test_seeds);
    ("intrinsic expansions: accuracy", `Quick, test_expansions);
    ("intrinsic expansions: flop counts", `Quick, test_expansion_flop_counts);
    ("EXP has 19 conditionals", `Quick, test_exp_conditionals);
    ("interp: loop with conditional", `Quick, test_interp_loop_and_if);
    ("interp: channels", `Quick, test_channels);
    ("interp: bounds check", `Quick, test_bounds_check);
    ("interp: register trip count", `Quick, test_trip_count_reg);
    ("interp: flop accounting", `Quick, test_flop_accounting);
    ("interpreter golden", `Slow, test_interp_golden);
    ("seed quantization matches frexp", `Quick, test_quantize_matches_frexp);
    ("state read and write", `Quick, test_state_read_write);
  ]

(** Tests for the IR: registers, subscripts, operations, builder. *)

open Sp_ir

(* ---- Vreg ---------------------------------------------------------- *)

let test_vreg_supply () =
  let s = Vreg.Supply.create () in
  let a = Vreg.Supply.fresh s ~name:"a" Vreg.F in
  let b = Vreg.Supply.fresh s ~name:"b" Vreg.I in
  Alcotest.(check int) "dense ids" 0 a.Vreg.id;
  Alcotest.(check int) "dense ids" 1 b.Vreg.id;
  Alcotest.(check int) "count" 2 (Vreg.Supply.count s);
  Alcotest.(check bool)
    "classes" true
    (a.Vreg.cls = Vreg.F && b.Vreg.cls = Vreg.I);
  Alcotest.(check bool) "distinct" false (Vreg.equal a b)

(* ---- Subscript ----------------------------------------------------- *)

let mk_iv () =
  let s = Vreg.Supply.create () in
  Vreg.Supply.fresh s ~name:"i" Vreg.I

let test_subscript_distance_exact () =
  let iv = mk_iv () in
  let s1 = Subscript.of_iv ~off:3 iv in
  let s2 = Subscript.of_iv ~off:1 iv in
  (match Subscript.distance ~from:s1 ~to_:s2 with
  | Subscript.Exactly 2 -> ()
  | _ -> Alcotest.fail "expected distance 2");
  (match Subscript.distance ~from:s2 ~to_:s1 with
  | Subscript.Exactly (-2) -> ()
  | _ -> Alcotest.fail "expected distance -2");
  match Subscript.distance ~from:s1 ~to_:s1 with
  | Subscript.Exactly 0 -> ()
  | _ -> Alcotest.fail "expected distance 0"

let test_subscript_strided () =
  let iv = mk_iv () in
  let a = Subscript.of_iv ~coef:4 ~off:8 iv in
  let b = Subscript.of_iv ~coef:4 ~off:0 iv in
  (match Subscript.distance ~from:a ~to_:b with
  | Subscript.Exactly 2 -> ()
  | _ -> Alcotest.fail "stride-4, 8 apart = 2 iterations");
  let c = Subscript.of_iv ~coef:4 ~off:2 iv in
  match Subscript.distance ~from:c ~to_:b with
  | Subscript.Never -> () (* 2 not divisible by 4: never aliases *)
  | _ -> Alcotest.fail "non-divisible offsets never alias"

let test_subscript_syms () =
  let s = Vreg.Supply.create () in
  let iv = Vreg.Supply.fresh s ~name:"i" Vreg.I in
  let b1 = Vreg.Supply.fresh s ~name:"b1" Vreg.I in
  let b2 = Vreg.Supply.fresh s ~name:"b2" Vreg.I in
  let a = Subscript.add_sym (Subscript.of_iv ~off:1 iv) b1 in
  let b = Subscript.add_sym (Subscript.of_iv ~off:0 iv) b1 in
  let c = Subscript.add_sym (Subscript.of_iv ~off:0 iv) b2 in
  (match Subscript.distance ~from:a ~to_:b with
  | Subscript.Exactly 1 -> ()
  | _ -> Alcotest.fail "same symbolic base: exact distance");
  match Subscript.distance ~from:a ~to_:c with
  | Subscript.Unknown -> ()
  | _ -> Alcotest.fail "different symbolic bases: unknown"

let test_subscript_invariant () =
  let a = Subscript.constant 4 in
  let b = Subscript.constant 4 in
  let c = Subscript.constant 5 in
  (match Subscript.distance ~from:a ~to_:b with
  | Subscript.Unknown -> () (* same location every iteration *)
  | _ -> Alcotest.fail "invariant same-address: all distances");
  match Subscript.distance ~from:a ~to_:c with
  | Subscript.Never -> ()
  | _ -> Alcotest.fail "distinct constants never alias"

(* ---- Op ------------------------------------------------------------ *)

let test_op_reads_writes () =
  let s = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let x = Vreg.Supply.fresh s Vreg.F and y = Vreg.Supply.fresh s Vreg.F in
  let d = Vreg.Supply.fresh s Vreg.F in
  let idx = Vreg.Supply.fresh s Vreg.I in
  let add = Op.Supply.mk ops ~dst:d ~srcs:[ x; y ] Sp_machine.Opkind.Fadd in
  Alcotest.(check int) "reads" 2 (List.length (Op.reads add));
  Alcotest.(check int) "writes" 1 (List.length (Op.writes add));
  let seg_supply = Memseg.Supply.create () in
  let seg = Memseg.Supply.fresh seg_supply ~name:"a" ~size:10 () in
  let ld =
    Op.Supply.mk ops ~dst:d
      ~addr:{ Op.seg; base = None; idx = Some idx; off = 1; sub = None }
      Sp_machine.Opkind.Load
  in
  Alcotest.(check int) "load reads its index" 1 (List.length (Op.reads ld));
  Alcotest.(check bool) "a load, not a store" true
    (ld.Op.kind = Sp_machine.Opkind.Load && not (Op.is_store ld))

let test_op_map_regs () =
  let s = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let x = Vreg.Supply.fresh s Vreg.F and y = Vreg.Supply.fresh s Vreg.F in
  let d = Vreg.Supply.fresh s Vreg.F in
  let x' = Vreg.Supply.fresh s Vreg.F in
  let add = Op.Supply.mk ops ~dst:d ~srcs:[ x; y ] Sp_machine.Opkind.Fadd in
  let f r = if Vreg.equal r x then x' else r in
  let add' = Op.map_regs f add in
  Alcotest.(check bool) "src renamed" true
    (Vreg.equal (List.hd add'.Op.srcs) x');
  Alcotest.(check int) "uid preserved" add.Op.uid add'.Op.uid

(* ---- Builder / Region ---------------------------------------------- *)

let test_builder_structure () =
  let b = Builder.create "t" in
  let a = Builder.farray b "a" 10 in
  let k = Builder.fconst b 1.0 in
  Builder.for_ b (Region.Const 5) (fun i ->
      let x = Builder.load_iv b a i 0 in
      let y = Builder.fadd b x k in
      Builder.store_iv b a i 0 y);
  let p = Builder.finish b in
  let st = Program.stats p in
  Alcotest.(check int) "one loop" 1 st.Program.n_loops;
  Alcotest.(check int) "one innermost" 1 st.Program.n_innermost;
  Alcotest.(check int) "no ifs" 0 st.Program.n_ifs;
  (* fconst + (amov + load + fadd + store) *)
  Alcotest.(check int) "op count" 5 st.Program.n_ops;
  Alcotest.(check bool) "finds segment" true
    (Memseg.equal (Program.find_seg p "a") a)

let test_builder_nesting () =
  let b = Builder.create "t" in
  let a = Builder.farray b "a" 100 in
  Builder.for_ b (Region.Const 3) (fun i ->
      Builder.for_ b (Region.Const 4) (fun j ->
          let x = Builder.load_sym_iv b a i j 0 in
          Builder.store_sym_iv b a i j 1 x));
  let p = Builder.finish b in
  let st = Program.stats p in
  Alcotest.(check int) "two loops" 2 st.Program.n_loops;
  Alcotest.(check int) "one innermost" 1 st.Program.n_innermost;
  Alcotest.(check bool) "contains loop" true (Region.contains_loop p.Program.body)

let test_builder_if () =
  let b = Builder.create "t" in
  let x = Builder.fconst b 1.0 in
  let c = Builder.fcmp b Sp_machine.Opkind.Gt x x in
  let out = Builder.fresh_f b in
  Builder.if_ b c
    ~then_:(fun () ->
      ignore (Builder.emit b ~dst:out ~srcs:[ x ] Sp_machine.Opkind.Fmov))
    ~else_:(fun () ->
      ignore (Builder.emit b ~dst:out ~srcs:[ x ] Sp_machine.Opkind.Fmov));
  let p = Builder.finish b in
  Alcotest.(check int) "one if" 1 (Program.stats p).Program.n_ifs

let suite =
  [
    ("vreg supply", `Quick, test_vreg_supply);
    ("subscript exact distance", `Quick, test_subscript_distance_exact);
    ("subscript strided", `Quick, test_subscript_strided);
    ("subscript symbolic bases", `Quick, test_subscript_syms);
    ("subscript invariant", `Quick, test_subscript_invariant);
    ("op reads/writes", `Quick, test_op_reads_writes);
    ("op map_regs", `Quick, test_op_map_regs);
    ("builder structure", `Quick, test_builder_structure);
    ("builder nesting", `Quick, test_builder_nesting);
    ("builder if", `Quick, test_builder_if);
  ]

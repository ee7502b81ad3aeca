(** Translation-validation tests.

    Two directions: {e soundness} — the validator accepts every
    schedule the compiler produces, across the whole kernel suite,
    machines and random programs — and {e sensitivity} — deliberately
    corrupted schedules are rejected. Each corruption class must find
    an applicable mutation site in real compiled code (the test fails
    if it cannot, guarding against vacuous passes). *)

module C = Sp_core.Compile
module V = Sp_vliw.Validate
module Inst = Sp_vliw.Inst
module Prog = Sp_vliw.Prog
module Machine = Sp_machine.Machine

let machines = [ Machine.warp; Machine.toy; Machine.serial ]

let compile ?(config = C.default) m (k : Sp_kernels.Kernel.t) =
  let p = Sp_kernels.Kernel.program k in
  (C.program ~config m p).C.code

let check_clean what m code =
  let rep = V.all m code in
  Alcotest.(check bool)
    (Fmt.str "%s: %a" what V.pp_report rep)
    true (V.ok rep)

let test_suite_clean () =
  List.iter
    (fun m ->
      List.iter
        (fun (e : Sp_kernels.Suite.entry) ->
          let k = e.Sp_kernels.Suite.kernel in
          check_clean
            (Printf.sprintf "%s on %s" k.Sp_kernels.Kernel.name
               m.Machine.name)
            m (compile m k))
        Sp_kernels.Suite.all)
    machines

let test_livermore_clean () =
  List.iter
    (fun k ->
      check_clean k.Sp_kernels.Kernel.name Machine.warp
        (compile Machine.warp k))
    Sp_kernels.Livermore.all

let test_configs_clean () =
  let k = Sp_kernels.Livermore.k7_eos in
  List.iter
    (fun (name, config) ->
      check_clean name Machine.warp (compile ~config Machine.warp k))
    [
      ("local-only", C.local_only);
      ("mve-lcm", { C.default with C.mve_mode = Sp_core.Mve.Lcm });
      ("mve-off", { C.default with C.mve_mode = Sp_core.Mve.Off });
      ("binary", { C.default with C.search = Sp_core.Modsched.Binary });
    ]

(* ---- property: random programs validate cleanly --------------------- *)

let prop_random_clean =
  QCheck2.Test.make ~count:120 ~name:"random programs validate cleanly"
    ~print:(Fmt.str "%a" Gen.pp_spec) Gen.spec_gen (fun sp ->
      let p, _, _ = Gen.build sp in
      List.for_all
        (fun m ->
          let r = C.program m p in
          let rep = V.all m r.C.code in
          V.ok rep
          || QCheck2.Test.fail_reportf "%s: %a" m.Machine.name V.pp_report
               rep)
        [ Machine.warp; Machine.toy ])

(* ---- sensitivity: corrupted schedules are rejected ------------------ *)

(** A small, definitely-pipelined kernel to corrupt. *)
let victim () =
  let k =
    Sp_kernels.Kernel.mk "victim"
      (Sp_kernels.Kernel.W2
         {|program s;
var x, y : array [0..127] of float; k : int;
begin for k := 0 to 127 do y[k] := 2.5 * x[k] + y[k]; end.|})
  in
  compile Machine.warp k

let copy (p : Prog.t) = { Prog.code = Array.map (fun i -> i) p.Prog.code }

(** Corruption class 1: displace a producer one cycle past its tightest
    consumer. We look — inside the entry stretch, where the validator
    can prove latency violations — for a register written exactly once
    whose first read sits exactly at the write's latency; delaying that
    write by one word makes the consumer read a value still in flight. *)
let test_mutation_delay_producer () =
  let p = victim () in
  let m = Machine.warp in
  let n = Array.length p.Prog.code in
  let stretch_end = ref n in
  (try
     Array.iteri
       (fun i (inst : Inst.t) ->
         match inst.Inst.ctl with
         | Inst.Jump _ | Inst.Halt ->
           stretch_end := i;
           raise Exit
         | _ -> ())
       p.Prog.code
   with Exit -> ());
  (* reg id -> Some (write index, latency) for once-written registers,
     None once a second write poisons the pair *)
  let writes : (int, (int * int) option) Hashtbl.t = Hashtbl.create 32 in
  let site = ref None in
  (try
     for i = 0 to !stretch_end - 1 do
       let inst = p.Prog.code.(i) in
       List.iter
         (fun (r : Sp_ir.Vreg.t) ->
           match Hashtbl.find_opt writes r.Sp_ir.Vreg.id with
           | Some (Some (w, lat))
             when lat >= 2 && i = w + lat
                  && w + 1 < !stretch_end
                  && p.Prog.code.(w).Inst.ctl = Inst.Next
                  && p.Prog.code.(w + 1).Inst.ctl = Inst.Next ->
             site := Some (w, i);
             raise Exit
           | _ -> ())
         (List.concat_map Sp_ir.Op.reads inst.Inst.ops);
       List.iter
         (fun (op : Sp_ir.Op.t) ->
           match op.Sp_ir.Op.dst with
           | None -> ()
           | Some d ->
             let id = d.Sp_ir.Vreg.id in
             if Hashtbl.mem writes id then Hashtbl.replace writes id None
             else
               Hashtbl.replace writes id
                 (Some
                    ( i,
                      max 1
                        (Sp_machine.Machine.latency m op.Sp_ir.Op.kind) )))
         inst.Inst.ops
     done
   with Exit -> ());
  match !site with
  | None -> Alcotest.fail "no tight producer/consumer pair found to corrupt"
  | Some (w, c) ->
    let q = copy p in
    let tmp = q.Prog.code.(w) in
    q.Prog.code.(w) <- q.Prog.code.(w + 1);
    q.Prog.code.(w + 1) <- tmp;
    let rep = V.all Machine.warp q in
    Alcotest.(check bool) "clean before corruption" true
      (V.ok (V.all Machine.warp p));
    Alcotest.(check bool)
      (Fmt.str "producer at %d delayed past its read at %d rejected" w c)
      true
      (List.exists (fun v -> v.V.rule = V.Latency) rep.V.timing)

(** Corruption class 2: drop the first counter set; a later counter
    loop then runs off an uninitialized counter. *)
let test_mutation_drop_counter_set () =
  let p = victim () in
  let q = copy p in
  let dropped = ref false in
  Array.iteri
    (fun i (inst : Inst.t) ->
      if not !dropped then
        match inst.Inst.ctl with
        | Inst.CtrSet _ | Inst.CtrSetR _ ->
          q.Prog.code.(i) <- { inst with Inst.ctl = Inst.Next };
          dropped := true
        | _ -> ())
    p.Prog.code;
  if not !dropped then Alcotest.fail "no counter set found to drop";
  let rep = V.all Machine.warp q in
  Alcotest.(check bool) "dropped counter set rejected" true
    (List.exists (fun v -> v.V.rule = V.Counter) rep.V.timing)

(** Corruption class 3: duplicate a word's operations in place — two
    writes to one register land in the same cycle (and the word
    double-books its resources). *)
let test_mutation_duplicate_ops () =
  let p = victim () in
  let site = ref None in
  Array.iteri
    (fun i (inst : Inst.t) ->
      if
        !site = None
        && List.exists (fun (o : Sp_ir.Op.t) -> o.Sp_ir.Op.dst <> None)
             inst.Inst.ops
      then site := Some i)
    p.Prog.code;
  match !site with
  | None -> Alcotest.fail "no writing word found to duplicate"
  | Some i ->
    let q = copy p in
    let inst = q.Prog.code.(i) in
    q.Prog.code.(i) <- { inst with Inst.ops = inst.Inst.ops @ inst.Inst.ops };
    let rep = V.all Machine.warp q in
    Alcotest.(check bool)
      (Fmt.str "duplicated word %d rejected" i)
      true
      (List.exists (fun v -> v.V.rule = V.Write_port) rep.V.timing
      || rep.V.resources <> [])

(* ---- the checkers against their references ------------------------- *)

(** Warp with multi-cycle reservations, one reaching the word before,
    and latencies drawn from [seed]: checked against it, code compiled
    for Warp oversubscribes rows that several words reach, and writes
    to one register on both sides of a jump fall due in one cycle. *)
let skewed seed =
  let w = Machine.warp in
  let rid name = (Machine.find_resource w name).Machine.rid in
  let fmul = rid "fmul" and mem = rid "mem" and alu = rid "alu" in
  {
    w with
    Machine.name = "skewed";
    info =
      (fun k ->
        let reservation =
          match k with
          | Sp_machine.Opkind.Fmul -> [ (0, fmul); (1, fmul) ]
          | Load -> [ (-1, mem); (0, mem) ]
          | Iadd -> [ (0, alu); (2, alu) ]
          | _ -> (w.Machine.info k).Machine.reservation
        in
        { Machine.latency = Hashtbl.hash (k, seed) mod 17; reservation });
  }

(** test_validate's corruption classes, plus swapped and deleted words.
    Positions are reduced modulo the program's length when applied. *)
type mutation =
  | Delay of int  (** swap a word with its successor *)
  | Drop_ctl of int  (** the control field (a counter set, say) dropped *)
  | Duplicate of int  (** a word's operations issued twice *)
  | Swap of int * int
  | Delete of int

let pp_mutation ppf = function
  | Delay w -> Fmt.pf ppf "delay %d" w
  | Drop_ctl w -> Fmt.pf ppf "drop-ctl %d" w
  | Duplicate w -> Fmt.pf ppf "duplicate %d" w
  | Swap (a, b) -> Fmt.pf ppf "swap %d %d" a b
  | Delete w -> Fmt.pf ppf "delete %d" w

let mutate (code : Inst.t array) mu =
  let n = Array.length code in
  if n < 2 then code
  else
    let code = Array.copy code in
    let swap a b =
      let t = code.(a) in
      code.(a) <- code.(b);
      code.(b) <- t
    in
    match mu with
    | Delay w -> swap (w mod (n - 1)) ((w mod (n - 1)) + 1); code
    | Drop_ctl w ->
      code.(w mod n) <- { (code.(w mod n)) with Inst.ctl = Inst.Next };
      code
    | Duplicate w ->
      let i = code.(w mod n) in
      code.(w mod n) <- { i with Inst.ops = i.Inst.ops @ i.Inst.ops };
      code
    | Swap (a, b) -> swap (a mod n) (b mod n); code
    | Delete w ->
      let w = w mod n in
      Array.append (Array.sub code 0 w) (Array.sub code (w + 1) (n - w - 1))

type case = {
  prog : int;
  skew : int option;  (** check against [skewed seed] instead of Warp *)
  ctrs : int;
  live_in : bool;  (** the registers the first three words read are live in *)
  mutations : mutation list;
}

let case_gen =
  let open QCheck2.Gen in
  let pos = int_bound 100_000 in
  let mutation =
    oneof
      [
        map (fun w -> Delay w) pos;
        map (fun w -> Drop_ctl w) pos;
        map (fun w -> Duplicate w) pos;
        map2 (fun a b -> Swap (a, b)) pos pos;
        map (fun w -> Delete w) pos;
      ]
  in
  let* prog = int_bound 100_000 in
  let* skew = opt (int_bound 1000) in
  let* ctrs = oneofl [ 16; 2 ] in
  let* live_in = bool in
  let+ mutations = list_size (int_bound 4) mutation in
  { prog; skew; ctrs; live_in; mutations }

let pp_case ppf c =
  let name, _ = Corpus.nth c.prog in
  Fmt.pf ppf "%s%s ctrs=%d%s [%a]" name
    (match c.skew with Some s -> Printf.sprintf " on skewed %d" s | None -> "")
    c.ctrs
    (if c.live_in then " live-in" else "")
    Fmt.(list ~sep:(any "; ") pp_mutation)
    c.mutations

let prop_checkers_match_reference =
  QCheck2.Test.make ~count:400
    ~name:"checkers return the reference checkers' violations"
    ~print:(Fmt.str "%a" pp_case) case_gen (fun c ->
      let _, p = Corpus.nth c.prog in
      let code = List.fold_left mutate p.Prog.code c.mutations in
      let q = { Prog.code } in
      let m = match c.skew with Some s -> skewed s | None -> Machine.warp in
      let live_in =
        if not c.live_in then []
        else
          List.concat_map
            (fun (i : Inst.t) -> List.concat_map Sp_ir.Op.reads i.Inst.ops)
            (List.filteri (fun k _ -> k < 3) (Array.to_list code))
      in
      let timing = V.check_timing ~ctrs:c.ctrs ~live_in m q in
      let timing_ref = Ref_checkers.check_timing ~ctrs:c.ctrs ~live_in m q in
      let res = Sp_vliw.Check.check_prog m q in
      let res_ref = Ref_checkers.check_prog m q in
      (timing = timing_ref
      || QCheck2.Test.fail_reportf "timing:@.%a@.reference:@.%a"
           Fmt.(list V.pp_violation) timing
           Fmt.(list V.pp_violation) timing_ref)
      && (res = res_ref
         || QCheck2.Test.fail_reportf "resources:@.%a@.reference:@.%a"
              Fmt.(list Sp_vliw.Check.pp_violation) res
              Fmt.(list Sp_vliw.Check.pp_violation) res_ref))

let suite =
  [
    ("whole suite validates cleanly (3 machines)", `Slow, test_suite_clean);
    ("livermore validates cleanly", `Quick, test_livermore_clean);
    ("ablation configs validate cleanly", `Quick, test_configs_clean);
    QCheck_alcotest.to_alcotest prop_random_clean;
    ("mutation: delayed producer", `Quick, test_mutation_delay_producer);
    ("mutation: dropped counter set", `Quick, test_mutation_drop_counter_set);
    ("mutation: duplicated ops", `Quick, test_mutation_duplicate_ops);
    QCheck_alcotest.to_alcotest prop_checkers_match_reference;
  ]

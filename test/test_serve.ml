(** Tests for the compile service: fingerprint canonicalization
    (alpha-rename and unit-reorder invariance, constraint sensitivity),
    the content-addressed schedule cache (hit-side verifier, eviction
    order, disabled mode, concurrent insertion) and the service engine
    (codec, frame I/O, byte-identity with the offline compiler, fault
    scoping across requests). *)

open Sp_ir
module C = Sp_core.Compile
module Ddg = Sp_core.Ddg
module Sunit = Sp_core.Sunit
module Modsched = Sp_core.Modsched
module Fingerprint = Sp_serve.Fingerprint
module Cache = Sp_serve.Cache
module Service = Sp_serve.Service
module Fault = Sp_util.Fault
module Opkind = Sp_machine.Opkind
module Json = Sp_obs.Json

let m = Sp_machine.Machine.warp

(* ---- DDG material --------------------------------------------------- *)

(** A random innermost-loop dependence graph via the program
    generator; [None] when the seed produces an empty body. *)
let ddg_of_seed seed =
  let spec =
    {
      Gen.seed;
      trip = 40;
      n_stmts = 3 + (seed mod 6);
      use_if = false;
      use_accum = seed mod 2 = 0;
      use_chan = false;
      carried_store = seed mod 3 = 0;
      empty_body = false;
      maxlat = seed mod 5 = 0;
    }
  in
  let p, _, _ = Gen.build_many [ spec ] in
  match C.innermost_ddgs m p with
  | (_, g) :: _ when Array.length g.Ddg.units > 0 -> Some g
  | _ -> None

(** Deterministic shuffle of [0..n-1]. *)
let permutation seed n =
  let a = Array.init n (fun i -> i) in
  let s = ref ((seed * 2) + 1) in
  let next k =
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod k
  in
  for i = n - 1 downto 1 do
    let j = next (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** Present the same graph with unit [i] moved to position [pi.(i)]. *)
let permute_ddg (pi : int array) (g : Ddg.t) : Ddg.t =
  let n = Array.length g.Ddg.units in
  let units = Array.make n g.Ddg.units.(0) in
  Array.iteri (fun i u -> units.(pi.(i)) <- u) g.Ddg.units;
  let remap (e : Ddg.edge) =
    { e with Ddg.src = pi.(e.Ddg.src); dst = pi.(e.Ddg.dst) }
  in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  Array.iteri (fun i l -> succs.(pi.(i)) <- List.map remap l) g.Ddg.succs;
  Array.iteri (fun i l -> preds.(pi.(i)) <- List.map remap l) g.Ddg.preds;
  { g with Ddg.units; edges = List.map remap g.Ddg.edges; succs; preds }

(** Alpha-rename every register access (fresh ids, same sharing). *)
let rename_regs shift (g : Ddg.t) : Ddg.t =
  let rn (v : Vreg.t) =
    { v with Vreg.id = v.Vreg.id + shift; name = v.Vreg.name ^ "'" }
  in
  {
    g with
    Ddg.units =
      Array.map
        (fun (u : Sunit.t) ->
          {
            u with
            Sunit.uses = List.map (fun (v, t) -> (rn v, t)) u.Sunit.uses;
            defs = List.map (fun (v, t) -> (rn v, t)) u.Sunit.defs;
          })
        g.Ddg.units;
  }

let map_edges f (g : Ddg.t) : Ddg.t =
  {
    g with
    Ddg.edges = List.map f g.Ddg.edges;
    succs = Array.map (List.map f) g.Ddg.succs;
    preds = Array.map (List.map f) g.Ddg.preds;
  }

(* dependence chain of [k] adds (edges, shared registers) *)
let chain_units k : Sunit.t array =
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let r0 = Vreg.Supply.fresh sup Vreg.F in
  let rec go prev i acc =
    if i = k then List.rev acc
    else
      let d = Vreg.Supply.fresh sup Vreg.F in
      go d (i + 1)
        (Op.Supply.mk ops ~dst:d ~srcs:[ prev; prev ] Opkind.Fadd :: acc)
  in
  Array.of_list
    (List.mapi (fun i op -> Sunit.of_op m ~sid:i op) (go r0 0 []))

(* [k] adds with no shared registers (no edges) *)
let indep_units k : Sunit.t array =
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  Array.init k (fun i ->
      let a = Vreg.Supply.fresh sup Vreg.F in
      let b = Vreg.Supply.fresh sup Vreg.F in
      let d = Vreg.Supply.fresh sup Vreg.F in
      Sunit.of_op m ~sid:i (Op.Supply.mk ops ~dst:d ~srcs:[ a; b ] Opkind.Fadd))

(* ---- fingerprint properties ----------------------------------------- *)

let seed_gen = QCheck2.Gen.int_bound 400

let prop_reorder_invariant =
  QCheck2.Test.make ~name:"fingerprint survives unit reordering" ~count:120
    seed_gen (fun seed ->
      match ddg_of_seed seed with
      | None -> true
      | Some g ->
        let pi = permutation seed (Array.length g.Ddg.units) in
        Fingerprint.of_loop g m = Fingerprint.of_loop (permute_ddg pi g) m)

let prop_alpha_invariant =
  QCheck2.Test.make ~name:"fingerprint survives register renaming" ~count:120
    seed_gen (fun seed ->
      match ddg_of_seed seed with
      | None -> true
      | Some g ->
        Fingerprint.of_loop g m = Fingerprint.of_loop (rename_regs 4096 g) m)

let prop_perm_transfers_times =
  QCheck2.Test.make
    ~name:"canon perm is a bijection into canonical space" ~count:120 seed_gen
    (fun seed ->
      match ddg_of_seed seed with
      | None -> true
      | Some g ->
        let n = Array.length g.Ddg.units in
        let c = Fingerprint.canon g m in
        let seen = Array.make n false in
        Array.length c.Fingerprint.perm = n
        && (Array.iter
              (fun p -> if p >= 0 && p < n then seen.(p) <- true)
              c.Fingerprint.perm;
            Array.for_all (fun b -> b) seen))

let test_delay_sensitivity () =
  let g = Ddg.build (chain_units 3) in
  Alcotest.(check bool) "chain has edges" true (g.Ddg.edges <> []);
  let g' = map_edges (fun e -> { e with Ddg.delay = e.Ddg.delay + 1 }) g in
  Alcotest.(check bool)
    "delay change breaks the fingerprint" false
    (Fingerprint.of_loop g m = Fingerprint.of_loop g' m)

let test_omega_sensitivity () =
  let g = Ddg.build (chain_units 3) in
  let g' = map_edges (fun e -> { e with Ddg.omega = e.Ddg.omega + 1 }) g in
  Alcotest.(check bool)
    "omega change breaks the fingerprint" false
    (Fingerprint.of_loop g m = Fingerprint.of_loop g' m)

let test_resv_sensitivity () =
  let g = Ddg.build (chain_units 3) in
  Alcotest.(check bool)
    "units reserve resources" true
    (g.Ddg.units.(0).Sunit.resv <> []);
  let units' = Array.copy g.Ddg.units in
  units'.(0) <-
    {
      units'.(0) with
      Sunit.resv =
        List.map (fun (off, rid) -> (off + 1, rid)) units'.(0).Sunit.resv;
    };
  let g' = { g with Ddg.units = units' } in
  Alcotest.(check bool)
    "reservation change breaks the fingerprint" false
    (Fingerprint.of_loop g m = Fingerprint.of_loop g' m)

let test_machine_sensitivity () =
  let g = Ddg.build (chain_units 3) in
  Alcotest.(check bool)
    "machine description is part of the key" false
    (Fingerprint.of_loop g m = Fingerprint.of_loop g Sp_machine.Machine.toy)

(* ---- individualization ---------------------------------------------- *)

(* Every ordering of [0 .. n-1]. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (List.cons x) (permutations (List.filter (( <> ) x) l)))
      l

(* Two producers feeding two consumers: refinement leaves both pairs
   tied, and numbering each pair by index is not an automorphism, so
   only individualization makes the form independent of the
   presentation order. *)
let tied_pairs_units () : Sunit.t array =
  let sup = Vreg.Supply.create () in
  let ops = Op.Supply.create () in
  let f () = Vreg.Supply.fresh sup Vreg.F in
  let producer () =
    let d = f () in
    (d, Op.Supply.mk ops ~dst:d ~srcs:[ f (); f () ] Opkind.Fadd)
  in
  let d1, p1 = producer () in
  let d2, p2 = producer () in
  let consumer d = Op.Supply.mk ops ~dst:(f ()) ~srcs:[ d; f () ] Opkind.Fmul in
  Array.of_list
    (List.mapi
       (fun i op -> Sunit.of_op m ~sid:i op)
       [ p1; p2; consumer d1; consumer d2 ])

let test_individualization () =
  List.iter
    (fun (name, units) ->
      let g = Ddg.build units in
      let n = Array.length g.Ddg.units in
      let fp = Fingerprint.of_loop g m in
      List.iter
        (fun pi ->
          let g' = permute_ddg (Array.of_list pi) g in
          Alcotest.(check string) (name ^ ": unit order") fp
            (Fingerprint.of_loop g' m);
          let c = Fingerprint.canon g' m in
          Alcotest.(check (list int))
            (name ^ ": perm is a bijection")
            (List.init n Fun.id)
            (List.sort compare (Array.to_list c.Fingerprint.perm)))
        (permutations (List.init n Fun.id));
      Alcotest.(check string) (name ^ ": register renaming") fp
        (Fingerprint.of_loop (rename_regs 4096 g) m))
    [ ("indep_units 4", indep_units 4); ("tied pairs", tied_pairs_units ()) ]

(* ---- the reference canonicalization ----------------------------------- *)

let same_canon (a : Fingerprint.canon) (b : Fingerprint.canon) =
  String.equal a.Fingerprint.fp b.Fingerprint.fp
  && a.Fingerprint.perm = b.Fingerprint.perm

(* The probe graphs of the service sources and the Livermore kernels. *)
let reference_graphs =
  lazy
    (Array.append
       (Lazy.force Corpus.service_probes)
       (Array.of_list
          (List.concat_map
             (fun (k : Sp_kernels.Kernel.t) ->
               Corpus.probe_graphs m (Sp_kernels.Kernel.program k))
             Sp_kernels.Livermore.all)))

let test_canon_reference () =
  Array.iteri
    (fun i g ->
      if not (same_canon (Fingerprint.canon g m) (Ref_fingerprint.canon g m))
      then Alcotest.failf "probe graph %d: canon differs from the reference" i)
    (Lazy.force reference_graphs);
  List.iter
    (fun (name, units) ->
      let g = Ddg.build units in
      if not (same_canon (Fingerprint.canon g m) (Ref_fingerprint.canon g m))
      then Alcotest.failf "%s: canon differs from the reference" name)
    [ ("indep_units 4", indep_units 4); ("tied pairs", tied_pairs_units ()) ]

(* A probe graph under a unit permutation and a register renaming, its
   reservation lists reversed or not, on Warp or a scaled Warp. *)
let prop_canon_reference =
  QCheck2.Test.make ~count:300
    ~name:"canon matches the reference canon"
    QCheck2.Gen.(quad nat nat (int_bound 3) bool)
    (fun (k, seed, width, reverse) ->
      let graphs = Lazy.force reference_graphs in
      let g = graphs.(k mod Array.length graphs) in
      let g = permute_ddg (permutation seed (Array.length g.Ddg.units)) g in
      let g = if seed mod 2 = 0 then rename_regs (1 + (seed mod 5000)) g else g in
      let g =
        if reverse then
          { g with
            Ddg.units =
              Array.map
                (fun (u : Sunit.t) -> { u with Sunit.resv = List.rev u.Sunit.resv })
                g.Ddg.units }
        else g
      in
      let m = if width = 0 then m else Sp_machine.Machine.warp_scaled ~width in
      same_canon (Fingerprint.canon g m) (Ref_fingerprint.canon g m))

(* The reference allocates 9,731 minor words per probe of the service
   sources' graphs. *)
let test_canon_alloc () =
  let graphs = Lazy.force Corpus.service_probes in
  Array.iter (fun g -> ignore (Fingerprint.canon g m)) graphs;
  let words =
    Alloc.minor_words (fun () ->
        Array.iter (fun g -> ignore (Sys.opaque_identity (Fingerprint.canon g m))) graphs)
  in
  let per_probe = words /. float_of_int (Array.length graphs) in
  if per_probe > 3500. then
    Alcotest.failf "canon: %.0f minor words per probe (at most 3,500)" per_probe

(* ---- golden files --------------------------------------------------- *)

(** For each innermost loop of the 72-program population, the 20
    Livermore kernels and Wgen seeds 1–500, the index of the first loop
    with an equal fingerprint: the cache's collision partition. It
    depends on the graphs alone, not on how refinement keys are
    computed, so a change to the keys must leave this file as it is. *)
let test_collision_classes_golden () =
  let of_prog label p =
    List.mapi
      (fun i (_, g) -> (Printf.sprintf "%s/%d" label i, g))
      (C.innermost_ddgs m p)
  in
  let kernel prefix (k : Sp_kernels.Kernel.t) =
    of_prog (prefix ^ k.Sp_kernels.Kernel.name) (Sp_kernels.Kernel.program k)
  in
  let loops =
    List.concat_map
      (fun (e : Sp_kernels.Suite.entry) ->
        kernel "pop/" e.Sp_kernels.Suite.kernel)
      Sp_kernels.Suite.all
    @ List.concat_map (kernel "lfk/") Sp_kernels.Livermore.all
    @ List.concat_map
        (fun seed ->
          of_prog
            (Printf.sprintf "wgen/%d" seed)
            (Sp_lang.Lower.compile_source
               (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed))))
        (List.init 500 (fun i -> i + 1))
  in
  let first = Hashtbl.create 1024 in
  let b = Buffer.create 16384 in
  List.iteri
    (fun i (label, g) ->
      let fp = Fingerprint.of_loop g m in
      if not (Hashtbl.mem first fp) then Hashtbl.add first fp i;
      Printf.bprintf b "%s %d\n" label (Hashtbl.find first fp))
    loops;
  Golden.check "golden/fingerprint_classes.golden" (Buffer.contents b)

(** MD5 of the [w2c compile] listing of every Livermore kernel and
    population program: the printer's bytes, which [w2cd] serves and
    the campaign oracle compares. *)
let test_listing_golden () =
  let b = Buffer.create 8192 in
  List.iter
    (fun (k : Sp_kernels.Kernel.t) ->
      let p = Sp_kernels.Kernel.program k in
      Printf.bprintf b "%s %s\n" k.Sp_kernels.Kernel.name
        (Digest.to_hex (Digest.string (C.listing m p (C.program m p)))))
    (Sp_kernels.Livermore.all
    @ List.map
        (fun (e : Sp_kernels.Suite.entry) -> e.Sp_kernels.Suite.kernel)
        Sp_kernels.Suite.all);
  Golden.check "golden/listing_md5.golden" (Buffer.contents b)

(** MD5 of the listing of every Livermore kernel compiled with the
    400k-fuel exact certifier (the [livermore] benchmark workload's
    configuration) and of Wgen seeds 1–400 at the default one: the
    emitted bytes where the benchmark compiles. *)
let test_listing_wide_golden () =
  let b = Buffer.create 32768 in
  let add label config p =
    Printf.bprintf b "%s %s\n" label
      (Digest.to_hex (Digest.string (C.listing m p (C.program ~config m p))))
  in
  let certified =
    { C.default with C.certifier = Some (Sp_opt.Certify.hook ~fuel:400_000 ()) }
  in
  List.iter
    (fun (k : Sp_kernels.Kernel.t) ->
      add ("lfk/" ^ k.Sp_kernels.Kernel.name) certified
        (Sp_kernels.Kernel.program k))
    Sp_kernels.Livermore.all;
  for seed = 1 to 400 do
    add
      (Printf.sprintf "wgen/%d" seed)
      C.default
      (Sp_lang.Lower.compile_source
         (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed)))
  done;
  Golden.check "golden/listing_wide_md5.golden" (Buffer.contents b)

(* ---- the hit-side verifier, Modsched.check -------------------------- *)

let verdict g ~s times = Test_modsched.kind (Modsched.check m g ~s ~times)

let test_schedule_ok () =
  let g = Ddg.build (chain_units 3) in
  let n = Array.length g.Ddg.units in
  let spread = Array.init n (fun i -> i * 10) in
  Alcotest.(check string) "spread chain verifies" "ok"
    (verdict g ~s:100 spread);
  Alcotest.(check string) "negative time rejected" "negative"
    (verdict g ~s:100 (Array.map (fun t -> t - 10) spread));
  Alcotest.(check string) "violated dependence rejected" "edge"
    (verdict g ~s:100 (Array.make n 0));
  Alcotest.(check string) "zero interval rejected" "shape"
    (verdict g ~s:0 spread)

let test_schedule_ok_resources () =
  let g = Ddg.build (indep_units 8) in
  Alcotest.(check bool) "no edges" true (g.Ddg.edges = []);
  Alcotest.(check string) "eight adds in one modulo slot rejected" "resource"
    (verdict g ~s:1 (Array.make 8 0));
  Alcotest.(check string) "spread out they verify" "ok"
    (verdict g ~s:8 (Array.init 8 (fun i -> i)))

let test_schedule_ok_wrap () =
  let g = Ddg.build (indep_units 2) in
  let units = Array.copy g.Ddg.units in
  units.(1) <- { units.(1) with Sunit.len = 2; no_wrap = true };
  let g = { g with Ddg.units } in
  (* at s = 5 a two-word no-wrap unit may start at residues 0 to 2 *)
  List.iter
    (fun (t, want) ->
      Alcotest.(check string) (Printf.sprintf "no-wrap unit at %d" t) want
        (verdict g ~s:5 [| 4; t |]))
    [ (0, "ok"); (2, "ok"); (3, "wrap"); (4, "wrap"); (7, "ok"); (8, "wrap") ];
  Alcotest.(check bool) "the unit is named" true
    (Modsched.check m g ~s:5 ~times:[| 4; 3 |] = Error (Modsched.Wrap 1))

(* ---- cache behaviour through the compiler --------------------------- *)

(* three structurally distinct single-loop programs *)
let prog_a =
  "program pa; var x, y : array [0..63] of float; k : int;\n\
   begin for k := 0 to 63 do y[k] := 2.5 * x[k] + y[k]; end."

let prog_b =
  "program pb; var x, y : array [0..63] of float; k : int;\n\
   begin for k := 0 to 63 do y[k] := (x[k] + 1.5) * (x[k] + 2.5) + x[k]; \
   end."

let prog_c =
  "program pc; var x, y, z : array [0..63] of float; k : int;\n\
   begin for k := 0 to 63 do z[k] := x[k] * y[k] + z[k] * 0.5 + x[k]; end."

let compile_src ?cache src =
  let config =
    { C.default with C.cache = Option.map Cache.hook cache; jobs = 1 }
  in
  C.program ~config m (Sp_lang.Lower.compile_source src)

let test_cache_identity () =
  let direct = C.fingerprint (compile_src prog_a) in
  let cache = Cache.create ~capacity:8 in
  let cold = C.fingerprint (compile_src ~cache prog_a) in
  let warm = C.fingerprint (compile_src ~cache prog_a) in
  Alcotest.(check string) "cold equals direct" direct cold;
  Alcotest.(check string) "warm equals direct" direct warm;
  let s = Cache.stats cache in
  Alcotest.(check bool) "warm pass hit" true (s.Cache.hits > 0);
  Alcotest.(check int) "one schedule stored" 1 s.Cache.inserts

let test_cache_disabled () =
  let direct = C.fingerprint (compile_src prog_a) in
  let cache = Cache.create ~capacity:0 in
  let once = C.fingerprint (compile_src ~cache prog_a) in
  let twice = C.fingerprint (compile_src ~cache prog_a) in
  Alcotest.(check string) "disabled cache, identical output" direct once;
  Alcotest.(check string) "second pass identical too" direct twice;
  let s = Cache.stats cache in
  Alcotest.(check int) "never hits" 0 s.Cache.hits;
  Alcotest.(check int) "never stores" 0 s.Cache.inserts;
  Alcotest.(check int) "stays empty" 0 s.Cache.entries;
  Alcotest.(check bool) "probes still counted" true (s.Cache.misses > 0)

let test_cache_eviction () =
  let cache = Cache.create ~capacity:1 in
  ignore (compile_src ~cache prog_a);
  let s1 = Cache.stats cache in
  Alcotest.(check int) "one loop, one insert" 1 s1.Cache.inserts;
  ignore (compile_src ~cache prog_b);
  ignore (compile_src ~cache prog_a);
  let s = Cache.stats cache in
  Alcotest.(check int) "capacity 1 never hits here" 0 s.Cache.hits;
  Alcotest.(check int) "every compile inserted" 3 s.Cache.inserts;
  Alcotest.(check int) "two evictions" 2 s.Cache.evictions;
  Alcotest.(check int) "population respects capacity" 1 s.Cache.entries

let test_cache_lru_promotion () =
  let cache = Cache.create ~capacity:2 in
  ignore (compile_src ~cache prog_a) (* insert A *);
  ignore (compile_src ~cache prog_b) (* insert B *);
  ignore (compile_src ~cache prog_a) (* hit A: promotes its recency *);
  ignore (compile_src ~cache prog_c) (* insert C: evicts B, not A *);
  ignore (compile_src ~cache prog_a) (* must still hit *);
  let s = Cache.stats cache in
  Alcotest.(check int) "A hit twice" 2 s.Cache.hits;
  Alcotest.(check int) "three inserts" 3 s.Cache.inserts;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "full" 2 s.Cache.entries

let test_cache_concurrent () =
  (* many concurrent requests hammering one cache through the service
     pool: every response must match the uncached reference *)
  let service = Service.create ~cache_capacity:16 ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  let progs = [ prog_a; prog_b; prog_c ] in
  let rq src =
    Service.Compile { machine = "warp"; inject = None; trace = None; source = src }
  in
  let batch = List.concat_map (fun s -> [ rq s; rq s; rq s; rq s ]) progs in
  let reference =
    let uncached = Service.create ~cache_capacity:0 () in
    Fun.protect ~finally:(fun () -> Service.close uncached) @@ fun () ->
    List.map
      (fun src ->
        match Service.handle uncached (rq src) with
        | Service.Ok body -> body
        | Service.Err e -> Alcotest.fail e)
      progs
  in
  let run () =
    List.map2
      (fun rq' expected ->
        match (rq', expected) with
        | Service.Ok body, e -> Alcotest.(check string) "identical" e body
        | Service.Err msg, _ -> Alcotest.fail msg)
      (Service.handle_batch service batch)
      (List.concat_map (fun e -> [ e; e; e; e ]) reference)
  in
  ignore (run ());
  ignore (run ());
  match Service.cache service with
  | None -> Alcotest.fail "service lost its cache"
  | Some c ->
    let s = Cache.stats c in
    Alcotest.(check bool) "second batch hits" true (s.Cache.hits > 0);
    Alcotest.(check bool)
      "population bounded" true
      (s.Cache.entries <= Cache.capacity c)

(* ---- service codec and frames --------------------------------------- *)

let test_codec_roundtrip () =
  let rqs =
    [
      Service.Compile
        { machine = "warp"; inject = None; trace = None;
          source = "program p; begin end." };
      Service.Compile
        {
          machine = "toy";
          inject = Some ("modsched.place", 3);
          trace = None;
          source = "body\nwith\nnewlines";
        };
      Service.Compile
        { machine = "warp"; inject = None; trace = Some "req-0007";
          source = "program p; begin end." };
      Service.Compile
        {
          machine = "serial";
          inject = Some ("modsched.place", 1);
          trace = Some "both-tokens";
          source = "body";
        };
      Service.Stats;
      Service.Status;
      Service.Dashboard;
      Service.Ping;
    ]
  in
  List.iter
    (fun rq ->
      match Service.parse_request (Service.render_request rq) with
      | Ok rq' -> Alcotest.(check bool) "request survives" true (rq = rq')
      | Error e -> Alcotest.fail e)
    rqs;
  (match Service.parse_request "verb nobody knows" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk verb accepted");
  (match Service.parse_request "compile warp trace=\nbody" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty trace id accepted");
  (match Service.parse_request "compile warp color=red\nbody" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown request token accepted");
  Alcotest.(check (result reject string))
    "compile without a machine" (Error "missing machine")
    (Service.parse_request "compile\nprogram p; begin end.");
  List.iter
    (fun payload ->
      Alcotest.(check (result reject string))
        (Printf.sprintf "%S" payload)
        (Error (Printf.sprintf "malformed response payload %S" payload))
        (match Service.parse_response payload with
        | Service.Ok b -> Ok b
        | Service.Err e -> Error e))
    [ ""; "o"; "ok"; "error"; "OK\nbody"; "okay\n" ];
  List.iter
    (fun resp ->
      Alcotest.(check bool)
        "response survives" true
        (Service.parse_response (Service.render_response resp) = resp))
    [ Service.Ok "some\nbody"; Service.Err "message"; Service.Ok "" ]

let test_frame_roundtrip () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Service.Frame.write a "hello frames";
      Service.Frame.write a "";
      Alcotest.(check (option string))
        "payload" (Some "hello frames") (Service.Frame.read b);
      Alcotest.(check (option string))
        "empty payload" (Some "") (Service.Frame.read b);
      Unix.close a;
      Alcotest.(check (option string)) "clean EOF" None (Service.Frame.read b))

let offline src =
  let p = Sp_lang.Lower.compile_source src in
  let r = C.program ~config:{ C.default with C.jobs = 1 } m p in
  Fmt.str "; %s: %d instructions for machine %s@." p.Sp_ir.Program.name
    r.C.code_size m.Sp_machine.Machine.name
  ^ Fmt.str "%a" Sp_vliw.Prog.pp r.C.code

let test_service_matches_offline () =
  let service = Service.create ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  List.iter
    (fun src ->
      match
        Service.handle service
          (Service.Compile { machine = "warp"; inject = None; trace = None; source = src })
      with
      | Service.Ok body ->
        Alcotest.(check string) "matches w2c compile" (offline src) body
      | Service.Err e -> Alcotest.fail e)
    [ prog_a; prog_b; prog_a (* the warm repeat too *) ]

let test_service_error_paths () =
  let service = Service.create ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  List.iter
    (fun machine ->
      match
        Service.handle service
          (Service.Compile { machine; inject = None; trace = None; source = prog_a })
      with
      | Service.Err e ->
        (* an error response ends in the request's identity *)
        let expected = Printf.sprintf "unknown machine %S [req " machine in
        if not (String.starts_with ~prefix:expected e) then
          Alcotest.failf "%s: %S" machine e
      | Service.Ok _ -> Alcotest.failf "unknown machine %S accepted" machine)
    [ "warp9000"; "warp2xyz"; "warp+2x"; "warp02x"; "warp100000x" ];
  (match
     Service.handle service
       (Service.Compile { machine = "warp2x"; inject = None; trace = None; source = prog_a })
   with
  | Service.Ok _ -> ()
  | Service.Err e -> Alcotest.failf "warp2x refused: %s" e);
  (match
     Service.handle service
       (Service.Compile
          { machine = "warp"; inject = None; trace = None; source = "program p; begin x := 1e; end." })
   with
  | Service.Err e ->
    let expected = {|lexical error at 1:23: malformed number "1e" [req |} in
    if not (String.starts_with ~prefix:expected e) then
      Alcotest.failf "malformed number: %S" e
  | Service.Ok _ -> Alcotest.fail "malformed number compiled");
  (match
     Service.handle service
       (Service.Compile
          { machine = "warp"; inject = None; trace = None;
            source = "program oops" })
   with
  | Service.Err _ -> ()
  | Service.Ok _ -> Alcotest.fail "syntax error compiled");
  match
    Service.handle service
      (Service.Compile
         {
           machine = "warp";
           inject = Some ("no.such.site", 1);
           trace = None;
           source = prog_a;
         })
  with
  | Service.Err msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "names the bad site" true
      (contains msg "no.such.site")
  | Service.Ok _ -> Alcotest.fail "unknown fault site accepted"

let test_stats_verb () =
  let service = Service.create ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  ignore
    (Service.handle service
       (Service.Compile { machine = "warp"; inject = None; trace = None; source = prog_a }));
  match Service.handle service Service.Stats with
  | Service.Err e -> Alcotest.fail e
  | Service.Ok body -> (
    match Json.member "misses" (Json.of_string body) with
    | Some (Json.Int n) -> Alcotest.(check bool) "probed" true (n > 0)
    | _ -> Alcotest.fail "stats carry no miss counter")

(* ---- fault scoping across requests (the leak regression) ------------ *)

let test_inject_does_not_leak () =
  let service = Service.create ~cache_capacity:8 () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  let reference = offline prog_a in
  (* the armed cache probe raises; the compiler degrades that loop and
     the request still answers Ok *)
  (match
     Service.handle service
       (Service.Compile
          { machine = "warp"; inject = Some (Cache.site, 1); trace = None;
            source = prog_a })
   with
  | Service.Ok body ->
    Alcotest.(check bool)
      "injected compile degrades (differs from clean)" false
      (body = reference)
  | Service.Err e -> Alcotest.fail ("injected request must degrade: " ^ e));
  Alcotest.(check bool)
    "site disarmed after the request" false (Fault.is_armed ());
  (* the degraded request must not have poisoned the cache: the next
     clean request compiles fresh and matches the offline compiler *)
  match
    Service.handle service
      (Service.Compile { machine = "warp"; inject = None; trace = None; source = prog_a })
  with
  | Service.Ok body ->
    Alcotest.(check string) "clean request after injection" reference body
  | Service.Err e -> Alcotest.fail e

let test_inject_in_batch_stays_scoped () =
  let service = Service.create ~cache_capacity:8 ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  let reference = offline prog_b in
  let rq inject =
    Service.Compile { machine = "warp"; inject; trace = None; source = prog_b }
  in
  (* one armed request sandwiched between clean ones: the batch runs
     sequentially and only the armed request degrades *)
  match
    Service.handle_batch service
      [ rq None; rq (Some (Cache.site, 1)); rq None ]
  with
  | [ Service.Ok a; Service.Ok b; Service.Ok c ] ->
    Alcotest.(check string) "first clean" reference a;
    Alcotest.(check bool) "armed one degrades" false (b = reference);
    Alcotest.(check string) "third clean" reference c;
    Alcotest.(check bool) "disarmed afterwards" false (Fault.is_armed ())
  | rs ->
    Alcotest.fail
      (Printf.sprintf "expected 3 ok responses, got %d" (List.length rs))

(* ---- request-scoped tracing and telemetry --------------------------- *)

(** Names-and-nesting of a [trees_json] value — durations stripped, so
    two runs of the same request compare equal. *)
let rec skel (j : Json.t) : Json.t =
  match j with
  | Json.Obj kvs -> (
    let name =
      match List.assoc_opt "name" kvs with
      | Some (Json.Str s) -> s
      | _ -> "?"
    in
    match List.assoc_opt "children" kvs with
    | Some (Json.List kids) -> Json.Obj [ (name, Json.List (List.map skel kids)) ]
    | _ -> Json.Str name)
  | Json.List l -> Json.List (List.map skel l)
  | _ -> Json.Null

let test_traced_roundtrip () =
  let service = Service.create ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  let reference = offline prog_a in
  match
    Service.handle service
      (Service.Compile
         { machine = "warp"; inject = None; trace = Some "t-42";
           source = prog_a })
  with
  | Service.Err e -> Alcotest.fail e
  | Service.Ok body ->
    let env = Json.of_string body in
    Alcotest.(check bool)
      "envelope schema" true
      (Json.member "schema" env = Some (Json.Str Service.trace_schema));
    Alcotest.(check bool)
      "trace id echoed" true
      (Json.member "trace" env = Some (Json.Str "t-42"));
    Alcotest.(check bool)
      "first request is seq 0" true
      (Json.member "seq" env = Some (Json.Int 0));
    (match Json.member "output" env with
    | Some (Json.Str out) ->
      Alcotest.(check string) "output matches offline compiler" reference out
    | _ -> Alcotest.fail "envelope carries no output");
    (match Json.member "spans" env with
    | Some (Json.List (_ :: _ as spans)) ->
      (* the root request span must nest the protocol phases *)
      let s = Json.to_string (skel (Json.List spans)) in
      let contains needle =
        let nh = String.length s and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub s i nn = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun phase ->
          Alcotest.(check bool) (phase ^ " span present") true (contains phase))
        [ "request"; "request.decode"; "request.schedule"; "request.encode" ]
    | _ -> Alcotest.fail "envelope carries no spans");
    (* a traced request leaves global tracing alone *)
    Alcotest.(check bool) "tracing still off" false (Sp_obs.Trace.enabled ())

let test_error_identity () =
  let service = Service.create ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  let ends_with suffix s =
    let ns = String.length s and n = String.length suffix in
    ns >= n && String.sub s (ns - n) n = suffix
  in
  (match
     Service.handle service
       (Service.Compile
          { machine = "warp"; inject = None; trace = None;
            source = "program oops" })
   with
  | Service.Err msg ->
    Alcotest.(check bool) "untraced error carries [req 0]" true
      (ends_with "[req 0]" msg)
  | Service.Ok _ -> Alcotest.fail "syntax error compiled");
  match
    Service.handle service
      (Service.Compile
         { machine = "warp"; inject = None; trace = Some "tid";
           source = "program oops" })
  with
  | Service.Err msg ->
    Alcotest.(check bool) "traced error carries seq and trace id" true
      (ends_with "[req 1 trace=tid]" msg)
  | Service.Ok _ -> Alcotest.fail "syntax error compiled"

let test_status_verb () =
  let service = Service.create ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  let compile src =
    Service.Compile { machine = "warp"; inject = None; trace = None; source = src }
  in
  ignore (Service.handle service (compile prog_a));
  ignore (Service.handle service (compile "program oops"));
  (match Service.handle service Service.Status with
  | Service.Err e -> Alcotest.fail e
  | Service.Ok body ->
    let j = Json.of_string body in
    Alcotest.(check bool)
      "status schema" true
      (Json.member "schema" j = Some (Json.Str Service.status_schema));
    Alcotest.(check bool)
      "telemetry on" true
      (Json.member "telemetry" j = Some (Json.Bool true));
    (* the status request is the third admitted request *)
    Alcotest.(check bool)
      "total counts every verb" true
      (Json.path [ "requests"; "total" ] j = Some (Json.Int 3));
    Alcotest.(check bool)
      "compile counter" true
      (Json.path [ "requests"; "compile" ] j = Some (Json.Int 2));
    Alcotest.(check bool)
      "error counter" true
      (Json.path [ "requests"; "error" ] j = Some (Json.Int 1));
    (match Json.path [ "series"; "latency_us"; "windows" ] j with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "no latency windows after requests");
    match Json.path [ "error_budget"; "ok" ] j with
    | Some (Json.Bool _) -> ()
    | _ -> Alcotest.fail "no error budget verdict");
  (* the dashboard renders the same telemetry as self-contained HTML *)
  match Service.handle service Service.Dashboard with
  | Service.Err e -> Alcotest.fail e
  | Service.Ok html ->
    let contains needle =
      let nh = String.length html and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub html i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "html document" true (contains "</html>");
    List.iter
      (fun banned ->
        Alcotest.(check bool) ("no " ^ banned) false (contains banned))
      [ "http://"; "https://"; "<script src"; "<link" ]

let test_telemetry_disabled () =
  let service = Service.create ~cache_capacity:4 ~telemetry:false () in
  Fun.protect ~finally:(fun () -> Service.close service) @@ fun () ->
  let reference = offline prog_a in
  (match
     Service.handle service
       (Service.Compile
          { machine = "warp"; inject = None; trace = None; source = prog_a })
   with
  | Service.Ok body ->
    Alcotest.(check string) "output unchanged without telemetry" reference body
  | Service.Err e -> Alcotest.fail e);
  Alcotest.(check int) "no sequence clock" 0 (Service.telemetry_seq service);
  (match
     Service.handle service
       (Service.Compile
          { machine = "warp"; inject = None; trace = None;
            source = "program oops" })
   with
  | Service.Err msg ->
    (* no telemetry, no sequence number to stamp errors with *)
    let contains needle =
      let nh = String.length msg and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub msg i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "no [req N] suffix" false (contains "[req ")
  | Service.Ok _ -> Alcotest.fail "syntax error compiled");
  match Service.handle service Service.Status with
  | Service.Err e -> Alcotest.fail e
  | Service.Ok body ->
    let j = Json.of_string body in
    Alcotest.(check bool)
      "status says telemetry off" true
      (Json.member "telemetry" j = Some (Json.Bool false));
    Alcotest.(check bool) "no series" true (Json.member "series" j = None)

let test_request_log () =
  let path = Filename.temp_file "w2cd_reqlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out path in
  let service = Service.create ~cache_capacity:4 ~log:oc () in
  ignore
    (Service.handle service
       (Service.Compile
          { machine = "warp"; inject = None; trace = None; source = prog_a }));
  ignore
    (Service.handle service
       (Service.Compile
          { machine = "warp"; inject = None; trace = Some "lg";
            source = prog_a }));
  Service.close service;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  match List.rev_map Json.of_string !lines with
  | [ l0; l1 ] ->
    Alcotest.(check bool)
      "log schema" true
      (Json.member "schema" l0 = Some (Json.Str Service.reqlog_schema));
    Alcotest.(check bool)
      "seq 0 then 1" true
      (Json.member "seq" l0 = Some (Json.Int 0)
      && Json.member "seq" l1 = Some (Json.Int 1));
    Alcotest.(check bool)
      "untraced line has null trace, no spans" true
      (Json.member "trace" l0 = Some Json.Null
      && Json.member "spans" l0 = None);
    Alcotest.(check bool)
      "traced line carries id and spans" true
      (Json.member "trace" l1 = Some (Json.Str "lg")
      && Json.member "spans" l1 <> None)
  | ls ->
    Alcotest.fail
      (Printf.sprintf "expected 2 log lines, got %d" (List.length ls))

(** The determinism contract of traced requests: the span skeleton of a
    request depends only on the request itself (and the cache state
    admitted before it — disabled here), never on the pool width or on
    batch co-residents. *)
let prop_trace_skeleton_stable =
  QCheck2.Test.make
    ~name:"traced span skeleton independent of jobs and batch mix" ~count:10
    QCheck2.Gen.(pair (int_bound 2) (list_size (int_bound 4) (int_bound 2)))
    (fun (pi, mates) ->
      let progs = [| prog_a; prog_b; prog_c |] in
      let traced =
        Service.Compile
          { machine = "warp"; inject = None; trace = Some "t";
            source = progs.(pi) }
      in
      let plain j =
        Service.Compile
          { machine = "warp"; inject = None; trace = None; source = progs.(j) }
      in
      let skeleton_at ~jobs batch pick =
        let svc = Service.create ~cache_capacity:0 ~jobs () in
        Fun.protect ~finally:(fun () -> Service.close svc) @@ fun () ->
        match List.nth (Service.handle_batch svc batch) pick with
        | Service.Ok body -> (
          match Json.member "spans" (Json.of_string body) with
          | Some spans -> Json.to_string (skel spans)
          | None -> QCheck2.Test.fail_report "traced response without spans")
        | Service.Err e -> QCheck2.Test.fail_report e
      in
      let solo1 = skeleton_at ~jobs:1 [ traced ] 0 in
      let solo8 = skeleton_at ~jobs:8 [ traced ] 0 in
      let mixed =
        skeleton_at ~jobs:4
          (List.map plain mates @ [ traced ])
          (List.length mates)
      in
      if solo1 <> solo8 then
        QCheck2.Test.fail_reportf "jobs changed the skeleton:\n%s\n%s" solo1
          solo8;
      if solo1 <> mixed then
        QCheck2.Test.fail_reportf "co-residents changed the skeleton:\n%s\n%s"
          solo1 mixed;
      true)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    qt prop_reorder_invariant;
    qt prop_alpha_invariant;
    qt prop_perm_transfers_times;
    ("fingerprint delay sensitivity", `Quick, test_delay_sensitivity);
    ("fingerprint omega sensitivity", `Quick, test_omega_sensitivity);
    ("fingerprint reservation sensitivity", `Quick, test_resv_sensitivity);
    ("fingerprint machine sensitivity", `Quick, test_machine_sensitivity);
    ("hit verifier: dependences", `Quick, test_schedule_ok);
    ("hit verifier: resources", `Quick, test_schedule_ok_resources);
    ("hit verifier: wrap windows", `Quick, test_schedule_ok_wrap);
    ("cache keeps output identical", `Quick, test_cache_identity);
    ("capacity 0 disables the cache", `Quick, test_cache_disabled);
    ("bounded capacity evicts", `Quick, test_cache_eviction);
    ("hits refresh recency", `Quick, test_cache_lru_promotion);
    ("concurrent requests share the cache", `Quick, test_cache_concurrent);
    ("request/response codec", `Quick, test_codec_roundtrip);
    ("frame round trip", `Quick, test_frame_roundtrip);
    ("service matches offline compiler", `Quick, test_service_matches_offline);
    ("service error paths", `Quick, test_service_error_paths);
    ("stats verb", `Quick, test_stats_verb);
    ("injected fault stays in its request", `Quick, test_inject_does_not_leak);
    ("injection inside a batch", `Quick, test_inject_in_batch_stays_scoped);
    ("traced request round trip", `Quick, test_traced_roundtrip);
    ("errors carry request identity", `Quick, test_error_identity);
    ("status and dashboard verbs", `Quick, test_status_verb);
    ("telemetry disabled", `Quick, test_telemetry_disabled);
    ("request log", `Quick, test_request_log);
    qt prop_trace_skeleton_stable;
    ("fingerprint individualization", `Quick, test_individualization);
    ("fingerprint collision classes golden", `Quick,
     test_collision_classes_golden);
    ("canon matches the reference on every probe graph", `Quick,
     test_canon_reference);
    qt prop_canon_reference;
    ("canon allocates at most 3,500 words per probe", `Quick, test_canon_alloc);
    ("compile listing golden", `Quick, test_listing_golden);
    ("wide compile listing golden", `Quick, test_listing_wide_golden);
  ]

(** Unit and property tests for [Sp_util]. *)

open Sp_util

let check_int = Alcotest.(check int)

(* ---- Intmath ------------------------------------------------------ *)

let test_gcd () =
  check_int "gcd 12 18" 6 (Intmath.gcd 12 18);
  check_int "gcd 0 5" 5 (Intmath.gcd 0 5);
  check_int "gcd 5 0" 5 (Intmath.gcd 5 0);
  check_int "gcd 0 0" 0 (Intmath.gcd 0 0);
  check_int "gcd -12 18" 6 (Intmath.gcd (-12) 18);
  check_int "gcd 7 13" 1 (Intmath.gcd 7 13)

let test_lcm () =
  check_int "lcm 4 6" 12 (Intmath.lcm 4 6);
  check_int "lcm 1 9" 9 (Intmath.lcm 1 9);
  check_int "lcm 0 9" 0 (Intmath.lcm 0 9);
  check_int "lcm_list []" 1 (Intmath.lcm_list []);
  check_int "lcm_list [2;3;4]" 12 (Intmath.lcm_list [ 2; 3; 4 ])

let test_ceil_div () =
  check_int "7/2" 4 (Intmath.ceil_div 7 2);
  check_int "8/2" 4 (Intmath.ceil_div 8 2);
  check_int "1/5" 1 (Intmath.ceil_div 1 5);
  check_int "0/5" 0 (Intmath.ceil_div 0 5);
  check_int "-1/5" 0 (Intmath.ceil_div (-1) 5);
  check_int "-7/2" (-3) (Intmath.ceil_div (-7) 2);
  Alcotest.check_raises "zero divisor"
    (Invalid_argument "Intmath.ceil_div: non-positive divisor") (fun () ->
      ignore (Intmath.ceil_div 3 0))

let test_floor_div () =
  check_int "7/2" 3 (Intmath.floor_div 7 2);
  check_int "-7/2" (-4) (Intmath.floor_div (-7) 2);
  check_int "-8/2" (-4) (Intmath.floor_div (-8) 2)

let test_add_decimal () =
  List.iter
    (fun n ->
      let b = Buffer.create 8 in
      Buffer.add_char b '<';
      Intmath.add_decimal b n;
      Alcotest.(check string)
        (string_of_int n)
        ("<" ^ string_of_int n)
        (Buffer.contents b))
    [ 0; 1; 9; 10; 99; 100; 12345; -1; -9; -10; -987654; max_int; min_int;
      min_int + 1 ]

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ]
    (Intmath.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Intmath.divisors 1);
  Alcotest.(check (list int)) "divisors 7" [ 1; 7 ] (Intmath.divisors 7)

let test_smallest_divisor_geq () =
  (* the register-count rounding rule of the paper's Section 2.3 *)
  check_int "u=6 q=4 -> 6" 6 (Intmath.smallest_divisor_geq ~u:6 ~q:4);
  check_int "u=6 q=2 -> 2" 2 (Intmath.smallest_divisor_geq ~u:6 ~q:2);
  check_int "u=6 q=3 -> 3" 3 (Intmath.smallest_divisor_geq ~u:6 ~q:3);
  check_int "u=12 q=5 -> 6" 6 (Intmath.smallest_divisor_geq ~u:12 ~q:5);
  check_int "u=7 q=2 -> 7" 7 (Intmath.smallest_divisor_geq ~u:7 ~q:2)

let test_range () =
  Alcotest.(check (list int)) "range 2 5" [ 2; 3; 4 ] (Intmath.range 2 5);
  Alcotest.(check (list int)) "range 3 3" [] (Intmath.range 3 3);
  Alcotest.(check (list int)) "range 5 2" [] (Intmath.range 5 2)

(* ---- properties --------------------------------------------------- *)

let pos_gen = QCheck2.Gen.int_range 1 1000

let prop_gcd_divides =
  QCheck2.Test.make ~name:"gcd divides both arguments" ~count:500
    QCheck2.Gen.(pair pos_gen pos_gen)
    (fun (a, b) ->
      let g = Intmath.gcd a b in
      g > 0 && a mod g = 0 && b mod g = 0)

let prop_gcd_lcm =
  QCheck2.Test.make ~name:"gcd * lcm = a * b" ~count:500
    QCheck2.Gen.(pair pos_gen pos_gen)
    (fun (a, b) -> Intmath.gcd a b * Intmath.lcm a b = a * b)

let prop_ceil_div =
  QCheck2.Test.make ~name:"ceil_div bounds" ~count:500
    QCheck2.Gen.(pair (int_range (-1000) 1000) pos_gen)
    (fun (a, b) ->
      let c = Intmath.ceil_div a b in
      (c * b >= a) && ((c - 1) * b < a))

let prop_divisor_rule =
  QCheck2.Test.make ~name:"smallest_divisor_geq is a divisor and minimal"
    ~count:500
    QCheck2.Gen.(
      let* u = int_range 1 60 in
      let* q = int_range 1 u in
      return (u, q))
    (fun (u, q) ->
      let d = Intmath.smallest_divisor_geq ~u ~q in
      u mod d = 0 && d >= q
      && List.for_all
           (fun d' -> d' < q || d' >= d)
           (Intmath.divisors u))

(* ---- Histogram / Table -------------------------------------------- *)

let test_histogram () =
  let h = Histogram.of_list ~lo:0.0 ~width:1.0 ~buckets:4 [ 0.5; 1.5; 1.7; 9.0; -2.0 ] in
  check_int "count" 5 (Histogram.count h);
  (* -2 clamps into bucket 0; 9 clamps into the last bucket *)
  check_int "bucket0" 2 h.Histogram.counts.(0);
  check_int "bucket1" 2 h.Histogram.counts.(1);
  check_int "bucket3" 1 h.Histogram.counts.(3);
  Alcotest.(check (float 1e-9)) "mean" 2.14 (Histogram.mean h)

let test_histogram_quantile () =
  (* 10 samples, one per unit bucket: quantiles are exact ranks *)
  let h =
    Histogram.of_list ~lo:0.0 ~width:1.0 ~buckets:10
      (List.init 10 (fun i -> float_of_int i +. 0.5))
  in
  let q p = Option.get (Histogram.quantile h p) in
  Alcotest.(check (float 1e-9)) "q0 = min" 0.5 (q 0.0);
  Alcotest.(check (float 1e-9)) "q1 = max" 9.5 (q 1.0);
  Alcotest.(check (float 1e-9)) "median" 4.5 (q 0.5);
  Alcotest.(check (float 1e-9)) "p90" 8.5 (q 0.9);
  Alcotest.check_raises "q outside [0,1]"
    (Invalid_argument "Histogram.quantile: q outside [0,1]") (fun () ->
      ignore (Histogram.quantile h 1.5))

let test_histogram_empty_singleton () =
  let e = Histogram.create ~lo:0.0 ~width:1.0 ~buckets:4 in
  Alcotest.(check bool) "empty quantile" true (Histogram.quantile e 0.5 = None);
  Alcotest.(check bool) "empty min" true (Histogram.minimum e = None);
  Alcotest.(check bool) "empty max" true (Histogram.maximum e = None);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Histogram.mean e);
  let s = Histogram.of_list ~lo:0.0 ~width:1.0 ~buckets:4 [ 2.25 ] in
  (* extrema-clamping makes every quantile of a singleton exact *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "singleton q%.2f" p)
        2.25
        (Option.get (Histogram.quantile s p)))
    [ 0.0; 0.25; 0.5; 1.0 ]

let test_histogram_merge () =
  let mk xs = Histogram.of_list ~lo:0.0 ~width:2.0 ~buckets:3 xs in
  let a = mk [ 0.5; 3.0 ] and b = mk [ 1.0; 5.0; -4.0 ] in
  let m = Histogram.merge a b in
  check_int "merged count" 5 (Histogram.count m);
  check_int "merged bucket0" 3 m.Histogram.counts.(0);
  Alcotest.(check (float 1e-9))
    "merged min" (-4.0)
    (Option.get (Histogram.minimum m));
  Alcotest.(check (float 1e-9))
    "merged max" 5.0
    (Option.get (Histogram.maximum m));
  Alcotest.(check (float 1e-9))
    "merged mean" (5.5 /. 5.0) (Histogram.mean m);
  (* merging an empty histogram is the identity *)
  let id = Histogram.merge a (mk []) in
  check_int "identity count" (Histogram.count a) (Histogram.count id);
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Histogram.merge: shape mismatch") (fun () ->
      ignore
        (Histogram.merge a (Histogram.create ~lo:0.0 ~width:1.0 ~buckets:3)))

let hist_eq a b =
  Histogram.same_shape a b
  && a.Histogram.counts = b.Histogram.counts
  && Histogram.count a = Histogram.count b
  && Float.abs (Histogram.mean a -. Histogram.mean b) < 1e-9
  && Histogram.minimum a = Histogram.minimum b
  && Histogram.maximum a = Histogram.maximum b

let prop_merge_assoc =
  QCheck2.Test.make ~name:"histogram merge is associative/commutative"
    ~count:200
    QCheck2.Gen.(
      triple
        (small_list (float_range (-3.0) 12.0))
        (small_list (float_range (-3.0) 12.0))
        (small_list (float_range (-3.0) 12.0)))
    (fun (xs, ys, zs) ->
      let mk l = Histogram.of_list ~lo:0.0 ~width:1.5 ~buckets:6 l in
      let a = mk xs and b = mk ys and c = mk zs in
      hist_eq
        (Histogram.merge (Histogram.merge a b) c)
        (Histogram.merge a (Histogram.merge b c))
      && hist_eq (Histogram.merge a b) (Histogram.merge b a))

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_table () =
  let t = Table.create ~headers:[ "a"; "b" ] ~aligns:[ Table.L; Table.R ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Fmt.str "%a" Table.pp t in
  Alcotest.(check bool) "renders all rows" true
    (String.length s > 0 && contains s "yy" && contains s "22");
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: wrong arity") (fun () ->
      Table.add_row t [ "only-one" ])

(* ---- Pool --------------------------------------------------------- *)

let test_pool_order_and_reuse () =
  let pool = Pool.create ~jobs:4 in
  check_int "width" 4 (Pool.jobs pool);
  Alcotest.(check (list int))
    "results in submission order"
    (List.init 20 (fun i -> i * i))
    (Pool.run pool (List.init 20 (fun i () -> i * i)));
  (* the same pool serves further batches — each spawns its own workers *)
  Alcotest.(check (list int))
    "second batch on the same pool" [ 10; 20 ]
    (Pool.run pool [ (fun () -> 10); (fun () -> 20) ]);
  Alcotest.(check (list int)) "empty batch" [] (Pool.run pool [])

let test_pool_exception_propagation () =
  let pool = Pool.create ~jobs:3 in
  let ran = Array.make 6 false in
  (match
     Pool.run pool
       (List.init 6 (fun i () ->
            ran.(i) <- true;
            if i = 4 then failwith "late";
            if i = 2 then failwith "early";
            i))
   with
  | _ -> Alcotest.fail "expected the batch to raise"
  | exception Failure m ->
    (* the lowest-indexed failure is surfaced — what a sequential
       List.map would have raised first *)
    Alcotest.(check string) "lowest-index error wins" "early" m);
  Alcotest.(check bool)
    "every task still ran to completion" true
    (Array.for_all Fun.id ran)

let test_pool_sequential_bypass () =
  (* ~jobs:1 must never spawn: every task runs on the calling domain
     (the zero-cost guarantee the E14 overhead smoke relies on) *)
  let pool = Pool.create ~jobs:1 in
  check_int "clamped width" 1 (Pool.jobs pool);
  let self = Domain.self () in
  Alcotest.(check bool)
    "tasks run on the calling domain" true
    (List.for_all
       (fun d -> d = self)
       (Pool.run pool (List.init 3 (fun _ () -> Domain.self ()))));
  (* clamping: non-positive widths behave like 1 *)
  let p0 = Pool.create ~jobs:0 in
  check_int "jobs:0 clamps to 1" 1 (Pool.jobs p0)

(* spawns made by [f], read off the process-wide counter *)
let spawns_of f =
  let before = Pool.spawned () in
  let v = f () in
  (Pool.spawned () - before, v)

let test_pool_spawns_per_batch () =
  (* a batch of n tasks gets min (jobs - 1) (n - 1) workers *)
  let pool = Pool.create ~jobs:8 in
  let n, r =
    spawns_of (fun () -> Pool.run pool [ (fun () -> 1); (fun () -> 2) ])
  in
  check_int "width 8, 2 tasks: 1 worker" 1 n;
  Alcotest.(check (list int)) "2-task results" [ 1; 2 ] r;
  let pool = Pool.create ~jobs:4 in
  let n, r =
    spawns_of (fun () -> Pool.run pool (List.init 20 (fun i () -> i)))
  in
  check_int "width 4, 20 tasks: 3 workers" 3 n;
  Alcotest.(check (list int)) "20-task results" (List.init 20 Fun.id) r;
  check_int "slot counts cover the batch" 20
    (Array.fold_left ( + ) 0 (Pool.worker_counts pool))

let test_pool_sequential_spawns_nothing () =
  let batch = List.init 5 (fun i () -> i) in
  List.iter
    (fun jobs ->
      let n, _ = spawns_of (fun () -> Pool.run (Pool.create ~jobs) batch) in
      check_int (Printf.sprintf "width %d spawns nothing" jobs) 0 n)
    [ 1; 0 ];
  let pool = Pool.create ~jobs:8 in
  let n, _ = spawns_of (fun () -> Pool.run pool [ (fun () -> 0) ]) in
  check_int "one-task batch spawns nothing" 0 n;
  let n, _ = spawns_of (fun () -> Pool.run pool []) in
  check_int "empty batch spawns nothing" 0 n

let test_pool_failures_on_workers () =
  (* four tasks on a width-4 pool meet at a barrier before raising, so
     each runs on its own domain: three of them raise on workers. The
     barrier gives up after 30 s, so a pool that never runs tasks
     side by side fails this test instead of hanging it. *)
  let n = 4 in
  let pool = Pool.create ~jobs:n in
  let arrived = Atomic.make 0 in
  let deadline = Unix.gettimeofday () +. 30. in
  let ran_on = Array.make n None in
  (match
     Pool.run pool
       (List.init n (fun i () ->
            ran_on.(i) <- Some (Domain.self ());
            Atomic.incr arrived;
            while Atomic.get arrived < n && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            failwith (string_of_int i)))
   with
  | _ -> Alcotest.fail "expected the batch to raise"
  | exception Failure m ->
    Alcotest.(check string) "lowest-index error wins" "0" m);
  let self = Domain.self () in
  Alcotest.(check bool)
    "every task ran" true
    (Array.for_all Option.is_some ran_on);
  check_int "three tasks raised on worker domains" (n - 1)
    (Array.fold_left
       (fun acc d -> if d = Some self then acc else acc + 1)
       0 ran_on)

let test_pool_batch_after_failure () =
  let pool = Pool.create ~jobs:3 in
  (match
     Pool.run pool
       (List.init 6 (fun i () -> if i = 3 then failwith "x" else i))
   with
  | _ -> Alcotest.fail "expected the batch to raise"
  | exception Failure _ -> ());
  Alcotest.(check (list int))
    "the next batch runs" (List.init 6 (fun i -> i + 1))
    (Pool.run pool (List.init 6 (fun i () -> i + 1)))

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ("gcd", `Quick, test_gcd);
    ("lcm", `Quick, test_lcm);
    ("ceil_div", `Quick, test_ceil_div);
    ("floor_div", `Quick, test_floor_div);
    ("divisors", `Quick, test_divisors);
    ("smallest_divisor_geq", `Quick, test_smallest_divisor_geq);
    ("range", `Quick, test_range);
    ("histogram", `Quick, test_histogram);
    ("histogram quantile", `Quick, test_histogram_quantile);
    ("histogram empty/singleton", `Quick, test_histogram_empty_singleton);
    ("histogram merge", `Quick, test_histogram_merge);
    ("table", `Quick, test_table);
    ("pool order and reuse", `Quick, test_pool_order_and_reuse);
    ("pool exception propagation", `Quick, test_pool_exception_propagation);
    ("pool sequential bypass", `Quick, test_pool_sequential_bypass);
    qt prop_merge_assoc;
    qt prop_gcd_divides;
    qt prop_gcd_lcm;
    qt prop_ceil_div;
    qt prop_divisor_rule;
    ("add_decimal matches string_of_int", `Quick, test_add_decimal);
    ("pool spawns per batch", `Quick, test_pool_spawns_per_batch);
    ( "pool sequential cases spawn nothing",
      `Quick,
      test_pool_sequential_spawns_nothing );
    ("pool failures on worker domains", `Quick, test_pool_failures_on_workers);
    ("pool batch after a failing batch", `Quick, test_pool_batch_after_failure);
  ]

(** Tests for the machine descriptions. *)

open Sp_machine

let test_warp_resources () =
  let m = Machine.warp in
  let r name = (Machine.find_resource m name).Machine.count in
  Alcotest.(check int) "one adder" 1 (r "fadd");
  Alcotest.(check int) "one multiplier" 1 (r "fmul");
  Alcotest.(check int) "one memory port" 1 (r "mem");
  Alcotest.(check int) "one sequencer" 1 (r "seq");
  Alcotest.(check int) "two address generators" 2 (r "agu");
  Alcotest.check_raises "unknown resource"
    (Invalid_argument "Machine.find_resource: no resource \"nope\" in warp")
    (fun () -> ignore (Machine.find_resource m "nope"))

let test_warp_latencies () =
  let m = Machine.warp in
  (* the paper: 5-stage pipelines plus the 2-cycle register-file delay *)
  Alcotest.(check int) "fadd" 7 (Machine.latency m Opkind.Fadd);
  Alcotest.(check int) "fmul" 7 (Machine.latency m Opkind.Fmul);
  Alcotest.(check int) "alu" 1 (Machine.latency m Opkind.Iadd);
  Alcotest.(check int) "store has no result" 0 (Machine.latency m Opkind.Store)

let test_scaling () =
  let m2 = Machine.warp_scaled ~width:2 in
  Alcotest.(check int) "two adders" 2
    (Machine.find_resource m2 "fadd").Machine.count;
  Alcotest.(check int) "registers scale" (62 * 2) m2.Machine.fregs;
  Alcotest.(check int) "still one sequencer" 1
    (Machine.find_resource m2 "seq").Machine.count;
  Alcotest.check_raises "width >= 1"
    (Invalid_argument "Machine.warp_scaled: width < 1") (fun () ->
      ignore (Machine.warp_scaled ~width:0))

let test_mflops () =
  let m = Machine.warp in
  (* 5 MHz clock: 2 flops/cycle = the 10 MFLOPS peak of the paper *)
  Alcotest.(check (float 1e-9)) "peak" 10.0
    (Machine.mflops m ~flops:2000 ~cycles:1000);
  Alcotest.(check (float 1e-9)) "zero cycles" 0.0
    (Machine.mflops m ~flops:10 ~cycles:0)

let test_reservations_offset0 () =
  (* every opkind of each machine reserves at offset 0 only (the
     checker and emitter rely on it for exactness) *)
  List.iter
    (fun m ->
      List.iter
        (fun k ->
          List.iter
            (fun (off, rid) ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s offset" m.Machine.name
                   (Opkind.to_string k))
                0 off;
              Alcotest.(check bool) "valid rid" true
                (rid >= 0 && rid < Machine.num_resources m))
            (Machine.reservation m k))
        [ Opkind.Fadd; Opkind.Fmul; Opkind.Load; Opkind.Store; Opkind.Iadd;
          Opkind.Amov; Opkind.Recv 0; Opkind.Send 1; Opkind.Fconst ])
    [ Machine.warp; Machine.toy; Machine.serial ]

let test_opkind_meta () =
  Alcotest.(check bool) "fadd is flop" true (Opkind.is_flop Opkind.Fadd);
  Alcotest.(check bool) "fcmp not flop" false
    (Opkind.is_flop (Opkind.Fcmp Opkind.Lt));
  Alcotest.(check bool) "seeds count as flops" true (Opkind.is_flop Opkind.Frecs);
  Alcotest.(check int) "fadd arity" 2 (Opkind.arity Opkind.Fadd);
  Alcotest.(check int) "fsel arity" 3 (Opkind.arity Opkind.Fsel);
  Alcotest.(check int) "load arity" 0 (Opkind.arity Opkind.Load);
  Alcotest.(check bool) "store no dst" false (Opkind.has_dst Opkind.Store);
  Alcotest.(check bool) "negate lt" true
    (Opkind.negate_rel Opkind.Lt = Opkind.Ge)

(** [Opkind.index] numbers [Opkind.dense] in order and leaves channels
    beyond it out. *)
let test_dense_index () =
  Array.iteri
    (fun k kind ->
      Alcotest.(check int) (Opkind.to_string kind) k (Opkind.index kind))
    Opkind.dense;
  List.iter
    (fun kind ->
      Alcotest.(check int) (Opkind.to_string kind) (-1) (Opkind.index kind))
    [ Opkind.Recv 2; Opkind.Send 2; Opkind.Recv (-1); Opkind.Send 99 ]

(** The sealed per-kind table answers for every kind a machine
    describes, a [def_default] machine answers for channels beyond the
    table, and a channel the machine does not describe still raises. *)
let test_machine_table () =
  Alcotest.(check int) "fcmp on the adder" 7
    (Machine.latency Machine.warp (Opkind.Fcmp Opkind.Ge));
  Alcotest.(check int) "recv1" 1 (Machine.latency Machine.warp (Opkind.Recv 1));
  Alcotest.(check int) "toy load" 1 (Machine.latency Machine.toy Opkind.Load);
  Alcotest.(check int) "serial recv beyond the table" 1
    (Machine.latency Machine.serial (Opkind.Recv 5));
  Alcotest.(check int) "serial send beyond the table" 1
    (List.length (Machine.reservation Machine.serial (Opkind.Send 7)));
  Alcotest.check_raises "undescribed channel"
    (Invalid_argument "Machine warp: no opinfo for recv2") (fun () ->
      ignore (Machine.latency Machine.warp (Opkind.Recv 2)));
  Alcotest.check_raises "undescribed channel, reservation"
    (Invalid_argument "Machine toy: no opinfo for send3") (fun () ->
      ignore (Machine.reservation Machine.toy (Opkind.Send 3)))

(** [Machine.of_string] accepts the three stock names and [warpNx] for
    [N] in decimal from 1 to 64, with no sign and no leading zero, and
    names the machine it was given in every refusal. *)
let test_of_string () =
  let name s =
    match Machine.of_string s with
    | Ok m -> Ok m.Machine.name
    | Error e -> Error e
  in
  List.iter
    (fun (s, expected) ->
      Alcotest.(check (result string string)) s (Ok expected) (name s))
    [ ("warp", "warp"); ("toy", "toy"); ("serial", "serial");
      ("warp1x", "warp"); ("warp2x", "warp2x"); ("warp4x", "warp4x");
      ("warp64x", "warp64x") ];
  Alcotest.(check bool) "warp2x is scaled" true
    (match Machine.of_string "warp2x" with
    | Ok m -> (Machine.find_resource m "fadd").Machine.count = 2
    | Error _ -> false);
  List.iter
    (fun s ->
      Alcotest.(check (result string string)) s
        (Error (Printf.sprintf "unknown machine %S" s)) (name s))
    [ ""; "warp0x"; "warp02x"; "warp+2x"; "warp-2x"; "warp2xyz"; "warp2";
      "warpx"; "warp65x"; "warp100000x"; "warp200000000x";
      "warp99999999999999999999x"; "Warp"; "warp 2x"; "warp2X"; "toy2x" ]

let suite =
  [
    ("warp resources", `Quick, test_warp_resources);
    ("warp latencies", `Quick, test_warp_latencies);
    ("scaling", `Quick, test_scaling);
    ("mflops accounting", `Quick, test_mflops);
    ("reservations at offset 0", `Quick, test_reservations_offset0);
    ("opkind metadata", `Quick, test_opkind_meta);
    ("dense kind index", `Quick, test_dense_index);
    ("per-kind machine table", `Quick, test_machine_table);
    ("machine names", `Quick, test_of_string);
  ]

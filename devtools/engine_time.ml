(** Wall time and allocation of the two engines — a developer utility.

    Compiles the 20 Livermore kernels once the way the [livermore]
    benchmark workload does ([Certify.hook ~fuel:400_000]), then runs
    rounds of [Interp.run] and [Sim.run] over the precompiled kernels,
    each with the kernel's own inputs and initial memory. For each
    engine it prints the median and quartiles of milliseconds per
    round, the minor words per round, and the simulated cycles per
    second. Rounds alternate the engines, so a drift of the host hits
    both alike.

    Run with: [dune exec devtools/engine_time.exe -- [ROUNDS]]
    (default 200). *)

module C = Sp_core.Compile
module Kernel = Sp_kernels.Kernel

let () =
  let rounds =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 200
  in
  let m = Sp_machine.Machine.warp in
  let config =
    { C.default with
      C.certifier = Some (Sp_opt.Certify.hook ~fuel:400_000 ()) }
  in
  let items =
    List.map
      (fun (k : Kernel.t) ->
        let p = Kernel.program k in
        (k, p, (C.program ~config m p).C.code))
      Sp_kernels.Livermore.all
  in
  let interp () =
    List.iter
      (fun ((k : Kernel.t), p, _) ->
        ignore
          (Sp_ir.Interp.run ~inputs:k.Kernel.inputs
             ~init:(fun st -> k.Kernel.init st p)
             p))
      items
  in
  let cycles = ref 0 in
  let sim () =
    cycles := 0;
    List.iter
      (fun ((k : Kernel.t), p, code) ->
        let r =
          Sp_vliw.Sim.run ~inputs:k.Kernel.inputs
            ~init:(fun st -> k.Kernel.init st p)
            m p code
        in
        cycles := !cycles + r.Sp_vliw.Sim.cycles)
      items
  in
  let time f =
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0, Gc.minor_words () -. w0)
  in
  let ti = Array.make rounds 0. and ts = Array.make rounds 0. in
  let wi = ref 0. and ws = ref 0. in
  for r = 0 to rounds - 1 do
    let t, w = time interp in
    ti.(r) <- t;
    wi := w;
    let t, w = time sim in
    ts.(r) <- t;
    ws := w
  done;
  let q a f =
    let a = Array.copy a in
    Array.sort compare a;
    1e3 *. a.(int_of_float (f *. float_of_int (Array.length a - 1)))
  in
  Printf.printf "%-8s %9s %9s %9s %12s %10s\n" "engine" "p25 ms" "p50 ms"
    "p75 ms" "words/round" "Mcycles/s";
  Printf.printf "%-8s %9.3f %9.3f %9.3f %12.0f %10s\n" "interp" (q ti 0.25)
    (q ti 0.5) (q ti 0.75) !wi "-";
  Printf.printf "%-8s %9.3f %9.3f %9.3f %12.0f %10.1f\n" "sim" (q ts 0.25)
    (q ts 0.5) (q ts 0.75) !ws
    (float_of_int !cycles /. q ts 0.5 /. 1e3)

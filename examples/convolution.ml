(** Image-processing scenario: a 3x3 convolution written in the W2-like
    source language (the workload class the paper's Warp machine was
    built for), compiled with and without software pipelining.

    Demonstrates: the front end, nested loops, the scheduling report,
    per-loop initiation intervals vs. their lower bounds, and the
    speed-up over basic-block compaction.

    Run with: [dune exec examples/convolution.exe] *)

module C = Sp_core.Compile
module Kernel = Sp_kernels.Kernel
module Report = Sp_core.Report

let n = 24

let src =
  Printf.sprintf
    {|
program convolution;
var p : array [0..%d, 0..%d] of float;   { input image }
    o : array [0..%d, 0..%d] of float;   { output image }
    i, j : int;
begin
  for i := 0 to %d do
    for j := 0 to %d do
      o[i,j] := 0.0625*p[i,j]   + 0.125*p[i,j+1]   + 0.0625*p[i,j+2]
              + 0.125 *p[i+1,j] + 0.25 *p[i+1,j+1] + 0.125 *p[i+1,j+2]
              + 0.0625*p[i+2,j] + 0.125*p[i+2,j+1] + 0.0625*p[i+2,j+2];
end.
|}
    (n + 1) (n + 1) (n - 1) (n - 1) (n - 1) (n - 1)

let () =
  let kernel =
    Kernel.mk "conv3x3" ~init:(Kernel.init_all_arrays ~seed:9) (Kernel.W2 src)
  in
  let m = Sp_machine.Machine.warp in
  Fmt.pr "Compiling a %dx%d 3x3 convolution for the Warp-like cell...@.@." n n;
  let factor, piped, local = Kernel.speedup m kernel in
  let sim (meas : Kernel.measurement) =
    match meas.Kernel.sim with
    | Ok s -> s
    | Error trap ->
      Fmt.epr "%s: %s@." meas.Kernel.kernel trap;
      exit 1
  in
  let ps = sim piped and ls = sim local in
  Fmt.pr "pipelined schedule:@.";
  List.iter (fun lr -> Fmt.pr "  %a@." C.pp_loop_report lr) piped.Kernel.loops;
  Fmt.pr "@.";
  Fmt.pr "  %-22s %8s %8s@." "" "pipelined" "baseline";
  Fmt.pr "  %-22s %8d %8d@." "cycles" ps.Report.cycles ls.Report.cycles;
  Fmt.pr "  %-22s %8d %8d@." "code size (words)" piped.Kernel.code_size
    local.Kernel.code_size;
  Fmt.pr "  %-22s %8.2f %8.2f@." "cell MFLOPS" ps.Report.mflops
    ls.Report.mflops;
  Fmt.pr "@.speed-up: %.2fx   semantics preserved: %b@." factor
    (ps.Report.sem_ok = Some true && ls.Report.sem_ok = Some true);
  Fmt.pr
    "(the inner loop is memory-port bound: nine loads and one store per@.\
     pixel through a single-ported memory — the initiation interval's@.\
     lower bound and the achieved interval are both visible above)@."

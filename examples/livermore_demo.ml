(** Scientific-computing scenario: a tour of Livermore kernels with
    opposite scheduling behaviours —

    - LFK7 (equation of state): wide intra-iteration parallelism, hits
      its resource-bound interval and runs near machine peak;
    - LFK5 (tri-diagonal elimination): a genuine first-order recurrence,
      pinned to its dependence-cycle bound no matter the resources;
    - LFK22 (Planckian distribution): the EXP expansion produces 19
      conditionals and a body beyond the pipelining threshold — the
      compiler declines, exactly like the paper's.

    Run with: [dune exec examples/livermore_demo.exe] *)

module C = Sp_core.Compile
module Kernel = Sp_kernels.Kernel
module Livermore = Sp_kernels.Livermore

let () =
  let m = Sp_machine.Machine.warp in
  List.iter
    (fun (k, commentary) ->
      let factor, piped, _ = Kernel.speedup m k in
      Fmt.pr "%s — %s@." k.Kernel.name k.Kernel.descr;
      List.iter (fun lr -> Fmt.pr "  %a@." C.pp_loop_report lr) piped.Kernel.loops;
      (match piped.Kernel.sim with
      | Ok s ->
        Fmt.pr "  %.2f MFLOPS on one cell, %.2fx over local compaction, %s@."
          s.Sp_core.Report.mflops factor
          (if s.Sp_core.Report.sem_ok = Some true then "semantics verified"
           else "BROKEN")
      | Error trap -> Fmt.pr "  BROKEN: %s@." trap);
      Fmt.pr "  %s@.@." commentary)
    [
      ( Livermore.k7_eos,
        "resource-bound: every unit busy, interval at the lower bound" );
      ( Livermore.k5_tridiag,
        "recurrence-bound: x[k] needs x[k-1] through a 15-cycle chain; \
         pipelining overlaps the bookkeeping but cannot break the cycle" );
      ( Livermore.k22_planckian,
        "rejected: the expanded EXP body exceeds the length threshold \
         (paper Section 4.2: 'the scheduler did not even attempt to \
         pipeline this loop')" );
    ]

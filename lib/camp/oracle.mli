(** The differential oracle: one W2 source program through parse →
    typecheck → lower → compile → static check → validate → simulate →
    interpreter equivalence, with every failure mode mapped to a
    verdict. Total (never raises), deterministic, self-contained
    (seeded array init, no channel inputs) — so banked [.w2] repros
    replay bit-identically. *)

type kind =
  | Pass
  | Crash         (** uncaught exception anywhere in the pipeline *)
  | Invalid       (** static resource check or validator rejected *)
  | Mismatch      (** simulation disagreed with the interpreter *)
  | Ii_bound      (** pipelined II outside [mii <= ii <= seq_len] *)
  | Jobs_diverge  (** [-j 1] vs [-j 2] compiles differ
                      ({!same_compile}) *)
  | Cache_diverge (** compiling through a shared schedule cache (cold
                      then warm) changed the compile *)
  | Opt_diverge   (** certifying with conflict learning on vs. off
                      produced different per-loop optimality verdicts *)
  | Degraded      (** a loop fell back (caught error / spent budget) *)
  | Hang          (** simulation exceeded the cycle watchdog *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

type verdict = { kind : kind; detail : string }

type config = {
  machine : Sp_machine.Machine.t;
  fuel : int option;   (** per-loop compile-fuel watchdog *)
  max_cycles : int;    (** simulation cycle watchdog *)
  check_jobs : bool;   (** run the [-j 1] vs [-j 2] divergence oracle *)
  check_cache : bool;  (** run the cold/warm schedule-cache oracle *)
  check_opt : bool;    (** run the learn-on vs learn-off exact-certifier
                           oracle (budget-capped; off by default — the
                           campaign samples seeds) *)
  degraded_ok : bool;  (** fault-sweep mode: degradation is graceful *)
}

val default : config
(** warp machine, unlimited fuel, 200k-cycle watchdog, jobs and cache
    checks on, opt check off, degradation counted as a failure. *)

type outcome = {
  verdict : verdict;
  result : Sp_core.Compile.result option;
      (** the [-j 1] compilation when one was produced; read numbers
          off it and drop it — the campaign retains nothing per
          program *)
}

val site : string
(** ["camp.oracle"] — the oracle's own fault site, hit once per
    invocation. Arming it makes the oracle raise deterministically,
    exercising the crash-capture and crash-banking paths without a
    real compiler bug. *)

val init_state : Sp_ir.Machine_state.t -> Sp_ir.Program.t -> unit
(** The fixed deterministic array initialization both engines run
    under (also used when replaying banked repros). *)

val ii_violation : Sp_core.Compile.loop_report -> string option
(** [Some reason] when a pipelined loop's II is impossible
    ([ii < mii]) or pointless ([ii > seq_len]). *)

val degradation : Sp_core.Compile.loop_report -> string option
(** [Some reason] when the loop degraded (caught internal error or
    exhausted budget). *)

val same_compile : Sp_core.Compile.result -> Sp_core.Compile.result -> bool
(** The same words ({!Sp_vliw.Prog.equal}) and, loop by loop, the same
    id, ii, mii and status: what {!Sp_core.Compile.fingerprint}
    renders, compared by value. The oracle's [-j] and cache checks and
    bench's compile-speed table hold compiles to it. *)

val run : config -> string -> outcome
(** The full oracle on one source text. Never raises. *)

val kind_of : config -> string -> kind
(** Just the verdict kind — the minimizer's predicate. *)

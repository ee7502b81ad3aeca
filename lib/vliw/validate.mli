(** Translation validation for assembled VLIW programs.

    Replays a {!Prog.t} against the machine's timing contract (the
    header of {!Sim}): register reads must not precede the producing
    operation's latency, no two in-flight writes may land on the same
    register in the same cycle, hardware loop-counter usage must be
    well-formed, and no two stores to the same element may issue in
    one cycle. The walk is along fall-through layout
    order — exact for straight-line stretches (where layout distance
    equals cycle distance) and conservative across taken branches;
    state is discarded after unconditional transfers so unreachable
    fall-through edges cannot produce false violations.

    {!all} bundles this timing validation with {!Check.check_prog}'s
    resource-discipline check into the single entry point behind
    [w2c --validate]. *)

type rule =
  | Latency
      (** register read while its only write(s) on this path are still
          in flight — the producer was displaced past its consumer.
          Only provable on the entry stretch (before the first
          unconditional transfer), where no older landed value can
          exist in the register file *)
  | Write_port    (** two in-flight writes to one register, same cycle *)
  | Counter       (** hardware loop-counter misuse or bad nesting *)
  | Mem_order     (** two stores to provably the same element in one
                      cycle — the element's next value is undefined *)

type violation = {
  at : int;          (** instruction index *)
  rule : rule;
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check_timing :
  ?ctrs:int ->
  ?live_in:Sp_ir.Vreg.t list ->
  Sp_machine.Machine.t ->
  Prog.t ->
  violation list
(** Timing-contract violations along fall-through, in layout order.
    [ctrs] is the number of hardware loop counters (default 16, the
    simulator's). [live_in] names registers holding a landed value when
    the stretch is entered (used when checking an excerpt, such as a
    loop's linearized fragments, rather than a whole program). The
    write state is kept per domain and reused: once it has grown to a
    program's registers, a call allocates nothing in the major heap. *)

(** Combined verdict: timing contract plus resource discipline. *)
type report = {
  timing : violation list;
  resources : Check.violation list;
}

val all : ?ctrs:int -> Sp_machine.Machine.t -> Prog.t -> report
val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

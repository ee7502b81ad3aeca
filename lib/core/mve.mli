(** Modulo variable expansion (paper Section 2.3): allocate several
    rotating register copies to loop variants whose lifetime exceeds
    the initiation interval, and determine the steady-state unrolling
    degree. *)

open Sp_ir

type mode =
  | Max_q  (** unroll [u = max q_i] — the paper's space-saving choice *)
  | Lcm    (** unroll [lcm(q_i)] — the naive alternative it rejects *)
  | Off    (** no expansion (carried anti-dependences stay in the DDG) *)

type alloc = {
  reg : Vreg.t;
  q : int;               (** simultaneously live values *)
  n : int;               (** locations allocated: smallest divisor of
                             the unroll degree that is at least [q] *)
  copies : Vreg.t array; (** [copies.(0)] is the original register *)
  birth : int;           (** first cycle the value occupies the register *)
  death : int;           (** last read in the flat schedule (birth for
                             never-read values) *)
}

type t = {
  unroll : int;
  allocs : alloc list;
  fregs : int;  (** total FP registers after expansion *)
  iregs : int;
  fits : bool;  (** within the machine's register files; when false the
                    compiler reverts to the serial schedule *)
}

val rename : t -> iter:int -> Vreg.t -> Vreg.t
(** Register copy used by (pipelined) iteration [iter]; any iteration
    index (including negative epilog accounting) is reduced modulo the
    per-register allocation. Non-candidates are returned unchanged.
    [rename t] builds the register table of [t] once: apply it once per
    loop and reuse the result for every iteration. *)

val compute :
  ?mode:mode ->
  Sp_machine.Machine.t ->
  Ddg.t ->
  Modsched.schedule ->
  supply:Vreg.Supply.supply ->
  t
(** Measure candidate lifetimes in the schedule (from the cycle each
    value lands in the register file to its last read), derive [q_i],
    the unroll degree and the allocations, and check the machine's
    register-file capacities. *)

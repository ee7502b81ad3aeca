(** Learned nogoods for the exact modulo scheduler.

    A {e nogood} is a partial residue assignment proved unextendable to
    any modulo schedule at the interval it was learned for. Each one
    carries a {e certificate} naming the constraint family it came
    from, which serves two purposes: primitive certificates (window,
    resource, cycle) can be {e re-validated} at a different initiation
    interval — the incremental re-solve of {!Certify} carries a bank
    across its upward II scan — and every certificate can be replayed
    against the raw constraints, which is how the soundness qcheck
    property and the campaign cross-check audit the learner. *)

type lit = {
  var : int;  (** unit id *)
  res : int;  (** its residue modulo the interval *)
}

(** Why the assignment is unextendable. The first three are
    {e primitive} — direct images of one violated constraint, valid at
    any interval where the recorded violation recurs. [Derived]
    nogoods come from subtree exhaustion under the solver's rotation
    anchor; they are sound only for the solve that learned them and
    are dropped when a bank is carried to a new interval. *)
type cert =
  | C_window of { u : int; v : int }
      (** the longest-path window between [u] and [v] admits no
          residue difference class matching the two literals *)
  | C_resource of { rid : int }
      (** the literals' reservations oversubscribe resource [rid] in
          some modulo slot *)
  | C_cycle of { edges : (int * int * int * int) list }
      (** [(src, dst, delay, omega)] edges of a dependence cycle whose
          k-graph weight is positive under the literals' residues *)
  | C_derived

type nogood = {
  lits : lit array;  (** sorted by [var], no duplicates *)
  cert : cert;
}

type t
(** A mutable bank: the learned nogoods plus a consultation index laid
    out for one solve. Each indexed nogood is keyed by its deepest
    literal in the solve's variable order, slot [var * s + res]. The
    solver reports every placement ({!assign}) and unplacement
    ({!unassign}); the index keeps, per key slot, the {e armed}
    nogoods, those whose other literals all hold, and each unarmed
    nogood watches one of its other literals that does not hold.
    {!reindex} lays the index out for a new order and interval; a fresh
    or {!carry}'d bank indexes nothing until then. *)

val create : unit -> t
val size : t -> int
val entries : t -> nogood list
(** Newest first. *)

val add : t -> nogood -> bool
(** Record a nogood and, once the bank is indexed, index it at once
    under the current order and assignment: one whose other literals
    all hold arrives armed. Returns [false] (and drops the {e new}
    nogood; nothing already banked is evicted) when it has no literal
    or more than 16, or when the bank already holds 10,000 — caps keep
    the index small and the bank bounded on adversarial loops. *)

val reindex : t -> depth:int array -> s:int -> assigned:int array -> unit
(** Lay the index out for a solve at interval [s] whose variable order
    puts [v] at position [depth.(v)]; [Array.length depth] is the unit
    count. [assigned.(v)] is the solver's residue of [v], [-1] while
    unplaced. The bank reads both arrays until the next [reindex]: the
    caller must not change [depth], and must report each change to
    [assigned] through {!assign} and {!unassign}. A nogood with a
    residue outside [\[0, s)] can never fire at [s] and is left out.
    Reuses the bank's arrays: nothing is allocated unless the unit
    count, [s] or the bank outgrew them. *)

val assign : t -> int -> unit
(** [assign t v]: [v] has just been placed at [assigned.(v)], and every
    variable before [v] in the order is placed (chronological
    placement). Arms the nogoods this completes. Allocates nothing. *)

val unassign : t -> int -> unit
(** [unassign t v]: [v], the deepest placed variable, is about to be
    unplaced; [assigned.(v)] still holds its residue. Disarms the
    nogoods its placement armed. Allocates nothing. *)

val consult : t -> var:int -> res:int -> nogood option
(** Would placing [var], the next variable of the order, at [res]
    complete a recorded nogood? Returns the newest armed nogood keyed
    [(var, res)]: the first entry of a newest-first scan of the bank
    whose deepest literal is [(var, res)] and whose other literals all
    hold. Allocates nothing: each nogood's [Some] is made once, when it
    is added. *)

(** Everything needed to re-validate primitive certificates at a new
    interval. *)
type ctx = {
  units : Sp_core.Sunit.t array;
  limit : int -> int;  (** resource id -> units per instruction *)
  window : u:int -> v:int -> (int * int) option;
      (** inclusive bounds [(lo, up)] on [t(v) - t(u)] at the {e new}
          interval, [None] when unbounded (no closure, or wider than
          representable) *)
}

val carry : t -> ctx -> s:int -> int
(** Drop every nogood whose certificate no longer proves a violation
    at the new interval [s] ([Derived] certificates never do); returns
    how many survived. The index is cleared, not rebuilt: the caller
    must {!reindex} before the next solve. *)

(** Delta-debugging minimizer for failing W2 programs: greedy one-point
    shrinking rewrites (drop statements at any depth, inline
    conditional arms, halve constant trip counts, promote operands
    over compound expressions, drop unused declarations) accepted iff
    the failure predicate still holds and the lexicographic measure
    (node count, integer-literal weight) strictly decreases; iterated
    to fixpoint under an evaluation budget. Deterministic: fixed
    candidate order, first improvement restarts the scan. *)

type stats = { evals : int; rounds : int }

val minimize :
  ?budget:int ->
  predicate:(Sp_lang.Ast.program -> bool) ->
  Sp_lang.Ast.program ->
  Sp_lang.Ast.program * stats
(** [minimize ~predicate p] with [predicate c] = "c still fails the
    same way". Returns [p] itself when nothing smaller reproduces.
    [budget] (default 400) caps predicate evaluations. *)

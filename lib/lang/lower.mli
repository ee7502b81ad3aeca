(** Lowering from the W2-like AST to the scheduling IR.

    The interesting part is {e subscript analysis}: integer expressions
    are tracked as affine forms

    {v   coef * iv  +  sum(mult_k * sym_k)  +  const   v}

    relative to the innermost loop (where [iv] is the loop's
    per-iteration counter copy and the [sym_k] are registers invariant
    in that loop). Affine subscripts produce exact {!Sp_ir.Subscript}
    descriptors, which is what lets the dependence analysis compute
    exact inter-iteration distances for the paper's kernels; anything
    non-affine falls back to an opaque register with conservative
    dependences.

    Symbolic bases ([i*W] in a row-major 2-D access, outer loop
    variables, invariant scalars) are materialized once per loop body
    and {e memoized}, so that two accesses to [a\[base + j + c\]] share
    one base register and stay comparable. Multi-dimensional arrays are
    linearized row-major. A scalar integer variable counts as invariant
    only if no statement of the current innermost loop assigns it. *)

exception Error of Token.pos * string
(** A program the lowering rejects, with the offending position. *)

val lower : ?if_convert:bool -> Ast.program -> Sp_ir.Program.t
(** Lower a checked program to IR. [if_convert] enables the
    select-based lowering of two-sided single-assignment conditionals
    (an extension; off by default to match the paper). *)

val compile_source : ?if_convert:bool -> string -> Sp_ir.Program.t
(** Front door: parse, check, lower, each under its [compile.*] span. *)

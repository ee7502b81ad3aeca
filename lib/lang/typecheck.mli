(** Semantic analysis: declarations, operand types (no implicit
    int/float coercion), integer conditions, subscript arity, intrinsic
    signatures, loop-variable immutability, channel numbers. *)

exception Error of Token.pos * string

type info =
  | Scalar of Ast.ty
  | Array of Ast.ty * (int * int) list
  | Loopvar

type env = {
  vars : (string, info) Hashtbl.t;
  mutable loop_vars : string list;
}

val check : Ast.program -> env
(** Check a whole program; raises {!Error} on the first violation. *)

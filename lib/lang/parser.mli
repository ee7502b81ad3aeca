(** Recursive-descent parser for the W2-like language. See the grammar
    sketch in the implementation header; precedence is the usual
    or < and < relational < additive < multiplicative < unary. *)

exception Error of Token.pos * string

val parse : string -> Ast.program
(** Parse a full program from source text. Raises {!Error} (or
    {!Lexer.Error}) on malformed input. *)

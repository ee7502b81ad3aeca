(** Tokens of the W2-like source language. *)

type pos = { line : int; col : int }

let pp_pos ppf p = Fmt.pf ppf "%d:%d" p.line p.col

type t =
  | INT of int
  | FLOAT of float
  | IDENT of string
  (* keywords *)
  | PROGRAM | VAR | BEGIN | END | IF | THEN | ELSE | FOR | TO | DO
  | ARRAY | OF | TINT | TFLOAT | INDEPENDENT
  (* punctuation and operators *)
  | SEMI | COLON | COMMA | DOT | DOTDOT
  | LPAREN | RPAREN | LBRACKET | RBRACKET
  | ASSIGN                       (* := *)
  | PLUS | MINUS | STAR | SLASH
  | EQ | NE | LT | LE | GT | GE
  | AND | OR | NOT
  | EOF

let to_string = function
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | IDENT s -> s
  | PROGRAM -> "program" | VAR -> "var" | BEGIN -> "begin" | END -> "end"
  | IF -> "if" | THEN -> "then" | ELSE -> "else"
  | FOR -> "for" | TO -> "to" | DO -> "do"
  | ARRAY -> "array" | OF -> "of"
  | TINT -> "int" | TFLOAT -> "float" | INDEPENDENT -> "independent"
  | SEMI -> ";" | COLON -> ":" | COMMA -> "," | DOT -> "." | DOTDOT -> ".."
  | LPAREN -> "(" | RPAREN -> ")" | LBRACKET -> "[" | RBRACKET -> "]"
  | ASSIGN -> ":=" | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
  | EQ -> "=" | NE -> "<>" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | AND -> "and" | OR -> "or" | NOT -> "not"
  | EOF -> "<eof>"

let pp ppf t = Fmt.string ppf (to_string t)

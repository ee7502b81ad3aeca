(** Seeded generation of W2 source programs for the differential
    campaign. Deterministic in the seed (private LCG stream, no hash
    tables): same seed, same program, byte for byte. Generated programs
    over-weight scheduler edge cases — zero-/single-trip loops, empty
    bodies, runtime trip counts, nesting, carried stores, max-latency
    operation chains — and never use channels, so banked repros replay
    without input streams. *)

val generate : seed:int -> Ast.program
(** The deterministic program for [seed]. All array subscripts are in
    bounds by construction, and every scalar is assigned before use. *)

val print : Ast.program -> string
(** Render back to parseable W2 source: [Parser.parse (print p)]
    succeeds and is structurally {!equal_program} to [p] for any
    program the parser itself can produce (fully parenthesized
    expressions, always-braced bodies, float literals that re-lex
    exactly). *)

val equal_program : Ast.program -> Ast.program -> bool
(** Structural equality ignoring source positions (NaN-safe on float
    literals). *)

val size : Ast.program -> int
(** AST node count — the minimizer's strictly-decreasing metric. *)

(** Source-level loop unrolling — the baseline the paper compares
    software pipelining against in Section 5.1 (trace scheduling
    "relies primarily on source code unrolling"). Constant-bound loops
    are rewritten into groups of [k] substituted body copies plus a
    residue; run-time-bound loops are left alone. *)

val compile_source : k:int -> string -> Sp_ir.Program.t
(** Parse, unroll, check, lower — mirroring
    {!Lower.compile_source}. *)

(** Tests for the W2-like front end: lexer, parser, type checker,
    lowering. *)

open Sp_lang

(* ---- lexer --------------------------------------------------------- *)

let toks src = List.map snd (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check int) "token count (incl. EOF)" 7
    (List.length (toks "x := 1 + 2.5;"));
  (match toks "x := 1 + 2.5;" with
  | [ IDENT "x"; ASSIGN; INT 1; PLUS; FLOAT 2.5; SEMI; EOF ] -> ()
  | _ -> Alcotest.fail "unexpected tokens");
  (match toks "for I := 0 to N do" with
  | [ FOR; IDENT "i"; ASSIGN; INT 0; TO; IDENT "n"; DO; EOF ] -> ()
  | _ -> Alcotest.fail "keywords and case folding")

let test_lexer_operators () =
  (match toks "<= >= <> < > = .. : :=" with
  | [ LE; GE; NE; LT; GT; EQ; DOTDOT; COLON; ASSIGN; EOF ] -> ()
  | _ -> Alcotest.fail "operator lexing");
  match toks "<>= <=>" with
  | [ NE; EQ; LE; GT; EOF ] -> ()
  | _ -> Alcotest.fail "an operator takes at most two characters"

let test_lexer_comments () =
  (match toks "a { a pascal comment } b -- line comment\nc" with
  | [ IDENT "a"; IDENT "b"; IDENT "c"; EOF ] -> ()
  | _ -> Alcotest.fail "comments skipped");
  match Lexer.tokenize "{ unterminated" with
  | exception Lexer.Error (_, _) -> ()
  | _ -> Alcotest.fail "unterminated comment should raise"

let test_lexer_numbers () =
  (match toks "3 3.5 1e3 2.5e-2" with
  | [ INT 3; FLOAT 3.5; FLOAT 1000.0; FLOAT 0.025; EOF ] -> ()
  | _ -> Alcotest.fail "number lexing");
  (match toks "4611686018427387903 007 1e999 1.e2" with
  | [ INT n; INT 7; FLOAT f; INT 1; DOT; IDENT "e2"; EOF ]
    when n = max_int && f = Float.infinity -> ()
  | _ -> Alcotest.fail "number edges");
  (match Lexer.tokenize "$" with
  | exception Lexer.Error (_, _) -> ()
  | _ -> Alcotest.fail "bad character should raise");
  (* a literal that is no number is an error at its first character *)
  List.iter
    (fun (src, line, col, msg) ->
      match Lexer.tokenize src with
      | exception Lexer.Error (p, m) ->
        Alcotest.(check (pair (pair int int) string))
          src ((line, col), msg) ((p.Token.line, p.Token.col), m)
      | _ -> Alcotest.failf "%S should raise" src)
    [
      ("x := 1e;", 1, 6, {|malformed number "1e"|});
      ("x :=\n  1.5E-;", 2, 3, {|malformed number "1.5E-"|});
      ("1e+", 1, 1, {|malformed number "1e+"|});
      ("x := 99999999999999999999;", 1, 6,
       {|malformed number "99999999999999999999"|});
      ("4611686018427387904", 1, 1, {|malformed number "4611686018427387904"|});
    ]

(* ---- the reference lexer --------------------------------------------- *)

(* what a lexer makes of a source: its tokens with their positions, or
   its error *)
type lexed = Tokens of (Token.pos * Token.t) list | Err of Token.pos * string | Exn of string

let lex tokenize src =
  match tokenize src with
  | ts -> Tokens ts
  | exception Lexer.Error (p, m) -> Err (p, m)
  | exception Failure m -> Exn m

let same_token (a : Token.t) (b : Token.t) =
  match (a, b) with
  | FLOAT x, FLOAT y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

(* The library's lexer against the reference on [src]. They differ in
   two places: a malformed number, which escapes the reference as
   [Failure], and ["<>="], which the reference lexes as [<=] and the
   library as [<>] then [=]. *)
let lexes_like_reference src =
  match (lex Ref_lexer.tokenize src, lex Lexer.tokenize src) with
  | Exn _, Err (_, m) -> String.starts_with ~prefix:"malformed number" m
  | Err (p, m), Err (p', m') -> p = p' && String.equal m m'
  | Tokens r, Tokens l ->
    let at (p : Token.pos) =
      (* the offset of [p]; lines are split at ['\n'] *)
      let rec line_start off line =
        if line = p.line then off
        else line_start (String.index_from src off '\n' + 1) (line + 1)
      in
      line_start 0 1 + p.col - 1
    in
    let rec go r l =
      match (r, l) with
      | [], [] -> true
      | (p, Token.LE) :: r', (q, Token.NE) :: (q', Token.EQ) :: l'
        when p = q && at p + 2 <= String.length src
             && String.sub src (at p) 3 = "<>=" && at q' = at p + 2 ->
        go r' l'
      | (p, t) :: r', (q, u) :: l' -> p = q && same_token t u && go r' l'
      | _ -> false
    in
    go r l
  | _ -> false

let test_lexer_corpus () =
  let sources =
    Lazy.force Corpus.service_sources
    @ List.filter_map
        (fun f ->
          if Filename.check_suffix f ".w2" then
            Some
              ( f,
                In_channel.with_open_bin
                  (Filename.concat "../examples" f)
                  In_channel.input_all )
          else None)
        (List.sort compare (Array.to_list (Sys.readdir "../examples")))
  in
  List.iter
    (fun (name, src) ->
      if not (lexes_like_reference src) then
        Alcotest.failf "%s: tokens differ from the reference lexer" name)
    sources;
  (* the two places the lexers differ *)
  Alcotest.(check bool) "<>=" true (lexes_like_reference "a <>= b <> c");
  Alcotest.(check bool) "1e" true (lexes_like_reference "x := 1e;")

(* A corpus source with random byte edits, drawn from the bytes the
   lexer treats specially: comment brackets, [--], digits, points,
   exponents, signs, CR/LF, operators and letters. *)
let edited_source =
  let open QCheck2.Gen in
  let bytes =
    "{}{}--..eE+-0123456789\r\n\n\t :=<>;,()[]*/aZ_$\000"
  in
  let edit =
    triple (int_bound 2) nat (int_bound (String.length bytes - 1))
  in
  let* k = int_bound 143 in
  let* edits = list_size (int_range 1 8) edit in
  let src = snd (List.nth (Lazy.force Corpus.service_sources) k) in
  return
    (List.fold_left
       (fun s (op, at, c) ->
         let n = String.length s in
         let at = if n = 0 then 0 else at mod n in
         let c = String.make 1 bytes.[c] in
         match op with
         | 0 -> String.sub s 0 at ^ c ^ String.sub s at (n - at)
         | 1 when n > 0 -> String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
         | _ when n > 0 -> String.sub s 0 at ^ c ^ String.sub s (at + 1) (n - at - 1)
         | _ -> c)
       src edits)

let prop_lexer_reference =
  QCheck2.Test.make ~count:300 ~name:"lexer matches the reference lexer"
    ~print:(fun s -> s)
    edited_source lexes_like_reference

(* The token list, its positions and its identifiers' texts cost 4.0
   minor words per source byte over these sources; the reference
   lexer, 13.9. *)
let test_lexer_alloc () =
  let sources = List.map snd (Lazy.force Corpus.service_sources) in
  let bytes = List.fold_left (fun n s -> n + String.length s) 0 sources in
  let words = Alloc.minor_words (fun () -> List.map Lexer.tokenize sources) in
  let per_byte = words /. float_of_int bytes in
  if per_byte > 6. then
    Alcotest.failf "tokenize: %.2f minor words per byte (at most 6)" per_byte

(* ---- parser -------------------------------------------------------- *)

let parse = Parser.parse

let test_parse_program () =
  let p =
    parse
      {|program t;
var x : array [0..9] of float;
    s : float;
    n : int;
begin
  s := 0.5;
  for i := 0 to 9 do x[i] := s * x[i];
end.|}
  in
  Alcotest.(check string) "name" "t" p.Ast.p_name;
  Alcotest.(check int) "decls" 3 (List.length p.Ast.p_decls);
  Alcotest.(check int) "stmts" 2 (List.length p.Ast.p_body)

let test_parse_precedence () =
  let p = parse {|program t;
var a, b, c : float;
begin a := b + c * b - c; end.|} in
  match p.Ast.p_body with
  | [ { Ast.s = Ast.Sassign (_, { Ast.e = Ast.Ebin (Ast.Sub, lhs, _); _ }); _ } ]
    -> (
    match lhs.Ast.e with
    | Ast.Ebin (Ast.Add, _, { Ast.e = Ast.Ebin (Ast.Mul, _, _); _ }) -> ()
    | _ -> Alcotest.fail "mul binds tighter than add")
  | _ -> Alcotest.fail "expected ((b + (c*b)) - c)"

let test_parse_if_else () =
  let p =
    parse
      {|program t;
var a : float;
begin
  if a > 1.0 then a := 1.0;
  else begin a := 0.0; a := a + 1.0; end
end.|}
  in
  match p.Ast.p_body with
  | [ { Ast.s = Ast.Sif (_, [ _ ], [ _; _ ]); _ } ] -> ()
  | _ -> Alcotest.fail "if/else statement shapes"

let test_parse_2d_and_independent () =
  let p =
    parse
      {|program t;
var m : independent array [0..3, 1..4] of float;
begin m[1, 2] := 0.0; end.|}
  in
  match p.Ast.p_decls with
  | [ { Ast.d_kind = Ast.Darray { dims = [ (0, 3); (1, 4) ]; independent = true; _ }; _ } ]
    -> ()
  | _ -> Alcotest.fail "2-D independent array declaration"

let test_parse_conversions () =
  let p =
    parse {|program t;
var a : float; k : int;
begin a := float(k) + 1.0; k := int(a); end.|}
  in
  Alcotest.(check int) "two statements" 2 (List.length p.Ast.p_body)

let test_parse_errors () =
  let fails src =
    match parse src with
    | exception Parser.Error (_, _) -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ src)
  in
  fails "program t; begin x := ; end.";
  fails "program t; begin for := 0 to 1 do x := 1; end.";
  fails "program ; begin end.";
  fails "program t; var x : array [0..] of float; begin end.";
  fails "program t; begin end. trailing"

(* ---- typecheck ------------------------------------------------------ *)

let check_ok src = ignore (Typecheck.check (parse src))

let check_fails src =
  match Typecheck.check (parse src) with
  | exception Typecheck.Error (_, _) -> ()
  | _ -> Alcotest.fail ("should not typecheck: " ^ src)

let test_typecheck_accepts () =
  check_ok
    {|program t;
var x : array [0..9] of float; s : float; n : int;
begin
  n := 3;
  for i := 0 to n do begin
    if x[i] > 0.5 and (n < 4) then s := sqrt(x[i]);
    else s := inverse(x[i]);
    x[i] := min(s, 2.0);
  end
  send(s); receive(s, 1);
end.|}

let test_typecheck_rejects () =
  check_fails "program t; var s : float; begin s := 1; end.";
  check_fails "program t; var s : float; begin y := 1.0; end.";
  check_fails "program t; var k : int; begin k := k + 1.5; end.";
  check_fails
    "program t; var x : array [0..9] of float; begin x := 1.0; end.";
  check_fails
    "program t; var x : array [0..9] of float; begin x[1,2] := 1.0; end.";
  check_fails
    "program t; var x : array [0..9] of float; begin x[0.5] := 1.0; end.";
  check_fails "program t; var s : float; begin if s then s := 1.0; end.";
  check_fails "program t; var s : float; begin s := sqrt(1); end.";
  check_fails "program t; var s : float; begin s := nosuch(1.0); end.";
  check_fails "program t; var s : float; begin send(s, 7); end.";
  check_fails "program t; var s, s : float; begin s := 1.0; end.";
  check_fails
    "program t; begin for i := 0 to 3 do i := 2; end.";
  check_fails "program t; var x : array [5..2] of float; begin end."

(* ---- lowering -------------------------------------------------------- *)

let lower src = Lower.compile_source src

let test_lower_subscripts () =
  (* affine subscripts must come out exact: the loop pipelines at the
     memory bound, which only happens if x[i] / x[i+1] are disambiguated *)
  let p =
    lower
      {|program t;
var x : array [0..40] of float;
begin
  for i := 0 to 30 do x[i] := x[i+1] + 0.5;
end.|}
  in
  let exact = ref 0 and total = ref 0 in
  Sp_ir.Region.iter_ops
    (fun op ->
      match op.Sp_ir.Op.addr with
      | Some a ->
        incr total;
        if a.Sp_ir.Op.sub <> None then incr exact
      | None -> ())
    p.Sp_ir.Program.body;
  Alcotest.(check int) "two accesses" 2 !total;
  Alcotest.(check int) "both exact" 2 !exact

let test_lower_2d_base_sharing () =
  (* two accesses m[i, j] and m[i, j+1] share one materialized row base
     so their subscripts stay comparable *)
  let p =
    lower
      {|program t;
var m : array [0..7, 0..7] of float;
begin
  for i := 0 to 6 do
    for j := 0 to 6 do
      m[i, j] := m[i, j+1];
end.|}
  in
  let bases = ref [] in
  Sp_ir.Region.iter_ops
    (fun op ->
      match op.Sp_ir.Op.addr with
      | Some { Sp_ir.Op.sub = Some s; _ } -> bases := s.Sp_ir.Subscript.syms :: !bases
      | _ -> ())
    p.Sp_ir.Program.body;
  match !bases with
  | [ b1; b2 ] ->
    Alcotest.(check bool) "same symbolic base" true (b1 = b2)
  | _ -> Alcotest.fail "expected two subscripted accesses"

let test_lower_loop_bounds () =
  (* non-zero lower bound folds into the subscript offset *)
  let p =
    lower
      {|program t;
var x : array [0..20] of float;
begin for i := 5 to 15 do x[i] := 1.0; end.|}
  in
  (match p.Sp_ir.Program.body with
  | Sp_ir.Region.Seq _ | Sp_ir.Region.Ops _ | Sp_ir.Region.If _ ->
    Alcotest.fail "expected a loop"
  | Sp_ir.Region.For { n = Sp_ir.Region.Const 11; _ } -> ()
  | Sp_ir.Region.For _ -> Alcotest.fail "trip count should be 11");
  let found = ref false in
  Sp_ir.Region.iter_ops
    (fun op ->
      match op.Sp_ir.Op.addr with
      | Some { Sp_ir.Op.off = 5; _ } -> found := true
      | _ -> ())
    p.Sp_ir.Program.body;
  Alcotest.(check bool) "offset folded" true !found

let test_lower_runtime_bounds () =
  let p =
    lower
      {|program t;
var x : array [0..63] of float; n : int;
begin
  n := 10;
  for i := 0 to n do x[i] := 2.0;
end.|}
  in
  let has_reg_trip = ref false in
  let rec go = function
    | Sp_ir.Region.For { n = Sp_ir.Region.Reg _; _ } -> has_reg_trip := true
    | Sp_ir.Region.For { body; _ } -> go body
    | Sp_ir.Region.Seq rs -> List.iter go rs
    | Sp_ir.Region.If { then_; else_; _ } -> go then_; go else_
    | Sp_ir.Region.Ops _ -> ()
  in
  go p.Sp_ir.Program.body;
  Alcotest.(check bool) "register trip count" true !has_reg_trip;
  (* and it runs: 11 iterations *)
  let r = Sp_ir.Interp.run p in
  let arr =
    Sp_ir.Machine_state.get_farray r.Sp_ir.Interp.state
      (Sp_ir.Program.find_seg p "x")
  in
  Alcotest.(check (float 0.0)) "x[10]" 2.0 arr.(10);
  Alcotest.(check (float 0.0)) "x[11]" 0.0 arr.(11)

let test_lower_reassociation () =
  (* a + b + c + d lowers as a balanced tree: critical path two adds *)
  let p =
    lower
      {|program t;
var a, b, c, d, s : float;
begin s := a + b + c + d; end.|}
  in
  let adds = ref 0 in
  Sp_ir.Region.iter_ops
    (fun op -> if op.Sp_ir.Op.kind = Sp_machine.Opkind.Fadd then incr adds)
    p.Sp_ir.Program.body;
  Alcotest.(check int) "three adds" 3 !adds

let test_lower_division_expands () =
  let p = lower {|program t;
var a, b : float;
begin a := a / b; end.|} in
  (* division = reciprocal sequence (7 flops) + final multiply *)
  let n = ref 0 in
  Sp_ir.Region.iter_ops
    (fun op -> if Sp_ir.Op.is_flop op then incr n)
    p.Sp_ir.Program.body;
  Alcotest.(check int) "8 flops" 8 !n

(* ---- unrolling (the Section 5.1 baseline) --------------------------- *)

let test_unroll_semantics () =
  let src =
    {|program t;
var x : array [0..40] of float; s : float;
begin
  s := 0.0;
  for i := 2 to 38 do begin
    x[i] := x[i] * 1.5 + 0.25;
    s := s + x[i];
  end
  x[0] := s;
end.|}
  in
  let reference =
    let p = Lower.compile_source src in
    let init st = Sp_kernels.Kernel.init_all_arrays st p in
    Sp_ir.Machine_state.get_farray (Sp_ir.Interp.run ~init p).Sp_ir.Interp.state
      (Sp_ir.Program.find_seg p "x")
  in
  List.iter
    (fun k ->
      let p = Unroll.compile_source ~k src in
      let init st = Sp_kernels.Kernel.init_all_arrays st p in
      let got =
        Sp_ir.Machine_state.get_farray
          (Sp_ir.Interp.run ~init p).Sp_ir.Interp.state
          (Sp_ir.Program.find_seg p "x")
      in
      Alcotest.(check bool)
        (Printf.sprintf "unroll %d preserves semantics" k)
        true
        (Array.for_all2 Float.equal reference got))
    [ 2; 3; 4; 8 ]

let test_unroll_structure () =
  let src =
    {|program t;
var x : array [0..63] of float;
begin for i := 0 to 63 do x[i] := x[i] + 1.0; end.|}
  in
  let p1 = Lower.compile_source src in
  let p4 = Unroll.compile_source ~k:4 src in
  let c r = (Sp_ir.Program.stats r).Sp_ir.Program.n_ops in
  Alcotest.(check bool) "unrolled body is bigger" true (c p4 > c p1);
  (* 64 divisible by 4: still a single loop, no residue *)
  Alcotest.(check int) "one loop" 1
    (Sp_ir.Program.stats p4).Sp_ir.Program.n_loops

let test_unroll_residue () =
  (* 10 iterations unrolled by 4: 2 groups + 2 residual copies *)
  let src =
    {|program t;
var x : array [0..15] of float;
begin for i := 0 to 9 do x[i] := 2.0; end.|}
  in
  let p = Unroll.compile_source ~k:4 src in
  let r = Sp_ir.Interp.run p in
  let arr =
    Sp_ir.Machine_state.get_farray r.Sp_ir.Interp.state
      (Sp_ir.Program.find_seg p "x")
  in
  Alcotest.(check (float 0.0)) "x[9] written" 2.0 arr.(9);
  Alcotest.(check (float 0.0)) "x[10] untouched" 0.0 arr.(10)

let test_if_conversion () =
  let src =
    {|program t;
var x, y : array [0..31] of float; v : float;
begin
  for i := 0 to 31 do begin
    if x[i] > 1.5 then v := x[i] * 2.0;
    else v := x[i] + 1.0;
    y[i] := v;
  end
end.|}
  in
  let branches = Lower.compile_source src in
  let selects = Lower.compile_source ~if_convert:true src in
  Alcotest.(check int) "branching version keeps the if" 1
    (Sp_ir.Program.stats branches).Sp_ir.Program.n_ifs;
  Alcotest.(check int) "converted version has no if" 0
    (Sp_ir.Program.stats selects).Sp_ir.Program.n_ifs;
  (* identical observable behaviour *)
  let run p =
    let init st = Sp_kernels.Kernel.init_all_arrays st p in
    Sp_ir.Machine_state.get_farray
      (Sp_ir.Interp.run ~init p).Sp_ir.Interp.state
      (Sp_ir.Program.find_seg p "y")
  in
  Alcotest.(check bool) "same results" true
    (Array.for_all2 Float.equal (run branches) (run selects))

let suite =
  [
    ("lexer basics", `Quick, test_lexer_basics);
    ("lexer operators", `Quick, test_lexer_operators);
    ("lexer comments", `Quick, test_lexer_comments);
    ("lexer numbers", `Quick, test_lexer_numbers);
    ("lexer matches the reference on the corpus", `Quick, test_lexer_corpus);
    QCheck_alcotest.to_alcotest prop_lexer_reference;
    ("tokenize allocates at most 6 words per byte", `Quick, test_lexer_alloc);
    ("parse program", `Quick, test_parse_program);
    ("parse precedence", `Quick, test_parse_precedence);
    ("parse if/else", `Quick, test_parse_if_else);
    ("parse 2-D independent array", `Quick, test_parse_2d_and_independent);
    ("parse conversions", `Quick, test_parse_conversions);
    ("parse errors", `Quick, test_parse_errors);
    ("typecheck accepts", `Quick, test_typecheck_accepts);
    ("typecheck rejects", `Quick, test_typecheck_rejects);
    ("lowering: exact subscripts", `Quick, test_lower_subscripts);
    ("lowering: 2-D base sharing", `Quick, test_lower_2d_base_sharing);
    ("lowering: loop bounds", `Quick, test_lower_loop_bounds);
    ("lowering: run-time bounds", `Quick, test_lower_runtime_bounds);
    ("lowering: reassociation", `Quick, test_lower_reassociation);
    ("lowering: division expansion", `Quick, test_lower_division_expands);
    ("unroll: semantics preserved", `Quick, test_unroll_semantics);
    ("unroll: structure", `Quick, test_unroll_structure);
    ("unroll: residue", `Quick, test_unroll_residue);
    ("if-conversion extension", `Quick, test_if_conversion);
  ]

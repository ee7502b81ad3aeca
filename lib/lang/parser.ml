(** Recursive-descent parser for the W2-like language.

    Grammar (informal):
    {v
      program  ::= "program" ident ";" ["var" decl+] block ["."]
      decl     ::= ident ("," ident)* ":" type ";"
      type     ::= "int" | "float"
                 | ["independent"] "array" "[" range ("," range)* "]"
                   "of" ("int" | "float")
      range    ::= int ".." int
      block    ::= "begin" stmt* "end"
      stmt     ::= lvalue ":=" expr ";"
                 | "if" expr "then" body ["else" body]
                 | "for" ident ":=" expr "to" expr "do" body
                 | "send" "(" expr ["," int] ")" ";"
                 | "receive" "(" lvalue ["," int] ")" ";"
      body     ::= block | stmt
      expr     ::= standard precedence: or < and < not < relational
                   < additive < multiplicative < unary < primary
    v} *)

exception Error of Token.pos * string

let err p fmt = Fmt.kstr (fun s -> raise (Error (p, s))) fmt

type state = { mutable toks : (Token.pos * Token.t) list }

let peek st = match st.toks with [] -> assert false | pt :: _ -> pt

let advance st =
  match st.toks with [] -> assert false | _ :: rest -> st.toks <- rest

let next st =
  let pt = peek st in
  advance st;
  pt

(* [expect] and [accept] take a constructor without argument, an
   immediate value, so [==] compares constructors *)
let expect st (tok : Token.t) =
  let p, t = next st in
  if t != tok then
    err p "expected %s, found %s" (Token.to_string tok) (Token.to_string t)

let accept st (tok : Token.t) =
  match peek st with
  | _, t when t == tok ->
    advance st;
    true
  | _ -> false

let ident st =
  match next st with
  | _, Token.IDENT s -> s
  | p, t -> err p "expected identifier, found %s" (Token.to_string t)

let int_lit st =
  match next st with
  | _, Token.INT n -> n
  | _, Token.MINUS -> (
    match next st with
    | _, Token.INT n -> -n
    | p, t -> err p "expected integer, found %s" (Token.to_string t))
  | p, t -> err p "expected integer, found %s" (Token.to_string t)

(* ---- expressions -------------------------------------------------- *)

let rec expr st = expr_or st

and expr_or st =
  let rec go lhs =
    if accept st Token.OR then
      let rhs = expr_and st in
      go { Ast.e_pos = lhs.Ast.e_pos; e = Ast.Ebin (Ast.Or, lhs, rhs) }
    else lhs
  in
  go (expr_and st)

and expr_and st =
  let rec go lhs =
    if accept st Token.AND then
      let rhs = expr_rel st in
      go { Ast.e_pos = lhs.Ast.e_pos; e = Ast.Ebin (Ast.And, lhs, rhs) }
    else lhs
  in
  go (expr_rel st)

and expr_rel st =
  let lhs = expr_add st in
  let mk op =
    advance st;
    let rhs = expr_add st in
    { Ast.e_pos = lhs.Ast.e_pos; e = Ast.Ebin (op, lhs, rhs) }
  in
  match peek st with
  | _, Token.EQ -> mk Ast.Eq
  | _, Token.NE -> mk Ast.Ne
  | _, Token.LT -> mk Ast.Lt
  | _, Token.LE -> mk Ast.Le
  | _, Token.GT -> mk Ast.Gt
  | _, Token.GE -> mk Ast.Ge
  | _ -> lhs

and expr_add st =
  let rec go lhs =
    match peek st with
    | _, Token.PLUS ->
      advance st;
      let rhs = expr_mul st in
      go { Ast.e_pos = lhs.Ast.e_pos; e = Ast.Ebin (Ast.Add, lhs, rhs) }
    | _, Token.MINUS ->
      advance st;
      let rhs = expr_mul st in
      go { Ast.e_pos = lhs.Ast.e_pos; e = Ast.Ebin (Ast.Sub, lhs, rhs) }
    | _ -> lhs
  in
  go (expr_mul st)

and expr_mul st =
  let rec go lhs =
    match peek st with
    | _, Token.STAR ->
      advance st;
      let rhs = expr_unary st in
      go { Ast.e_pos = lhs.Ast.e_pos; e = Ast.Ebin (Ast.Mul, lhs, rhs) }
    | _, Token.SLASH ->
      advance st;
      let rhs = expr_unary st in
      go { Ast.e_pos = lhs.Ast.e_pos; e = Ast.Ebin (Ast.Div, lhs, rhs) }
    | _ -> lhs
  in
  go (expr_unary st)

and expr_unary st =
  match peek st with
  | p, Token.MINUS ->
    advance st;
    let e = expr_unary st in
    { Ast.e_pos = p; e = Ast.Eun (Ast.Neg, e) }
  | p, Token.NOT ->
    advance st;
    let e = expr_unary st in
    { Ast.e_pos = p; e = Ast.Eun (Ast.Not, e) }
  | _ -> expr_primary st

and expr_primary st =
  match next st with
  | p, Token.INT n -> { Ast.e_pos = p; e = Ast.Eint n }
  | p, Token.FLOAT f -> { Ast.e_pos = p; e = Ast.Efloat f }
  | p, Token.TFLOAT ->
    (* conversion call: float(e) *)
    expect st Token.LPAREN;
    let a = expr st in
    expect st Token.RPAREN;
    { Ast.e_pos = p; e = Ast.Ecall ("float", [ a ]) }
  | p, Token.TINT ->
    expect st Token.LPAREN;
    let a = expr st in
    expect st Token.RPAREN;
    { Ast.e_pos = p; e = Ast.Ecall ("int", [ a ]) }
  | p, Token.LPAREN ->
    let e = expr st in
    expect st Token.RPAREN;
    { e with Ast.e_pos = p }
  | p, Token.IDENT name -> (
    match peek st with
    | _, Token.LBRACKET ->
      advance st;
      let idx = index_list st in
      { Ast.e_pos = p; e = Ast.Eindex (name, idx) }
    | _, Token.LPAREN ->
      advance st;
      let args =
        if accept st Token.RPAREN then []
        else
          let rec go acc =
            let a = expr st in
            if accept st Token.COMMA then go (a :: acc)
            else begin
              expect st Token.RPAREN;
              List.rev (a :: acc)
            end
          in
          go []
      in
      { Ast.e_pos = p; e = Ast.Ecall (name, args) }
    | _ -> { Ast.e_pos = p; e = Ast.Evar name })
  | p, t -> err p "expected expression, found %s" (Token.to_string t)

and index_list st =
  let rec go acc =
    let e = expr st in
    if accept st Token.COMMA then go (e :: acc)
    else begin
      expect st Token.RBRACKET;
      List.rev (e :: acc)
    end
  in
  go []

(* ---- statements --------------------------------------------------- *)

let lvalue st =
  let p, _ = peek st in
  let name = ident st in
  if accept st Token.LBRACKET then Ast.Lindex (name, index_list st, p)
  else Ast.Lvar (name, p)

let rec stmt st : Ast.stmt =
  match peek st with
  | p, Token.IF ->
    advance st;
    let c = expr st in
    expect st Token.THEN;
    let t = body st in
    let e = if accept st Token.ELSE then body st else [] in
    { Ast.s_pos = p; s = Ast.Sif (c, t, e) }
  | p, Token.FOR ->
    advance st;
    let var = ident st in
    expect st Token.ASSIGN;
    let lo = expr st in
    expect st Token.TO;
    let hi = expr st in
    expect st Token.DO;
    let b = body st in
    { Ast.s_pos = p; s = Ast.Sfor { var; lo; hi; body = b } }
  | p, Token.IDENT "send" ->
    advance st;
    expect st Token.LPAREN;
    let e = expr st in
    let ch = if accept st Token.COMMA then int_lit st else 0 in
    expect st Token.RPAREN;
    expect st Token.SEMI;
    { Ast.s_pos = p; s = Ast.Ssend (e, ch) }
  | p, Token.IDENT "receive" ->
    advance st;
    expect st Token.LPAREN;
    let lv = lvalue st in
    let ch = if accept st Token.COMMA then int_lit st else 0 in
    expect st Token.RPAREN;
    expect st Token.SEMI;
    { Ast.s_pos = p; s = Ast.Sreceive (lv, ch) }
  | p, _ ->
    let lv = lvalue st in
    expect st Token.ASSIGN;
    let e = expr st in
    expect st Token.SEMI;
    { Ast.s_pos = p; s = Ast.Sassign (lv, e) }

and body st : Ast.stmt list =
  if accept st Token.BEGIN then begin
    let rec go acc =
      match peek st with
      | _, Token.END ->
        advance st;
        (* optional semicolon after end *)
        ignore (accept st Token.SEMI);
        List.rev acc
      | _ -> go (stmt st :: acc)
    in
    go []
  end
  else [ stmt st ]

(* ---- declarations -------------------------------------------------- *)

let ty_of_token p = function
  | Token.TINT -> Ast.Tint
  | Token.TFLOAT -> Ast.Tfloat
  | t -> err p "expected a type, found %s" (Token.to_string t)

let decl_type st : Ast.decl_kind =
  let independent = accept st Token.INDEPENDENT in
  if accept st Token.ARRAY then begin
    expect st Token.LBRACKET;
    let rec dims acc =
      let lo = int_lit st in
      expect st Token.DOTDOT;
      let hi = int_lit st in
      if accept st Token.COMMA then dims ((lo, hi) :: acc)
      else begin
        expect st Token.RBRACKET;
        List.rev ((lo, hi) :: acc)
      end
    in
    let dims = dims [] in
    expect st Token.OF;
    let p, t = next st in
    Ast.Darray { elem = ty_of_token p t; dims; independent }
  end
  else begin
    if independent then begin
      let p, _ = peek st in
      err p "'independent' applies to arrays only"
    end;
    let p, t = next st in
    Ast.Dscalar (ty_of_token p t)
  end

let decls st : Ast.decl list =
  if not (accept st Token.VAR) then []
  else begin
    let out = ref [] in
    let rec one () =
      (* ident ("," ident)* ":" type ";" *)
      let p, _ = peek st in
      let names =
        let rec go acc =
          let n = ident st in
          if accept st Token.COMMA then go (n :: acc) else List.rev (n :: acc)
        in
        go []
      in
      expect st Token.COLON;
      let kind = decl_type st in
      expect st Token.SEMI;
      List.iter
        (fun n -> out := { Ast.d_name = n; d_pos = p; d_kind = kind } :: !out)
        names;
      match peek st with
      | _, Token.IDENT _ -> one ()
      | _ -> ()
    in
    one ();
    List.rev !out
  end

let program_of_tokens toks : Ast.program =
  let st = { toks } in
  expect st Token.PROGRAM;
  let name = ident st in
  expect st Token.SEMI;
  let ds = decls st in
  let b = body st in
  ignore (accept st Token.DOT);
  (match peek st with
  | _, Token.EOF -> ()
  | p, t -> err p "trailing input: %s" (Token.to_string t));
  { Ast.p_name = name; p_decls = ds; p_body = b }

(** Parse a full program from source text. *)
let parse src = program_of_tokens (Lexer.tokenize src)

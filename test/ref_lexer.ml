(** Reference lexer: [Lexer.tokenize] as it was written before it read
    characters in place — a [char option] per character, keywords
    looked up in an association list, polymorphic comparisons. The
    [lang] suite holds the library's lexer to it, token for token and
    position for position. It raises the library's [Lexer.Error], and
    differs from the library's lexer in two places only: a malformed
    number escapes here as [Failure] from [float_of_string] or
    [int_of_string], and ["<>="] lexes here as [<=], its ['<'] case
    testing for ['='] after consuming ['>']. *)

open Sp_lang

let keywords =
  [
    ("program", Token.PROGRAM); ("var", Token.VAR); ("begin", Token.BEGIN);
    ("end", Token.END); ("if", Token.IF); ("then", Token.THEN);
    ("else", Token.ELSE); ("for", Token.FOR); ("to", Token.TO);
    ("do", Token.DO); ("array", Token.ARRAY); ("of", Token.OF);
    ("int", Token.TINT); ("float", Token.TFLOAT);
    ("independent", Token.INDEPENDENT); ("and", Token.AND); ("or", Token.OR);
    ("not", Token.NOT);
  ]


type state = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let make src = { src; off = 0; line = 1; bol = 0 }

let pos st : Token.pos = { Token.line = st.line; col = st.off - st.bol + 1 }

let peek st = if st.off < String.length st.src then Some st.src.[st.off] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.off + 1
  | _ -> ());
  st.off <- st.off + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some '{' ->
    let p = pos st in
    let rec go () =
      match peek st with
      | None -> raise (Lexer.Error (p, "unterminated comment"))
      | Some '}' -> advance st
      | Some _ ->
        advance st;
        go ()
    in
    advance st;
    go ();
    skip_ws st
  | Some '-'
    when st.off + 1 < String.length st.src && st.src.[st.off + 1] = '-' ->
    let rec go () =
      match peek st with
      | None | Some '\n' -> ()
      | Some _ ->
        advance st;
        go ()
    in
    go ();
    skip_ws st
  | _ -> ()

let lex_number st =
  let start = st.off in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let is_float =
    match peek st with
    | Some '.'
      when st.off + 1 < String.length st.src
           && is_digit st.src.[st.off + 1] ->
      advance st;
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      true
    | _ -> false
  in
  let is_float =
    match peek st with
    | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      true
    | _ -> is_float
  in
  let text = String.sub st.src start (st.off - start) in
  if is_float then Token.FLOAT (float_of_string text)
  else Token.INT (int_of_string text)

let next st : Token.pos * Token.t =
  skip_ws st;
  let p = pos st in
  match peek st with
  | None -> (p, Token.EOF)
  | Some c when is_digit c -> (p, lex_number st)
  | Some c when is_alpha c ->
    let start = st.off in
    while (match peek st with Some c -> is_alnum c | None -> false) do
      advance st
    done;
    let text = String.lowercase_ascii (String.sub st.src start (st.off - start)) in
    (p, Option.value ~default:(Token.IDENT text) (List.assoc_opt text keywords))
  | Some c ->
    advance st;
    let two next_c tok_if tok_else =
      if peek st = Some next_c then begin
        advance st;
        tok_if
      end
      else tok_else
    in
    let t =
      match c with
      | ';' -> Token.SEMI
      | ',' -> Token.COMMA
      | '(' -> Token.LPAREN
      | ')' -> Token.RPAREN
      | '[' -> Token.LBRACKET
      | ']' -> Token.RBRACKET
      | '+' -> Token.PLUS
      | '-' -> Token.MINUS
      | '*' -> Token.STAR
      | '/' -> Token.SLASH
      | '=' -> Token.EQ
      | ':' -> two '=' Token.ASSIGN Token.COLON
      | '.' -> two '.' Token.DOTDOT Token.DOT
      | '<' -> two '=' Token.LE (two '>' Token.NE Token.LT)
      | '>' -> two '=' Token.GE Token.GT
      | _ -> raise (Lexer.Error (p, Printf.sprintf "unexpected character %C" c))
    in
    (p, t)

let tokenize src =
  let st = make src in
  let rec go acc =
    let p, t = next st in
    if t = Token.EOF then List.rev ((p, t) :: acc) else go ((p, t) :: acc)
  in
  go []

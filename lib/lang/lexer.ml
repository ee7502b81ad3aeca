(** Hand-written lexer for the W2-like language.

    Comments are Pascal-style [{ ... }] and line comments [-- ...].
    Characters are read in place behind a bounds test: a token costs
    its list cell and position, and the text of an identifier or float
    literal, nothing per character. *)

exception Error of Token.pos * string

type state = {
  src : string;
  len : int;
  mutable off : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let pos st : Token.pos = { Token.line = st.line; col = st.off - st.bol + 1 }

(* the character at the cursor; only behind [st.off < st.len] *)
let cur st = String.unsafe_get st.src st.off

let at st c = st.off < st.len && cur st = c

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let newline st =
  st.off <- st.off + 1;
  st.line <- st.line + 1;
  st.bol <- st.off

(* past the ['}'] closing a comment opened at [line], [col] *)
let rec skip_block st line col =
  if st.off >= st.len then
    raise (Error ({ Token.line; col }, "unterminated comment"))
  else
    match cur st with
    | '}' -> st.off <- st.off + 1
    | '\n' ->
      newline st;
      skip_block st line col
    | _ ->
      st.off <- st.off + 1;
      skip_block st line col

(* up to the end of the line, its ['\n'] left for [skip_ws] *)
let rec skip_line st =
  if st.off < st.len && cur st <> '\n' then begin
    st.off <- st.off + 1;
    skip_line st
  end

let rec skip_ws st =
  if st.off < st.len then
    match cur st with
    | ' ' | '\t' | '\r' ->
      st.off <- st.off + 1;
      skip_ws st
    | '\n' ->
      newline st;
      skip_ws st
    | '{' ->
      let line = st.line and col = st.off - st.bol + 1 in
      st.off <- st.off + 1;
      skip_block st line col;
      skip_ws st
    | '-' when st.off + 1 < st.len && String.unsafe_get st.src (st.off + 1) = '-'
      ->
      skip_line st;
      skip_ws st
    | _ -> ()

let rec skip_digits st =
  if st.off < st.len && is_digit (cur st) then begin
    st.off <- st.off + 1;
    skip_digits st
  end

(* the value of the digits at the cursor after [n], which they pass;
   [-1] when it is beyond [max_int] *)
let rec int_digits st n =
  if st.off < st.len && is_digit (cur st) then begin
    let d = Char.code (cur st) - 48 in
    st.off <- st.off + 1;
    int_digits st (if n < 0 || n > (max_int - d) / 10 then -1 else (10 * n) + d)
  end
  else n

let malformed st (p : Token.pos) start =
  raise
    (Error
       ( p,
         Printf.sprintf "malformed number %S"
           (String.sub st.src start (st.off - start)) ))

(* An integer is its digits' value, read as they are skipped; a float
   is [digits (. digits)? ([eE] [+-]? digits)?], and an exponent needs
   a digit. A literal that is no number, or an integer beyond
   [max_int], is an error at its first character. *)
let lex_number st (p : Token.pos) =
  let start = st.off in
  let n = int_digits st 0 in
  let fraction =
    at st '.'
    && st.off + 1 < st.len
    && is_digit (String.unsafe_get st.src (st.off + 1))
  in
  if fraction then begin
    st.off <- st.off + 1;
    skip_digits st
  end;
  let exponent = at st 'e' || at st 'E' in
  let exp_digits =
    if not exponent then true
    else begin
      st.off <- st.off + 1;
      if at st '+' || at st '-' then st.off <- st.off + 1;
      let d = st.off in
      skip_digits st;
      st.off > d
    end
  in
  if fraction || exponent then
    if not exp_digits then malformed st p start
    else Token.FLOAT (float_of_string (String.sub st.src start (st.off - start)))
  else if n < 0 then malformed st p start
  else Token.INT n

(* [src] from [start + i], lowered, is [w] from [i] on *)
let rec is_word src start w i =
  i = String.length w
  || Char.lowercase_ascii (String.unsafe_get src (start + i))
     = String.unsafe_get w i
     && is_word src start w (i + 1)

(* the keywords by length, each with its token *)
let keywords =
  let all =
    [ ("program", Token.PROGRAM); ("var", Token.VAR); ("begin", Token.BEGIN);
      ("end", Token.END); ("if", Token.IF); ("then", Token.THEN);
      ("else", Token.ELSE); ("for", Token.FOR); ("to", Token.TO);
      ("do", Token.DO); ("array", Token.ARRAY); ("of", Token.OF);
      ("int", Token.TINT); ("float", Token.TFLOAT);
      ("independent", Token.INDEPENDENT); ("and", Token.AND);
      ("or", Token.OR); ("not", Token.NOT) ]
  in
  Array.init 12 (fun len ->
      List.filter_map
        (fun (w, t) -> if String.length w = len then Some (w, Some t) else None)
        all)

let rec find_keyword src start = function
  | [] -> None
  | (w, t) :: rest ->
    if is_word src start w 0 then t else find_keyword src start rest

(* The keyword [src] holds from [start] for [len] bytes, if any:
   identifiers and keywords are case-insensitive *)
let keyword src start len : Token.t option =
  if len < Array.length keywords then find_keyword src start keywords.(len)
  else None

(* a keyword, or an identifier whose text is lowered as it is copied
   out *)
let lex_word st =
  let start = st.off in
  while st.off < st.len && is_alnum (cur st) do
    st.off <- st.off + 1
  done;
  let len = st.off - start in
  match keyword st.src start len with
  | Some t -> t
  | None ->
    let w = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.unsafe_set w i
        (Char.lowercase_ascii (String.unsafe_get st.src (start + i)))
    done;
    Token.IDENT (Bytes.unsafe_to_string w)

(* [yes] when the next character is [c], which is consumed *)
let follows st c yes no =
  if at st c then begin
    st.off <- st.off + 1;
    yes
  end
  else no

let lex_symbol st p c =
  st.off <- st.off + 1;
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
  | ':' -> follows st '=' Token.ASSIGN Token.COLON
  | '.' -> follows st '.' Token.DOTDOT Token.DOT
  | '<' ->
    (* each test is made before the other consumes a character, so
       "<>=" is [<>] then [=] *)
    if at st '=' then follows st '=' Token.LE Token.LT
    else follows st '>' Token.NE Token.LT
  | '>' -> follows st '=' Token.GE Token.GT
  | _ -> raise (Error (p, Printf.sprintf "unexpected character %C" c))

(* the tokens from the cursor on, built front to back: each cell is
   made before its tail is filled, so no reversed copy is needed *)
let[@tail_mod_cons] rec tokens st =
  skip_ws st;
  let p = pos st in
  if st.off >= st.len then [ (p, Token.EOF) ]
  else
    let c = cur st in
    let t =
      if is_digit c then lex_number st p
      else if is_alpha c then lex_word st
      else lex_symbol st p c
    in
    (p, t) :: tokens st

(** Tokenize a whole source string. *)
let tokenize src =
  tokens { src; len = String.length src; off = 0; line = 1; bol = 0 }

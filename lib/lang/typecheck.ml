(** Semantic analysis for the W2-like language.

    Checks performed:
    - every identifier is declared (or is an enclosing loop variable);
    - no duplicate declarations;
    - operand types agree (no implicit int/float coercion — use the
      [float]/[int] conversion intrinsics);
    - conditions are integers (0 = false);
    - array references carry the right number of integer subscripts;
    - intrinsics are applied at the right types and arities;
    - loop variables are not assigned within their loop;
    - [send]/[receive] use channels 0 or 1 and float data.

    Raises {!Error} with a source position on the first violation. *)

exception Error of Token.pos * string

let err p fmt = Fmt.kstr (fun s -> raise (Error (p, s))) fmt

type info =
  | Scalar of Ast.ty
  | Array of Ast.ty * (int * int) list
  | Loopvar

type env = {
  vars : (string, info) Hashtbl.t;
  mutable loop_vars : string list; (* in-scope loop variables *)
}

let intrinsics =
  (* name -> (argument types, result type) *)
  [
    ("sqrt", ([ Ast.Tfloat ], Ast.Tfloat));
    ("inverse", ([ Ast.Tfloat ], Ast.Tfloat));
    ("exp", ([ Ast.Tfloat ], Ast.Tfloat));
    ("abs", ([ Ast.Tfloat ], Ast.Tfloat));
    ("min", ([ Ast.Tfloat; Ast.Tfloat ], Ast.Tfloat));
    ("max", ([ Ast.Tfloat; Ast.Tfloat ], Ast.Tfloat));
    ("float", ([ Ast.Tint ], Ast.Tfloat));
    ("int", ([ Ast.Tfloat ], Ast.Tint));
  ]

let lookup env p name =
  match Hashtbl.find_opt env.vars name with
  | Some i -> i
  | None -> err p "undeclared identifier %s" name

let rec type_of env (e : Ast.expr) : Ast.ty =
  let p = e.Ast.e_pos in
  match e.Ast.e with
  | Ast.Eint _ -> Ast.Tint
  | Ast.Efloat _ -> Ast.Tfloat
  | Ast.Evar name -> (
    match lookup env p name with
    | Scalar t -> t
    | Loopvar -> Ast.Tint
    | Array _ -> err p "array %s used without subscript" name)
  | Ast.Eindex (name, idx) -> (
    match lookup env p name with
    | Array (t, dims) ->
      if List.length idx <> List.length dims then
        err p "array %s has %d dimension(s), %d subscript(s) given" name
          (List.length dims) (List.length idx);
      List.iter
        (fun i ->
          if type_of env i <> Ast.Tint then
            err i.Ast.e_pos "subscript of %s is not an int" name)
        idx;
      t
    | Scalar _ | Loopvar -> err p "%s is not an array" name)
  | Ast.Ebin (op, a, b) -> (
    let ta = type_of env a and tb = type_of env b in
    if ta <> tb then
      err p "operands have different types (%a vs %a)" Ast.pp_ty ta
        Ast.pp_ty tb;
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> ta
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> Ast.Tint
    | Ast.And | Ast.Or ->
      if ta <> Ast.Tint then err p "boolean operands must be int";
      Ast.Tint)
  | Ast.Eun (Ast.Neg, a) -> type_of env a
  | Ast.Eun (Ast.Not, a) ->
    if type_of env a <> Ast.Tint then err p "'not' needs an int operand";
    Ast.Tint
  | Ast.Ecall (name, args) -> (
    match List.assoc_opt name intrinsics with
    | None -> err p "unknown function %s" name
    | Some (params, ret) ->
      if List.length args <> List.length params then
        err p "%s expects %d argument(s)" name (List.length params);
      List.iter2
        (fun a t ->
          if type_of env a <> t then
            err a.Ast.e_pos "argument of %s has wrong type" name)
        args params;
      ret)

let lvalue_type env (lv : Ast.lvalue) =
  match lv with
  | Ast.Lvar (name, p) -> (
    match lookup env p name with
    | Scalar t -> t
    | Loopvar -> err p "loop variable %s cannot be assigned" name
    | Array _ -> err p "array %s assigned without subscript" name)
  | Ast.Lindex (name, idx, p) ->
    type_of env { Ast.e_pos = p; e = Ast.Eindex (name, idx) }

let rec check_stmt env (s : Ast.stmt) =
  let p = s.Ast.s_pos in
  match s.Ast.s with
  | Ast.Sassign (lv, e) ->
    let tl = lvalue_type env lv and te = type_of env e in
    if tl <> te then
      err p "assignment type mismatch (%a := %a)" Ast.pp_ty tl Ast.pp_ty te
  | Ast.Sif (c, t, e) ->
    if type_of env c <> Ast.Tint then
      err c.Ast.e_pos "condition must be int (0 = false)";
    List.iter (check_stmt env) t;
    List.iter (check_stmt env) e
  | Ast.Sfor { var; lo; hi; body } ->
    if type_of env lo <> Ast.Tint then err lo.Ast.e_pos "loop bound not int";
    if type_of env hi <> Ast.Tint then err hi.Ast.e_pos "loop bound not int";
    let saved = Hashtbl.find_opt env.vars var in
    Hashtbl.replace env.vars var Loopvar;
    env.loop_vars <- var :: env.loop_vars;
    List.iter (check_stmt env) body;
    env.loop_vars <- List.tl env.loop_vars;
    (match saved with
    | Some i -> Hashtbl.replace env.vars var i
    | None -> Hashtbl.remove env.vars var)
  | Ast.Ssend (e, ch) ->
    if ch < 0 || ch > 1 then err p "channel must be 0 or 1";
    if type_of env e <> Ast.Tfloat then err p "send data must be float"
  | Ast.Sreceive (lv, ch) ->
    if ch < 0 || ch > 1 then err p "channel must be 0 or 1";
    if lvalue_type env lv <> Ast.Tfloat then
      err p "receive target must be float"

(** Check a whole program. Returns the (flat) variable environment for
    reuse by {!Lower}. *)
let check (p : Ast.program) =
  let env = { vars = Hashtbl.create ~random:false 32; loop_vars = [] } in
  List.iter
    (fun (d : Ast.decl) ->
      if Hashtbl.mem env.vars d.Ast.d_name then
        err d.Ast.d_pos "duplicate declaration of %s" d.Ast.d_name;
      (match d.Ast.d_kind with
      | Ast.Darray { dims; _ } ->
        List.iter
          (fun (lo, hi) ->
            if hi < lo then
              err d.Ast.d_pos "empty array range %d..%d" lo hi)
          dims
      | Ast.Dscalar _ -> ());
      Hashtbl.replace env.vars d.Ast.d_name
        (match d.Ast.d_kind with
        | Ast.Dscalar t -> Scalar t
        | Ast.Darray { elem; dims; _ } -> Array (elem, dims)))
    p.Ast.p_decls;
  List.iter (check_stmt env) p.Ast.p_body;
  env

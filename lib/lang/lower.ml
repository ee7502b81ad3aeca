(* Lowering from the W2-like AST to the scheduling IR, with the affine
   subscript analysis the interface describes. *)

open Sp_ir
module Opkind = Sp_machine.Opkind

exception Error of Token.pos * string

let err p fmt = Fmt.kstr (fun s -> raise (Error (p, s))) fmt

(* ------------------------------------------------------------------ *)
(* Affine integer values                                               *)
(* ------------------------------------------------------------------ *)

type affine = {
  coef : int;                         (* of the innermost loop counter *)
  syms : (int * Vreg.t * int) list;   (* (reg id, reg, multiplier), sorted *)
  const : int;
}

type ival = Aff of affine | Opaque of Vreg.t

let aff_const c = Aff { coef = 0; syms = []; const = c }

let norm_syms syms =
  syms
  |> List.filter (fun (_, _, m) -> m <> 0)
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let aff_add a b =
  let rec merge xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | (ia, ra, ma) :: xs', (ib, _, mb) :: ys' when ia = ib ->
      (ia, ra, ma + mb) :: merge xs' ys'
    | ((ia, _, _) as x) :: xs', (((ib, _, _) :: _) as ys') when ia < ib ->
      x :: merge xs' ys'
    | xs', y :: ys' -> y :: merge xs' ys'
  in
  {
    coef = a.coef + b.coef;
    syms = norm_syms (merge (norm_syms a.syms) (norm_syms b.syms));
    const = a.const + b.const;
  }

let aff_scale k a =
  {
    coef = k * a.coef;
    syms = norm_syms (List.map (fun (i, r, m) -> (i, r, k * m)) a.syms);
    const = k * a.const;
  }

let aff_neg a = aff_scale (-1) a

let aff_of_sym (r : Vreg.t) = { coef = 0; syms = [ (r.Vreg.id, r, 1) ]; const = 0 }

(* ------------------------------------------------------------------ *)

type binding =
  | Bscalar of Ast.ty * Vreg.t
  | Barray of Memseg.t * Ast.ty * (int * int) list
  | Bloop of loopctx

and loopctx = {
  l_iv : Vreg.t;                 (* per-iteration counter copy *)
  l_base : affine_outer;         (* user lower bound, from outside *)
  mutable l_cse : (cse_key * Vreg.t) list;
  l_assigned : (string, unit) Hashtbl.t;
      (* scalar variables assigned somewhere inside this loop *)
}

(* an affine value as seen from outside the loop, to be re-read inside:
   either a constant or a snapshot register *)
and affine_outer = Abase_const of int | Abase_reg of Vreg.t

and cse_key =
  | K_symsum of (int * int) list     (* (reg id, mult) list *)
  | K_scaled_iv of int               (* coef * iv *)

type env = {
  b : Builder.t;
  vars : (string, binding) Hashtbl.t;
  mutable loops : loopctx list;      (* innermost first *)
  if_convert : bool;
      (* lower two-sided single-assignment conditionals to selects
         instead of branches — an extension ablated in the bench (the
         paper's compiler, and our default, keep real branches) *)
}

let innermost env = match env.loops with [] -> None | l :: _ -> Some l

(** Scalar variables assigned anywhere in a statement list (including
    nested constructs) — used to decide loop-invariance. *)
let assigned_vars stmts =
  let tbl = Hashtbl.create ~random:false 16 in
  let lv = function
    | Ast.Lvar (n, _) -> Hashtbl.replace tbl n ()
    | Ast.Lindex _ -> ()
  in
  let rec go (s : Ast.stmt) =
    match s.Ast.s with
    | Ast.Sassign (l, _) -> lv l
    | Ast.Sif (_, t, e) ->
      List.iter go t;
      List.iter go e
    | Ast.Sfor { body; _ } -> List.iter go body
    | Ast.Ssend _ -> ()
    | Ast.Sreceive (l, _) -> lv l
  in
  List.iter go stmts;
  tbl

(* ------------------------------------------------------------------ *)
(* Materialization                                                      *)
(* ------------------------------------------------------------------ *)

let cse env key (mk : unit -> Vreg.t) =
  match innermost env with
  | None -> mk ()
  | Some l -> (
    match List.assoc_opt key l.l_cse with
    | Some r -> r
    | None ->
      let r = mk () in
      l.l_cse <- (key, r) :: l.l_cse;
      r)

(** Materialize the symbolic part of an affine form into one register,
    memoized per loop body so equal bases share a register (and the
    subscripts stay comparable). *)
let materialize_symsum env (syms : (int * Vreg.t * int) list) : Vreg.t option
    =
  match syms with
  | [] -> None
  | [ (_, r, 1) ] -> Some r
  | _ ->
    let key = K_symsum (List.map (fun (i, _, m) -> (i, m)) syms) in
    Some
      (cse env key (fun () ->
           let b = env.b in
           let term (_, r, m) =
             if m = 1 then r
             else
               let mr = Builder.iconst b m in
               Builder.imul b r mr
           in
           match List.map term syms with
           | [] -> assert false
           | t :: ts -> List.fold_left (fun acc x -> Builder.iadd b acc x) t ts))

let materialize_scaled_iv env (l : loopctx) coef : Vreg.t =
  if coef = 1 then l.l_iv
  else
    cse env (K_scaled_iv coef) (fun () ->
        let c = Builder.iconst env.b coef in
        Builder.imul env.b l.l_iv c)

(** Materialize any integer value into a plain register. *)
let materialize env (v : ival) : Vreg.t =
  match v with
  | Opaque r -> r
  | Aff a -> (
    let b = env.b in
    let parts =
      (match (a.coef, innermost env) with
      | 0, _ -> []
      | c, Some l -> [ materialize_scaled_iv env l c ]
      | _, None -> assert false (* nonzero coef outside any loop *))
      @ (match materialize_symsum env a.syms with
        | Some r -> [ r ]
        | None -> [])
    in
    match (parts, a.const) with
    | [], c -> Builder.iconst b c
    | [ r ], 0 -> r
    | r :: rest, c ->
      let sum = List.fold_left (fun acc x -> Builder.iadd b acc x) r rest in
      if c = 0 then sum
      else
        let cr = Builder.iconst b c in
        Builder.iadd b sum cr)

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)
(* ------------------------------------------------------------------ *)

let lookup env p name =
  match Hashtbl.find_opt env.vars name with
  | Some b -> b
  | None -> err p "undeclared identifier %s" name

(** Is scalar [name] invariant in the current innermost loop? *)
let invariant_here env name =
  match innermost env with
  | None -> true
  | Some l -> not (Hashtbl.mem l.l_assigned name)

let rec lower_int env (e : Ast.expr) : ival =
  let p = e.Ast.e_pos in
  match e.Ast.e with
  | Ast.Eint n -> aff_const n
  | Ast.Evar name -> (
    match lookup env p name with
    | Bscalar (Ast.Tint, r) ->
      if invariant_here env name then Aff (aff_of_sym r) else Opaque r
    | Bloop l ->
      (* user variable = base + counter copy *)
      let base =
        match l.l_base with
        | Abase_const c -> { coef = 0; syms = []; const = c }
        | Abase_reg r -> aff_of_sym r
      in
      (* only affine w.r.t. the *innermost* loop; an outer loop variable
         read from an inner loop is affine in the outer counter, which
         the inner loop sees as an invariant symbol *)
      let is_innermost =
        match innermost env with Some l' -> l' == l | None -> false
      in
      if is_innermost then
        Aff (aff_add base { coef = 1; syms = []; const = 0 })
      else Aff (aff_add base (aff_of_sym l.l_iv))
    | Bscalar (Ast.Tfloat, _) -> err p "%s is a float" name
    | Barray _ -> err p "array %s in scalar context" name)
  | Ast.Eindex _ -> Opaque (lower_int_opaque env e)
  | Ast.Ebin (op, a, b) -> (
    match op with
    | Ast.Add -> (
      match (lower_int env a, lower_int env b) with
      | Aff x, Aff y -> Aff (aff_add x y)
      | x, y -> Opaque (bin_int env Opkind.Iadd x y))
    | Ast.Sub -> (
      match (lower_int env a, lower_int env b) with
      | Aff x, Aff y -> Aff (aff_add x (aff_neg y))
      | x, y -> Opaque (bin_int env Opkind.Isub x y))
    | Ast.Mul -> (
      match (lower_int env a, lower_int env b) with
      | Aff { coef = 0; syms = []; const = k }, v
      | v, Aff { coef = 0; syms = []; const = k } -> (
        match v with
        | Aff x -> Aff (aff_scale k x)
        | Opaque _ ->
          Opaque (bin_int env Opkind.Imul (aff_const k) v))
      | x, y -> Opaque (bin_int env Opkind.Imul x y))
    | Ast.Div -> Opaque (bin_int env Opkind.Idiv (lower_int env a) (lower_int env b))
    | Ast.And -> Opaque (bin_int env Opkind.Iand (lower_int env a) (lower_int env b))
    | Ast.Or -> Opaque (bin_int env Opkind.Ior (lower_int env a) (lower_int env b))
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      Opaque (lower_cmp env p op a b))
  | Ast.Eun (Ast.Neg, a) -> (
    match lower_int env a with
    | Aff x -> Aff (aff_neg x)
    | Opaque _ as v -> Opaque (bin_int env Opkind.Isub (aff_const 0) v))
  | Ast.Eun (Ast.Not, a) ->
    let r = materialize env (lower_int env a) in
    let z = Builder.iconst env.b 0 in
    Opaque (Builder.icmp env.b Opkind.Eq r z)
  | Ast.Ecall ("int", [ a ]) ->
    Opaque (Builder.ftoi env.b (lower_float env a))
  | Ast.Ecall (name, _) -> err p "%s does not return int here" name
  | Ast.Efloat _ -> err p "float literal in int context"

and lower_int_opaque env e = materialize env (lower_int env e)

and bin_int env kind a b =
  let ra = materialize env a and rb = materialize env b in
  Builder.ibin env.b kind ra rb

and lower_cmp env p op a b =
  (* comparisons work on both int and float operands *)
  let rel =
    match op with
    | Ast.Eq -> Opkind.Eq
    | Ast.Ne -> Opkind.Ne
    | Ast.Lt -> Opkind.Lt
    | Ast.Le -> Opkind.Le
    | Ast.Gt -> Opkind.Gt
    | Ast.Ge -> Opkind.Ge
    | _ -> assert false
  in
  match expr_ty env a with
  | Ast.Tint ->
    let ra = lower_int_opaque env a and rb = lower_int_opaque env b in
    Builder.icmp env.b rel ra rb
  | Ast.Tfloat ->
    ignore p;
    let ra = lower_float env a and rb = lower_float env b in
    Builder.fcmp env.b rel ra rb

(* minimal type reconstruction (the program has already been checked) *)
and expr_ty env (e : Ast.expr) : Ast.ty =
  match e.Ast.e with
  | Ast.Eint _ -> Ast.Tint
  | Ast.Efloat _ -> Ast.Tfloat
  | Ast.Evar name -> (
    match lookup env e.Ast.e_pos name with
    | Bscalar (t, _) -> t
    | Bloop _ -> Ast.Tint
    | Barray _ -> err e.Ast.e_pos "array in scalar context")
  | Ast.Eindex (name, _) -> (
    match lookup env e.Ast.e_pos name with
    | Barray (_, t, _) -> t
    | _ -> err e.Ast.e_pos "%s is not an array" name)
  | Ast.Ebin ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, _) -> expr_ty env a
  | Ast.Ebin _ -> Ast.Tint
  | Ast.Eun (Ast.Neg, a) -> expr_ty env a
  | Ast.Eun (Ast.Not, _) -> Ast.Tint
  | Ast.Ecall (("sqrt" | "inverse" | "exp" | "abs" | "min" | "max" | "float"), _)
    -> Ast.Tfloat
  | Ast.Ecall _ -> Ast.Tint

(* ---- array addressing --------------------------------------------- *)

(** Linearized affine subscript of an array access, with dimension
    lower bounds folded in. *)
and linearize env p name (idx : Ast.expr list) :
    Memseg.t * ival =
  match lookup env p name with
  | Barray (seg, _, dims) ->
    if List.length idx <> List.length dims then
      err p "wrong number of subscripts for %s" name;
    let widths =
      (* row-major: weight of dimension k is the product of the sizes
         of dimensions k+1.. *)
      let sizes = List.map (fun (lo, hi) -> hi - lo + 1) dims in
      let rec go = function
        | [] -> []
        | _ :: rest -> List.fold_left ( * ) 1 rest :: go rest
      in
      go sizes
    in
    let v =
      List.fold_left2
        (fun acc (e, (lo, _)) w ->
          let part = lower_int env e in
          let part =
            match part with
            | Aff a -> Aff (aff_scale w (aff_add a { coef = 0; syms = []; const = -lo }))
            | Opaque r ->
              if w = 1 && lo = 0 then Opaque r
              else begin
                let lo_r = Builder.iconst env.b lo in
                let d = Builder.isub env.b r lo_r in
                let wr = Builder.iconst env.b w in
                Opaque (Builder.imul env.b d wr)
              end
          in
          match (acc, part) with
          | Aff x, Aff y -> Aff (aff_add x y)
          | x, y -> Opaque (bin_int env Opkind.Iadd x y))
        (aff_const 0)
        (List.combine idx dims)
        widths
    in
    (seg, v)
  | _ -> err p "%s is not an array" name

(** Address operands and subscript descriptor for a memory access. *)
and addressing env (seg : Memseg.t) (v : ival) :
    Vreg.t option * Vreg.t option * int * Subscript.t option =
  ignore seg;
  match v with
  | Opaque r -> (None, Some r, 0, None)
  | Aff a -> (
    let base = materialize_symsum env a.syms in
    let sub_syms =
      match base with Some r -> [ r.Vreg.id ] | None -> []
    in
    match (a.coef, innermost env) with
    | 0, _ ->
      ( base,
        None,
        a.const,
        Some { Subscript.coef = 0; iv = None; syms = sub_syms; off = a.const }
      )
    | c, Some l ->
      let idx = materialize_scaled_iv env l c in
      ( base,
        Some idx,
        a.const,
        Some
          {
            Subscript.coef = c;
            iv = Some l.l_iv;
            syms = sub_syms;
            off = a.const;
          } )
    | _, None -> assert false)

and lower_load env p name idx : Vreg.t =
  let seg, v = linearize env p name idx in
  let base, ix, off, sub = addressing env seg v in
  Builder.load env.b ?base ?idx:ix ~off ?sub seg

(* ---- float expressions -------------------------------------------- *)

(** Flatten a maximal tree of float additions into its terms, in source
    order. Used to build balanced reduction trees: the paper's machine
    has 7-cycle adds, and a left-associated chain of [k] additions
    serializes [7k] cycles of critical path (and stretches every
    operand's lifetime accordingly), where a balanced tree costs
    [7*ceil(log2 k)]. Floating-point reassociation changes results in
    general, but both the reference interpreter and the generated code
    execute the {e same} reassociated IR, so validation stays exact. *)
and add_terms (e : Ast.expr) : Ast.expr list =
  match e.Ast.e with
  | Ast.Ebin (Ast.Add, a, b) -> add_terms a @ add_terms b
  | _ -> [ e ]

and balanced_fadd env (terms : Vreg.t list) : Vreg.t =
  match terms with
  | [] -> assert false
  | [ r ] -> r
  | _ ->
    let rec level = function
      | [] -> []
      | [ x ] -> [ x ]
      | x :: y :: rest -> Builder.fadd env.b x y :: level rest
    in
    balanced_fadd env (level terms)

and lower_float env (e : Ast.expr) : Vreg.t =
  let p = e.Ast.e_pos in
  match e.Ast.e with
  | Ast.Efloat f -> Builder.fconst env.b f
  | Ast.Evar name -> (
    match lookup env p name with
    | Bscalar (Ast.Tfloat, r) -> r
    | _ -> err p "%s is not a float scalar" name)
  | Ast.Eindex (name, idx) -> lower_load env p name idx
  | Ast.Ebin (op, a, b) -> (
    match op with
    | Ast.Add ->
      let terms = add_terms e in
      balanced_fadd env (List.map (lower_float env) terms)
    | Ast.Sub -> Builder.fsub env.b (lower_float env a) (lower_float env b)
    | Ast.Mul -> Builder.fmul env.b (lower_float env a) (lower_float env b)
    | Ast.Div ->
      (* expanded via the reciprocal sequence (INVERSE): 8 flops *)
      let ra = lower_float env a in
      let inv = Expand.inverse env.b (lower_float env b) in
      Builder.fmul env.b ra inv
    | _ -> err p "operator yields an int, not a float")
  | Ast.Eun (Ast.Neg, a) -> Builder.fneg env.b (lower_float env a)
  | Ast.Eun (Ast.Not, _) -> err p "'not' yields an int"
  | Ast.Ecall ("sqrt", [ a ]) -> Expand.sqrt_ env.b (lower_float env a)
  | Ast.Ecall ("inverse", [ a ]) -> Expand.inverse env.b (lower_float env a)
  | Ast.Ecall ("exp", [ a ]) -> Expand.exp_ env.b (lower_float env a)
  | Ast.Ecall ("abs", [ a ]) -> Builder.fabs env.b (lower_float env a)
  | Ast.Ecall ("min", [ a; b ]) ->
    Builder.fmin env.b (lower_float env a) (lower_float env b)
  | Ast.Ecall ("max", [ a; b ]) ->
    Builder.fmax env.b (lower_float env a) (lower_float env b)
  | Ast.Ecall ("float", [ a ]) ->
    Builder.itof env.b (lower_int_opaque env a)
  | Ast.Ecall (name, _) -> err p "unknown float function %s" name
  | Ast.Eint _ -> err p "int literal in float context (use a float literal)"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** Lower [e] targeting register [dst] when profitable (avoids a move
    on the critical path of accumulator recurrences). *)
let lower_float_to env dst (e : Ast.expr) =
  let b = env.b in
  let emit_to kind srcs = ignore (Builder.emit b ~dst ~srcs kind) in
  match e.Ast.e with
  | Ast.Ebin (Ast.Add, _, _) -> (
    match List.map (lower_float env) (add_terms e) with
    | [ x; y ] -> emit_to Opkind.Fadd [ x; y ]
    | terms -> (
      (* balance all but the final combine, which targets [dst] *)
      let rec split_last = function
        | [] -> assert false
        | [ x ] -> ([], x)
        | x :: rest ->
          let init, last = split_last rest in
          (x :: init, last)
      in
      let init, last = split_last terms in
      match init with
      | [] -> emit_to Opkind.Fmov [ last ]
      | _ -> emit_to Opkind.Fadd [ balanced_fadd env init; last ]))
  | Ast.Ebin (Ast.Sub, x, y) ->
    emit_to Opkind.Fsub [ lower_float env x; lower_float env y ]
  | Ast.Ebin (Ast.Mul, x, y) ->
    emit_to Opkind.Fmul [ lower_float env x; lower_float env y ]
  | Ast.Efloat f -> ignore (Builder.emit b ~dst ~imm:(Op.Fimm f) Opkind.Fconst)
  | _ -> emit_to Opkind.Fmov [ lower_float env e ]

let lower_int_to env dst (e : Ast.expr) =
  let b = env.b in
  let r = lower_int_opaque env e in
  ignore (Builder.emit b ~dst ~srcs:[ r ] Opkind.Imov)

let rec lower_stmt env (s : Ast.stmt) =
  let p = s.Ast.s_pos in
  match s.Ast.s with
  | Ast.Sassign (Ast.Lvar (name, vp), e) -> (
    match lookup env vp name with
    | Bscalar (Ast.Tfloat, r) -> lower_float_to env r e
    | Bscalar (Ast.Tint, r) -> lower_int_to env r e
    | Bloop _ -> err vp "cannot assign loop variable %s" name
    | Barray _ -> err vp "array %s assigned without subscript" name)
  | Ast.Sassign (Ast.Lindex (name, idx, vp), e) -> (
    let seg, v = linearize env vp name idx in
    let base, ix, off, sub = addressing env seg v in
    match expr_ty env e with
    | Ast.Tfloat ->
      let r = lower_float env e in
      Builder.store env.b ?base ?idx:ix ~off ?sub seg r
    | Ast.Tint ->
      let r = lower_int_opaque env e in
      Builder.store env.b ?base ?idx:ix ~off ?sub seg r)
  | Ast.Sif (c, t, e)
    when env.if_convert
         && (match (t, e) with
            | ( [ { Ast.s = Ast.Sassign (Ast.Lvar (n1, _), _); _ } ],
                [ { Ast.s = Ast.Sassign (Ast.Lvar (n2, _), _); _ } ] ) ->
              String.equal n1 n2
              && (match Hashtbl.find_opt env.vars n1 with
                 | Some (Bscalar (Ast.Tfloat, _)) -> true
                 | _ -> false)
            | _ -> false) -> (
    (* if-conversion: both sides assign the same float scalar; compute
       both values and select — no branch, no sequencer serialization *)
    match (t, e) with
    | ( [ { Ast.s = Ast.Sassign (Ast.Lvar (n, vp), et); _ } ],
        [ { Ast.s = Ast.Sassign (Ast.Lvar (_, _), ee); _ } ] ) -> (
      let cr = lower_int_opaque env c in
      let vt = lower_float env et in
      let ve = lower_float env ee in
      match lookup env vp n with
      | Bscalar (Ast.Tfloat, dst) ->
        ignore
          (Builder.emit env.b ~dst ~srcs:[ cr; vt; ve ]
             Sp_machine.Opkind.Fsel)
      | _ -> assert false)
    | _ -> assert false)
  | Ast.Sif (c, t, e) ->
    let cr = lower_int_opaque env c in
    (* each branch gets a private CSE scope: registers materialized on
       one path are not valid on the other *)
    let with_branch stmts () =
      let saved =
        List.map (fun (l : loopctx) -> (l, l.l_cse)) env.loops
      in
      List.iter (lower_stmt env) stmts;
      List.iter (fun ((l : loopctx), c) -> l.l_cse <- c) saved
    in
    Builder.if_ env.b cr ~then_:(with_branch t) ~else_:(with_branch e)
  | Ast.Sfor { var; lo; hi; body } ->
    let lo_v = lower_int env lo in
    let hi_v = lower_int env hi in
    let const_of = function
      | Aff { coef = 0; syms = []; const = c } -> Some c
      | _ -> None
    in
    let bound, l_base =
      match (const_of lo_v, const_of hi_v) with
      | Some l, Some h -> (Region.Const (max 0 (h - l + 1)), Abase_const l)
      | _ ->
        (* snapshot the bounds; trip count = hi - lo + 1 *)
        let lo_r = materialize env lo_v in
        let hi_r = materialize env hi_v in
        let d = Builder.isub env.b hi_r lo_r in
        let one = Builder.iconst env.b 1 in
        let n = Builder.iadd env.b d one in
        (Region.Reg n, Abase_reg lo_r)
    in
    ignore p;
    Builder.for_ env.b ~name:var bound (fun i_loc ->
        let lctx =
          {
            l_iv = i_loc;
            l_base;
            l_cse = [];
            l_assigned = assigned_vars body;
          }
        in
        let saved_binding = Hashtbl.find_opt env.vars var in
        Hashtbl.replace env.vars var (Bloop lctx);
        env.loops <- lctx :: env.loops;
        List.iter (lower_stmt env) body;
        env.loops <- List.tl env.loops;
        (match saved_binding with
        | Some b -> Hashtbl.replace env.vars var b
        | None -> Hashtbl.remove env.vars var))
  | Ast.Ssend (e, ch) -> Builder.send env.b ch (lower_float env e)
  | Ast.Sreceive (Ast.Lvar (name, vp), ch) -> (
    match lookup env vp name with
    | Bscalar (Ast.Tfloat, r) ->
      ignore (Builder.emit env.b ~dst:r (Opkind.Recv ch))
    | _ -> err vp "receive target %s must be a float scalar" name)
  | Ast.Sreceive (Ast.Lindex (name, idx, vp), ch) ->
    let seg, v = linearize env vp name idx in
    let base, ix, off, sub = addressing env seg v in
    let r = Builder.recv env.b ch in
    Builder.store env.b ?base ?idx:ix ~off ?sub seg r

(* ------------------------------------------------------------------ *)

let lower ?(if_convert = false) (p : Ast.program) : Program.t =
  let b = Builder.create p.Ast.p_name in
  let env =
    { b; vars = Hashtbl.create ~random:false 32; loops = []; if_convert }
  in
  List.iter
    (fun (d : Ast.decl) ->
      match d.Ast.d_kind with
      | Ast.Dscalar Ast.Tfloat ->
        Hashtbl.replace env.vars d.Ast.d_name
          (Bscalar (Ast.Tfloat, Builder.fresh_f ~name:d.Ast.d_name b))
      | Ast.Dscalar Ast.Tint ->
        Hashtbl.replace env.vars d.Ast.d_name
          (Bscalar (Ast.Tint, Builder.fresh_i ~name:d.Ast.d_name b))
      | Ast.Darray { elem; dims; independent } ->
        let size =
          List.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 dims
        in
        let elt =
          match elem with
          | Ast.Tfloat -> Memseg.Float_elt
          | Ast.Tint -> Memseg.Int_elt
        in
        let seg =
          Builder.seg b ~independent ~elt ~name:d.Ast.d_name ~size ()
        in
        Hashtbl.replace env.vars d.Ast.d_name (Barray (seg, elem, dims)))
    p.Ast.p_decls;
  List.iter (lower_stmt env) p.Ast.p_body;
  Builder.finish b

let compile_source ?if_convert src =
  let ast = Sp_obs.Trace.span "compile.parse" (fun () -> Parser.parse src) in
  Sp_obs.Trace.span "compile.typecheck" (fun () -> ignore (Typecheck.check ast));
  Sp_obs.Trace.span "compile.lower" (fun () -> lower ?if_convert ast)

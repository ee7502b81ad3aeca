(** Semantic array-subscript descriptors for dependence analysis.

    A memory access records, besides the registers used to compute its
    address, a best-effort algebraic description of the subscript:

    {v  subscript  =  coef * iv  +  syms  +  off  v}

    where [iv] is (usually) the induction variable of the innermost
    enclosing loop, [syms] is a multiset of loop-invariant registers,
    and [off] a compile-time constant. Two accesses with equal [iv],
    [coef] and [syms] differ by a constant, and their dependence
    distance in iterations is exact; anything else is treated
    conservatively (see {!Sp_core.Ddg}). *)

type t = {
  coef : int;              (** coefficient of the induction variable *)
  iv : Vreg.t option;      (** the induction variable, if any *)
  syms : int list;         (** sorted ids of invariant registers added in *)
  off : int;               (** constant part *)
}

let constant off = { coef = 0; iv = None; syms = []; off }

let of_iv ?(coef = 1) ?(off = 0) iv = { coef; iv = Some iv; syms = []; off }

let add_sym t (v : Vreg.t) =
  { t with syms = List.sort compare (v.Vreg.id :: t.syms) }

let rec add_syms b = function
  | [] -> ()
  | id :: rest ->
    Buffer.add_string b "+%";
    Sp_util.Intmath.add_decimal b id;
    add_syms b rest

let to_buffer b t =
  Buffer.add_char b '[';
  (match t.iv with
  | None -> ()
  | Some v ->
    Sp_util.Intmath.add_decimal b t.coef;
    Buffer.add_char b '*';
    Vreg.to_buffer b v);
  add_syms b t.syms;
  if t.off >= 0 then Buffer.add_char b '+';
  Sp_util.Intmath.add_decimal b t.off;
  Buffer.add_char b ']'

(** Same shape (same iv, coefficient and symbolic part), so that the
    two subscripts differ by the constant [off] only. *)
let comparable a b =
  a.coef = b.coef
  && (match (a.iv, b.iv) with
     | None, None -> true
     | Some u, Some v -> Vreg.equal u v
     | _ -> false)
  && List.equal Int.equal a.syms b.syms

(** [distance ~from ~to_] — if both subscripts are comparable and refer
    to the induction variable, the signed iteration distance [p] such
    that [from] in iteration [i] touches the element [to_] touches in
    iteration [i + p]; [None] when the accesses never alias or cannot be
    compared exactly.

    For subscripts [coef*i + c1] and [coef*i + c2]:
    [c1 = coef*p + c2], i.e. [p = (c1 - c2) / coef] when divisible. *)
type dist = Never | Exactly of int | Unknown

let distance ~from ~to_ =
  if not (comparable from to_) then Unknown
  else if from.coef = 0 then
    (* loop-invariant subscripts: alias iff equal constants, at every
       iteration distance *)
    if from.off = to_.off then Unknown else Never
  else
    let diff = from.off - to_.off in
    if diff mod from.coef = 0 then Exactly (diff / from.coef) else Never

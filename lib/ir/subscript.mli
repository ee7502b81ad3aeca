(** Semantic array-subscript descriptors for dependence analysis:

    {v  subscript = coef * iv + syms + off  v}

    where [iv] is the innermost loop's per-iteration counter copy,
    [syms] a set of loop-invariant registers and [off] a compile-time
    constant. Two accesses with the same shape differ by a constant and
    their iteration distance is exact; everything else is treated
    conservatively by {!Sp_core.Ddg}. *)

type t = {
  coef : int;              (** coefficient of the induction variable *)
  iv : Vreg.t option;      (** the induction variable, if any *)
  syms : int list;         (** sorted ids of invariant registers added in *)
  off : int;               (** constant part *)
}

val constant : int -> t
(** A loop-invariant constant subscript. *)

val of_iv : ?coef:int -> ?off:int -> Vreg.t -> t
(** [of_iv iv] is the affine subscript [coef*iv + off] (defaults:
    [coef = 1], [off = 0]). *)

val add_sym : t -> Vreg.t -> t
(** Add an invariant register to the symbolic part. *)

(** Result of an exact dependence-distance query. *)
type dist =
  | Never         (** provably never the same element *)
  | Exactly of int
      (** [from] in iteration [i] touches the element [to_] touches in
          iteration [i + d] *)
  | Unknown       (** not comparable: treat conservatively *)

val distance : from:t -> to_:t -> dist

val to_buffer : Buffer.t -> t -> unit
(** Appends the listing form [\[coef*iv+%sym...+off\]]. *)

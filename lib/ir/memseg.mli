(** Memory segments: the data memory is a set of named segments, one
    per source-level array. A segment can carry the paper's
    disambiguation directive ([independent]): carried memory
    dependences between individual references to it are not generated
    (Table 4-2's starred kernels; whole-construct summaries stay
    ordered regardless — see {!Sp_core.Ddg}). *)

type elt = Float_elt | Int_elt

type t = {
  sid : int;
  sname : string;
  size : int;
  elt : elt;
  independent : bool;
}

val equal : t -> t -> bool

module Supply : sig
  type supply

  val create : unit -> supply

  val fresh :
    supply ->
    ?independent:bool ->
    ?elt:elt ->
    name:string ->
    size:int ->
    unit ->
    t
end

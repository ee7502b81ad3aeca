(** IR micro-operations — the "minimally indivisible sequences of
    micro-instructions" of the paper's Section 2.1. The scheduler never
    splits one; the machine description gives each a resource
    reservation and result latency. *)

module Opkind = Sp_machine.Opkind

type imm = Fimm of float | Iimm of int

(** A data-memory address: [seg\[base + idx + off\]] where [base] and
    [idx] are optional registers; [sub] is the semantic subscript used
    by dependence analysis. *)
type addr = {
  seg : Memseg.t;
  base : Vreg.t option;
  idx : Vreg.t option;
  off : int;
  sub : Subscript.t option;
}

type t = {
  uid : int;
  kind : Opkind.t;
  dst : Vreg.t option;
  srcs : Vreg.t list;
  imm : imm option;
  addr : addr option;
}

val reads : t -> Vreg.t list
(** Registers read at issue: sources plus address registers. *)

val writes : t -> Vreg.t list

val map_regs : (Vreg.t -> Vreg.t) -> t -> t
(** Apply a register substitution to all operands; the uid is
    preserved. *)

val is_store : t -> bool
val is_flop : t -> bool

val to_buffer : Buffer.t -> t -> unit
(** Appends the listing form of the operation: destination, kind,
    sources, immediate, then the address with its subscript. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

(** Operation supply: uids are dense per program. *)
module Supply : sig
  type supply

  val create : unit -> supply
  val count : supply -> int

  val copy : supply -> supply
  (** An independent supply that draws the same uids this one would. *)

  val mk :
    supply ->
    ?dst:Vreg.t ->
    ?srcs:Vreg.t list ->
    ?imm:imm ->
    ?addr:addr ->
    Opkind.t ->
    t
end

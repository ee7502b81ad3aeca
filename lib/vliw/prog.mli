(** Assembled VLIW programs and the assembler used to build them. *)

type t = { code : Inst.t array }

val length : t -> int
val size : t -> int
(** Static code size in instruction words (the paper's Section 2.4
    metric). *)

val equal : t -> t -> bool
(** The same words: every field of every operation and control field,
    float immediates by their bits. Two equal programs have the same
    {!to_buffer} listing. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends the listing, one ["%4d: word\n"] line per instruction —
    the text [w2c compile] prints, [w2cd] serves and
    {!Sp_core.Compile.fingerprint} digests. *)

val render : (Buffer.t -> unit) -> string
(** [render f] is the text [f] appends to an empty buffer. The buffer
    is the calling domain's own, reused from text to text, so a
    listing costs its returned string and no buffer of its size; [f]
    must not call [render] itself. *)

val pp : Format.formatter -> t -> unit
(** Prints the {!to_buffer} listing and flushes the formatter. *)

module Asm : sig
  type asm

  val create : unit -> asm

  val fresh_label : asm -> Inst.label
  val place : asm -> Inst.label -> unit
  (** Bind a label to the address of the next instruction emitted. *)

  val here : asm -> int
  val inst : asm -> ?ctl:Inst.ctl -> Sp_ir.Op.t list -> unit

  val attach_ctl : asm -> Inst.ctl -> unit
  (** Attach control to the last instruction if its field is free and
      no label points past it; otherwise emit a fresh word. Only for
      control that reads no register (a register-reading field must
      occupy its own, later word — see DESIGN.md §7.5). *)

  val finish : asm -> t
  (** Resolve labels. Raises [Invalid_argument] on an unplaced label. *)
end

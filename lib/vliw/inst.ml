(** Very long instruction words.

    One instruction issues every cycle. It carries any number of
    micro-operations (the resource checker enforces the machine's
    per-cycle capacities) plus one control field for the sequencer.
    Hardware loop counters model Warp's sequencer-side looping support:
    they live in the sequencer, not the register files, so loop control
    never competes with the datapath (see DESIGN.md Section 6). *)

type label = int
(** Symbolic until {!Prog.Asm.finish}; instruction index afterwards. *)

type ctl =
  | Next
  | Halt
  | Jump of label
  | CJump of { cond : Sp_ir.Vreg.t; if_zero : bool; target : label }
      (** branch when [cond <> 0] (or [= 0] when [if_zero]) *)
  | CtrSet of { ctr : int; value : int }
      (** load an immediate into hardware loop counter [ctr] *)
  | CtrSetR of { ctr : int; reg : Sp_ir.Vreg.t }
      (** load a register into a loop counter *)
  | CtrLoop of { ctr : int; target : label }
      (** decrement counter; jump if still positive *)
  | CtrJumpLt of { ctr : int; bound : int; target : label }
      (** jump when the counter is below an immediate bound *)

type t = { ops : Sp_ir.Op.t list; ctl : ctl }

let empty = { ops = []; ctl = Next }

let add_label b l =
  Buffer.add_string b " L";
  Sp_util.Intmath.add_decimal b l

let ctl_to_buffer b ctl =
  let int = Sp_util.Intmath.add_decimal in
  match ctl with
  | Next -> ()
  | Halt -> Buffer.add_string b " halt"
  | Jump l ->
    Buffer.add_string b " jump";
    add_label b l
  | CJump { cond; if_zero; target } ->
    Buffer.add_string b (if if_zero then " cjump.z " else " cjump.nz ");
    Sp_ir.Vreg.to_buffer b cond;
    add_label b target
  | CtrSet { ctr; value } ->
    Buffer.add_string b " ctr";
    int b ctr;
    Buffer.add_string b " := ";
    int b value
  | CtrSetR { ctr; reg } ->
    Buffer.add_string b " ctr";
    int b ctr;
    Buffer.add_string b " := ";
    Sp_ir.Vreg.to_buffer b reg
  | CtrLoop { ctr; target } ->
    Buffer.add_string b " ctrloop";
    int b ctr;
    add_label b target
  | CtrJumpLt { ctr; bound; target } ->
    Buffer.add_string b " if ctr";
    int b ctr;
    Buffer.add_string b " < ";
    int b bound;
    Buffer.add_string b " jump";
    add_label b target

let rec add_ops b = function
  | [] -> ()
  | op :: rest ->
    Buffer.add_string b "; ";
    Sp_ir.Op.to_buffer b op;
    add_ops b rest

let to_buffer b i =
  Buffer.add_char b '[';
  (match i.ops with
  | [] -> ()
  | op :: rest ->
    Sp_ir.Op.to_buffer b op;
    add_ops b rest);
  Buffer.add_char b ']';
  ctl_to_buffer b i.ctl

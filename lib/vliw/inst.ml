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

let ctl_to_buffer b ctl =
  let add = Buffer.add_string b in
  let int = Sp_util.Intmath.add_decimal b in
  let label l =
    add " L";
    int l
  in
  match ctl with
  | Next -> ()
  | Halt -> add " halt"
  | Jump l ->
    add " jump";
    label l
  | CJump { cond; if_zero; target } ->
    add (if if_zero then " cjump.z " else " cjump.nz ");
    Sp_ir.Vreg.to_buffer b cond;
    label target
  | CtrSet { ctr; value } ->
    add " ctr";
    int ctr;
    add " := ";
    int value
  | CtrSetR { ctr; reg } ->
    add " ctr";
    int ctr;
    add " := ";
    Sp_ir.Vreg.to_buffer b reg
  | CtrLoop { ctr; target } ->
    add " ctrloop";
    int ctr;
    label target
  | CtrJumpLt { ctr; bound; target } ->
    add " if ctr";
    int ctr;
    add " < ";
    int bound;
    add " jump";
    label target

let to_buffer b i =
  Buffer.add_char b '[';
  List.iteri
    (fun k op ->
      if k > 0 then Buffer.add_string b "; ";
      Sp_ir.Op.to_buffer b op)
    i.ops;
  Buffer.add_char b ']';
  ctl_to_buffer b i.ctl

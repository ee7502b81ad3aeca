(** Reference listing printer: [Prog.to_buffer] and the printers under
    it ([Inst], [Op], [Vreg], [Subscript], [Opkind.to_string],
    [Intmath.add_decimal]) and [Compile.listing] and
    [Compile.fingerprint] as they were written before the listing
    reused one buffer per domain — closures per call, kind names
    concatenated or formatted, every float immediate through
    [Printf.sprintf " #%g"], a fresh buffer of 64 bytes per word. The
    suites hold the library's printer to it byte for byte. *)

open Sp_ir
module Opkind = Sp_machine.Opkind
module Inst = Sp_vliw.Inst
module C = Sp_core.Compile

let add_decimal b n =
  if n < 0 then Buffer.add_char b '-';
  let rec go m =
    if m <= -10 then go (m / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))
  in
  go (if n > 0 then -n else n)

let string_of_rel = function
  | Opkind.Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt"
  | Ge -> "ge"

let kind_name = function
  | Opkind.Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul"
  | Fneg -> "fneg" | Fabs -> "fabs" | Fmin -> "fmin" | Fmax -> "fmax"
  | Fcmp r -> "fcmp." ^ string_of_rel r
  | Fmov -> "fmov" | Fconst -> "fconst" | Fsel -> "fsel"
  | Frecs -> "frecs" | Frsqs -> "frsqs"
  | Iadd -> "iadd" | Isub -> "isub" | Imul -> "imul"
  | Iand -> "iand" | Ior -> "ior" | Ixor -> "ixor"
  | Ishl -> "ishl" | Ishr -> "ishr" | Idiv -> "idiv" | Imod -> "imod"
  | Icmp r -> "icmp." ^ string_of_rel r
  | Imov -> "imov" | Iconst -> "iconst" | Isel -> "isel"
  | Amov -> "amov" | Aadd -> "aadd"
  | Itof -> "itof" | Ftoi -> "ftoi"
  | Load -> "load" | Store -> "store"
  | Recv n -> Printf.sprintf "recv%d" n
  | Send n -> Printf.sprintf "send%d" n
  | Nop -> "nop"

let vreg_to_buffer b (v : Vreg.t) =
  Buffer.add_char b '%';
  Buffer.add_string b (match v.Vreg.cls with Vreg.F -> "f" | Vreg.I -> "i");
  add_decimal b v.Vreg.id;
  if not (String.equal v.Vreg.name "") then begin
    Buffer.add_char b ':';
    Buffer.add_string b v.Vreg.name
  end

let subscript_to_buffer b (t : Subscript.t) =
  Buffer.add_char b '[';
  (match t.Subscript.iv with
  | None -> ()
  | Some v ->
    add_decimal b t.Subscript.coef;
    Buffer.add_char b '*';
    vreg_to_buffer b v);
  List.iter
    (fun id ->
      Buffer.add_string b "+%";
      add_decimal b id)
    t.Subscript.syms;
  if t.Subscript.off >= 0 then Buffer.add_char b '+';
  add_decimal b t.Subscript.off;
  Buffer.add_char b ']'

let op_to_buffer b (op : Op.t) =
  (match op.Op.dst with
  | Some d ->
    vreg_to_buffer b d;
    Buffer.add_string b " <- "
  | None -> ());
  Buffer.add_string b (kind_name op.Op.kind);
  List.iter
    (fun s ->
      Buffer.add_char b ' ';
      vreg_to_buffer b s)
    op.Op.srcs;
  (match op.Op.imm with
  | Some (Op.Fimm f) -> Buffer.add_string b (Printf.sprintf " #%g" f)
  | Some (Op.Iimm i) ->
    Buffer.add_string b " #";
    add_decimal b i
  | None -> ());
  match op.Op.addr with
  | None -> ()
  | Some { Op.seg; base; idx; off; sub } ->
    Buffer.add_string b " @";
    Buffer.add_string b seg.Memseg.sname;
    Buffer.add_char b '[';
    (match (base, idx) with
    | Some r, Some r' ->
      vreg_to_buffer b r;
      Buffer.add_char b '+';
      vreg_to_buffer b r'
    | Some r, None | None, Some r -> vreg_to_buffer b r
    | None, None -> ());
    if off >= 0 then Buffer.add_char b '+';
    add_decimal b off;
    Buffer.add_char b ']';
    Option.iter (subscript_to_buffer b) sub

let ctl_to_buffer b ctl =
  let add = Buffer.add_string b in
  let int = add_decimal b in
  let label l =
    add " L";
    int l
  in
  match ctl with
  | Inst.Next -> ()
  | Inst.Halt -> add " halt"
  | Inst.Jump l ->
    add " jump";
    label l
  | Inst.CJump { cond; if_zero; target } ->
    add (if if_zero then " cjump.z " else " cjump.nz ");
    vreg_to_buffer b cond;
    label target
  | Inst.CtrSet { ctr; value } ->
    add " ctr";
    int ctr;
    add " := ";
    int value
  | Inst.CtrSetR { ctr; reg } ->
    add " ctr";
    int ctr;
    add " := ";
    vreg_to_buffer b reg
  | Inst.CtrLoop { ctr; target } ->
    add " ctrloop";
    int ctr;
    label target
  | Inst.CtrJumpLt { ctr; bound; target } ->
    add " if ctr";
    int ctr;
    add " < ";
    int bound;
    add " jump";
    label target

let inst_to_buffer b (i : Inst.t) =
  Buffer.add_char b '[';
  List.iteri
    (fun k op ->
      if k > 0 then Buffer.add_string b "; ";
      op_to_buffer b op)
    i.Inst.ops;
  Buffer.add_char b ']';
  ctl_to_buffer b i.Inst.ctl

let prog_to_buffer b (p : Sp_vliw.Prog.t) =
  Array.iteri
    (fun i inst ->
      if i < 1000 then
        Buffer.add_string b
          (if i < 10 then "   " else if i < 100 then "  " else " ");
      add_decimal b i;
      Buffer.add_string b ": ";
      inst_to_buffer b inst;
      Buffer.add_char b '\n')
    p.Sp_vliw.Prog.code

let prog_to_string p =
  let b = Buffer.create (64 * (Array.length p.Sp_vliw.Prog.code + 1)) in
  prog_to_buffer b p;
  Buffer.contents b

let listing (m : Sp_machine.Machine.t) (p : Program.t) (r : C.result) =
  let b = Buffer.create (64 * (r.C.code_size + 2)) in
  Buffer.add_string b "; ";
  Buffer.add_string b p.Program.name;
  Buffer.add_string b ": ";
  add_decimal b r.C.code_size;
  Buffer.add_string b " instructions for machine ";
  Buffer.add_string b m.Sp_machine.Machine.name;
  Buffer.add_char b '\n';
  prog_to_buffer b r.C.code;
  Buffer.contents b

let fingerprint (r : C.result) =
  let b = Buffer.create (64 * (r.C.code_size + 1)) in
  prog_to_buffer b r.C.code;
  Buffer.add_char b '|';
  List.iteri
    (fun k (lr : C.loop_report) ->
      if k > 0 then Buffer.add_char b ';';
      add_decimal b lr.C.l_id;
      Buffer.add_char b ':';
      (match lr.C.ii with
      | Some s -> add_decimal b s
      | None -> Buffer.add_char b '-');
      Buffer.add_char b ':';
      add_decimal b lr.C.mii;
      Buffer.add_char b ':';
      Buffer.add_string b (C.status_to_string lr.C.status))
    r.C.loops;
  Buffer.contents b

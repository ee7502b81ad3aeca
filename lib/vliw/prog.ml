(** Assembled VLIW programs and the assembler used to build them.

    The assembler hands out symbolic labels, lets the emitter place
    them, and resolves everything to instruction indices in
    {!Asm.finish}. *)

type t = { code : Inst.t array }

let length p = Array.length p.code

(** The listing: one line per word, its index right-aligned in four
    columns. *)
let to_buffer b p =
  for i = 0 to Array.length p.code - 1 do
    if i < 1000 then
      Buffer.add_string b
        (if i < 10 then "   " else if i < 100 then "  " else " ");
    Sp_util.Intmath.add_decimal b i;
    Buffer.add_string b ": ";
    Inst.to_buffer b (Array.unsafe_get p.code i);
    Buffer.add_char b '\n'
  done

(* Each domain renders into one buffer, reused from text to text: a
   buffer sized to a listing would be allocated straight in the major
   heap (it is over 256 words), every time. One that grew past [kept]
   bytes is released. *)
let kept = 1 lsl 20

let buf_key = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let render f =
  let b = Domain.DLS.get buf_key in
  Buffer.clear b;
  f b;
  let s = Buffer.contents b in
  if Buffer.length b > kept then Buffer.reset b;
  s

let to_string p = render (fun b -> to_buffer b p)

let pp ppf p =
  Format.pp_print_string ppf (to_string p);
  Format.pp_print_flush ppf ()

(** Static code-size statistics (Section 2.4 of the paper). *)
let size p = Array.length p.code

(* Field by field, float immediates by their bits: what the listing
   renders of two equal programs is equal. *)
let equal_reg (a : Sp_ir.Vreg.t) (b : Sp_ir.Vreg.t) =
  a == b || (a.id = b.id && a.cls == b.cls && String.equal a.name b.name)

let equal_opt eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | _ -> false

let equal_seg (a : Sp_ir.Memseg.t) (b : Sp_ir.Memseg.t) =
  a == b
  || a.sid = b.sid
     && String.equal a.sname b.sname
     && a.size = b.size && a.elt == b.elt
     && Bool.equal a.independent b.independent

let equal_sub (a : Sp_ir.Subscript.t) (b : Sp_ir.Subscript.t) =
  a.coef = b.coef
  && equal_opt equal_reg a.iv b.iv
  && List.equal Int.equal a.syms b.syms
  && a.off = b.off

let equal_addr (a : Sp_ir.Op.addr) (b : Sp_ir.Op.addr) =
  equal_seg a.seg b.seg
  && equal_opt equal_reg a.base b.base
  && equal_opt equal_reg a.idx b.idx
  && a.off = b.off
  && equal_opt equal_sub a.sub b.sub

let equal_imm (a : Sp_ir.Op.imm) (b : Sp_ir.Op.imm) =
  match (a, b) with
  | Fimm x, Fimm y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Iimm x, Iimm y -> x = y
  | _ -> false

let equal_op (a : Sp_ir.Op.t) (b : Sp_ir.Op.t) =
  a == b
  || a.uid = b.uid
     && (a.kind == b.kind || Sp_machine.Opkind.equal a.kind b.kind)
     && equal_opt equal_reg a.dst b.dst
     && List.equal equal_reg a.srcs b.srcs
     && equal_opt equal_imm a.imm b.imm
     && equal_opt equal_addr a.addr b.addr

let equal_ctl (a : Inst.ctl) (b : Inst.ctl) =
  match (a, b) with
  | Next, Next | Halt, Halt -> true
  | Jump l, Jump l' -> l = l'
  | CJump c, CJump c' ->
    equal_reg c.cond c'.cond && Bool.equal c.if_zero c'.if_zero
    && c.target = c'.target
  | CtrSet c, CtrSet c' -> c.ctr = c'.ctr && c.value = c'.value
  | CtrSetR c, CtrSetR c' -> c.ctr = c'.ctr && equal_reg c.reg c'.reg
  | CtrLoop c, CtrLoop c' -> c.ctr = c'.ctr && c.target = c'.target
  | CtrJumpLt c, CtrJumpLt c' ->
    c.ctr = c'.ctr && c.bound = c'.bound && c.target = c'.target
  | (Next | Halt | Jump _ | CJump _ | CtrSet _ | CtrSetR _ | CtrLoop _
    | CtrJumpLt _), _ ->
    false

let equal a b =
  Array.length a.code = Array.length b.code
  && Array.for_all2
       (fun (x : Inst.t) (y : Inst.t) ->
         List.equal equal_op x.ops y.ops && equal_ctl x.ctl y.ctl)
       a.code b.code

module Asm = struct
  type asm = {
    mutable insts : Inst.t list; (* reversed *)
    mutable n : int;
    mutable labels : (int * int) list;
        (* symbolic label -> index, newest first; placements come at
           non-decreasing indices *)
    mutable next_label : int;
  }

  let create () = { insts = []; n = 0; labels = []; next_label = 0 }

  let fresh_label a =
    let l = a.next_label in
    a.next_label <- l + 1;
    l

  (** Bind [l] to the address of the next instruction emitted. *)
  let place a l = a.labels <- (l, a.n) :: a.labels

  let here a = a.n

  let inst a ?(ctl = Inst.Next) ops =
    a.insts <- { Inst.ops; ctl } :: a.insts;
    a.n <- a.n + 1

  (** Attach [ctl] to the last emitted instruction if its control field
      is free; otherwise emit a fresh instruction carrying it. Used to
      place loop-back branches and join jumps after code whose last
      instruction may already branch (e.g. a conditional ending exactly
      at a construct boundary). *)
  let attach_ctl a ctl =
    (* if a label points at the next address, some branch targets the
       position after the last instruction — the control transfer must
       occupy that position, not piggyback on the previous word. No
       placement is later than the newest. *)
    let label_here =
      match a.labels with (_, i) :: _ -> i = a.n | [] -> false
    in
    match a.insts with
    | ({ Inst.ctl = Inst.Next; _ } as i) :: rest when not label_here ->
      a.insts <- { i with Inst.ctl } :: rest
    | _ -> inst a ~ctl []

  let finish a =
    (* each label's newest placement; -1 when unplaced *)
    let addr = Array.make a.next_label (-1) in
    List.iter (fun (l, i) -> if addr.(l) < 0 then addr.(l) <- i) a.labels;
    let resolve l =
      if l < 0 || l >= a.next_label || addr.(l) < 0 then
        invalid_arg (Printf.sprintf "Asm: unplaced label L%d" l);
      addr.(l)
    in
    let fix (i : Inst.t) =
      match i.ctl with
      | Inst.Next | Inst.Halt | Inst.CtrSet _ | Inst.CtrSetR _ -> i
      | Inst.Jump l -> { i with ctl = Inst.Jump (resolve l) }
      | Inst.CJump c ->
        { i with ctl = Inst.CJump { c with target = resolve c.target } }
      | Inst.CtrLoop c ->
        { i with ctl = Inst.CtrLoop { c with target = resolve c.target } }
      | Inst.CtrJumpLt c ->
        { i with ctl = Inst.CtrJumpLt { c with target = resolve c.target } }
    in
    (* filled from the static [Inst.empty], not built from the list:
       OCaml 5 forces a minor collection to make an array of more than
       256 words from a young element *)
    let code = Array.make a.n Inst.empty in
    List.iteri (fun k i -> code.(a.n - 1 - k) <- fix i) a.insts;
    { code }
end

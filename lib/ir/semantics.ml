(** Operational semantics of individual operations.

    Shared between the sequential reference interpreter ({!Interp}) and
    the cycle-accurate VLIW simulator ({!Sp_vliw.Sim}), so that the two
    agree bit-for-bit and any divergence observed in tests is a
    scheduling bug, not a semantics mismatch. *)

module Opkind = Sp_machine.Opkind

type value = VF of float | VI of int

let pp_value ppf = function
  | VF f -> Fmt.pf ppf "%h" f
  | VI i -> Fmt.pf ppf "%d" i

let equal_value a b =
  match (a, b) with
  | VF x, VF y -> Float.equal x y (* exact, incl. NaN = NaN *)
  | VI x, VI y -> x = y
  | _ -> false

exception Type_error of string

let as_f = function
  | VF f -> f
  | VI _ -> raise (Type_error "expected float register")

let as_i = function
  | VI i -> i
  | VF _ -> raise (Type_error "expected int register")

(** Seed value for reciprocal / reciprocal-square-root: the exact value
    rounded to 8 mantissa bits, modeling a hardware lookup table. *)
let quantize8 x =
  if x = 0. || not (Float.is_finite x) then x
  else
    let m, e = Float.frexp x in
    Float.ldexp (Float.round (m *. 256.) /. 256.) e

let recip_seed x = quantize8 (1.0 /. x)
let rsqrt_seed x = quantize8 (1.0 /. Float.sqrt x)

(** Execution context: how to read registers and access memory and the
    communication channels. The caller owns all timing. *)
type ctx = {
  rd : Vreg.t -> value;
  ld : Memseg.t -> int -> value;
  st : Memseg.t -> int -> value -> unit;
  recv : int -> float;
  send : int -> float -> unit;
}

let addr_reg ctx = function None -> 0 | Some r -> as_i (ctx.rd r)

(** Effective address of a memory operation: sum of the optional base
    and index registers plus the constant offset. *)
let addr ctx (a : Op.addr) =
  addr_reg ctx a.Op.base + addr_reg ctx a.Op.idx + a.Op.off

let bool_i b = VI (if b then 1 else 0)

let frel (r : Opkind.rel) (x : float) (y : float) =
  match r with
  | Opkind.Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let irel (r : Opkind.rel) (x : int) (y : int) =
  match r with
  | Opkind.Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

(* The [n]th source register: no operation has more than three, so
   the usual cases are matched in place rather than walked by a call. *)
let src (op : Op.t) n =
  match (n, op.srcs) with
  | 0, r :: _ | 1, _ :: r :: _ | 2, _ :: _ :: r :: _ -> r
  | _ -> List.nth op.srcs n

let fsrc ctx op n = as_f (ctx.rd (src op n))
let isrc ctx op n = as_i (ctx.rd (src op n))

(** Execute one operation; returns the value to be written to the
    destination register (if the operation has one). Stores, sends and
    nops return [None]. *)
let exec ctx (op : Op.t) : value option =
  match op.kind with
  | Opkind.Fadd -> Some (VF (fsrc ctx op 0 +. fsrc ctx op 1))
  | Fsub -> Some (VF (fsrc ctx op 0 -. fsrc ctx op 1))
  | Fmul -> Some (VF (fsrc ctx op 0 *. fsrc ctx op 1))
  | Fneg -> Some (VF (-.fsrc ctx op 0))
  | Fabs -> Some (VF (Float.abs (fsrc ctx op 0)))
  | Fmin -> Some (VF (Float.min (fsrc ctx op 0) (fsrc ctx op 1)))
  | Fmax -> Some (VF (Float.max (fsrc ctx op 0) (fsrc ctx op 1)))
  | Fcmp r -> Some (bool_i (frel r (fsrc ctx op 0) (fsrc ctx op 1)))
  | Fmov -> Some (VF (fsrc ctx op 0))
  | Fconst -> (
    match op.imm with
    | Some (Op.Fimm x) -> Some (VF x)
    | _ -> raise (Type_error "fconst without float immediate"))
  | Fsel ->
    Some (VF (if isrc ctx op 0 <> 0 then fsrc ctx op 1 else fsrc ctx op 2))
  | Frecs -> Some (VF (recip_seed (fsrc ctx op 0)))
  | Frsqs -> Some (VF (rsqrt_seed (fsrc ctx op 0)))
  | Iadd -> Some (VI (isrc ctx op 0 + isrc ctx op 1))
  | Isub -> Some (VI (isrc ctx op 0 - isrc ctx op 1))
  | Imul -> Some (VI (isrc ctx op 0 * isrc ctx op 1))
  | Iand -> Some (VI (isrc ctx op 0 land isrc ctx op 1))
  | Ior -> Some (VI (isrc ctx op 0 lor isrc ctx op 1))
  | Ixor -> Some (VI (isrc ctx op 0 lxor isrc ctx op 1))
  | Ishl -> Some (VI (isrc ctx op 0 lsl isrc ctx op 1))
  | Ishr -> Some (VI (isrc ctx op 0 asr isrc ctx op 1))
  | Idiv -> Some (VI (isrc ctx op 0 / isrc ctx op 1))
  | Imod -> Some (VI (isrc ctx op 0 mod isrc ctx op 1))
  | Icmp r -> Some (bool_i (irel r (isrc ctx op 0) (isrc ctx op 1)))
  | Imov | Amov -> Some (VI (isrc ctx op 0))
  | Aadd -> Some (VI (isrc ctx op 0 + isrc ctx op 1))
  | Iconst -> (
    match op.imm with
    | Some (Op.Iimm x) -> Some (VI x)
    | _ -> raise (Type_error "iconst without int immediate"))
  | Isel ->
    Some (VI (if isrc ctx op 0 <> 0 then isrc ctx op 1 else isrc ctx op 2))
  | Itof -> Some (VF (float_of_int (isrc ctx op 0)))
  | Ftoi -> Some (VI (int_of_float (fsrc ctx op 0)))
  | Load -> (
    match op.addr with
    | Some a -> Some (ctx.ld a.Op.seg (addr ctx a))
    | None -> raise (Type_error "load without address"))
  | Store -> (
    match op.addr with
    | Some a ->
      ctx.st a.Op.seg (addr ctx a) (ctx.rd (List.hd op.srcs));
      None
    | None -> raise (Type_error "store without address"))
  | Recv ch -> Some (VF (ctx.recv ch))
  | Send ch ->
    ctx.send ch (fsrc ctx op 0);
    None
  | Nop -> None

(** Operational semantics of individual operations.

    Shared between the sequential reference interpreter ({!Interp}) and
    the cycle-accurate VLIW simulators ({!Sp_vliw.Engine}), so that the
    two agree bit-for-bit and any divergence observed in tests is a
    scheduling bug, not a semantics mismatch. An operation is decoded
    once into a flat record; the executor then runs that record on the
    typed register files of a {!Machine_state.t} without allocating.
    This build has no flambda, so every float the executor handles
    stays inside this module: it moves from array to array, never
    through a call that is not inlined. *)

module Opkind = Sp_machine.Opkind
open Machine_state

(* The exponent [Float.frexp] returns for a finite nonzero [x], read
   from the bits: [frexp] returns a tuple, and this must not
   allocate. A subnormal is scaled into the normal range first. *)
let[@inline] biased_exp x =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52)
  land 0x7ff

let[@inline] frexp_exp x =
  let e = biased_exp x in
  if e = 0 then biased_exp (x *. 0x1p54) - 1022 - 54 else e - 1022

(** Seed value for reciprocal / reciprocal-square-root: the exact value
    rounded to 8 mantissa bits, modeling a hardware lookup table. With
    [m, e = frexp x] it is [ldexp (round (m *. 256.) /. 256.) e]; both
    scalings by a power of two are exact, so scaling [x] itself gives
    the same bits. *)
let[@inline] quantize8 x =
  if x = 0. || not (x -. x = 0.) then x
  else
    let e = frexp_exp x in
    Float.ldexp (Float.round (Float.ldexp x (8 - e))) (e - 8)

let recip_seed x = quantize8 (1.0 /. x)
let rsqrt_seed x = quantize8 (1.0 /. Float.sqrt x)

type op = {
  kind : Opkind.t;
  dst : int;
  fres : bool;
  a : int;
  b : int;
  c : int;
  fimm : float;
  iimm : int;
  seg : Memseg.t;
  base : int;
  idx : int;
  off : int;
  src : Op.t;
}

let no_seg =
  { Memseg.sid = -1; sname = ""; size = 0; elt = Memseg.Float_elt;
    independent = false }

let fail (op : Op.t) msg =
  raise (Type_error (Printf.sprintf "%s: %s" (Op.to_string op) msg))

(* The classes of a kind's result and sources; a load's and a store's
   are their segment's. *)
let signature (op : Op.t) =
  let seg () =
    match op.addr with
    | Some { seg = { elt = Memseg.Float_elt; _ }; _ } -> Vreg.F
    | Some { seg = { elt = Memseg.Int_elt; _ }; _ } -> Vreg.I
    | None -> fail op "memory operation without address"
  in
  match op.kind with
  | Opkind.Fadd | Fsub | Fmul | Fmin | Fmax -> Vreg.(Some F, [ F; F ])
  | Fneg | Fabs | Fmov | Frecs | Frsqs -> Vreg.(Some F, [ F ])
  | Fcmp _ -> Vreg.(Some I, [ F; F ])
  | Fconst | Recv _ -> Vreg.(Some F, [])
  | Fsel -> Vreg.(Some F, [ I; F; F ])
  | Iadd | Isub | Imul | Iand | Ior | Ixor | Ishl | Ishr | Idiv | Imod
  | Icmp _ | Aadd ->
    Vreg.(Some I, [ I; I ])
  | Imov | Amov -> Vreg.(Some I, [ I ])
  | Iconst -> Vreg.(Some I, [])
  | Isel -> Vreg.(Some I, [ I; I; I ])
  | Itof -> Vreg.(Some F, [ I ])
  | Ftoi -> Vreg.(Some I, [ F ])
  | Load -> (Some (seg ()), [])
  | Store -> (None, [ seg () ])
  | Send _ -> Vreg.(None, [ F ])
  | Nop -> (None, [])

let reg op cls (v : Vreg.t) =
  if v.cls = cls then v.id
  else
    fail op
      (match cls with
      | Vreg.F -> "expected float register"
      | Vreg.I -> "expected int register")

(* The [k]th source register, of the [k]th class in [classes]. *)
let source op classes k =
  match (List.nth_opt classes k, List.nth_opt op.Op.srcs k) with
  | None, _ -> -1
  | Some cls, Some v -> reg op cls v
  | Some _, None -> fail op "missing source"

let addr_reg op = function None -> -1 | Some v -> reg op Vreg.I v

let decode (op : Op.t) =
  let res, classes = signature op in
  let dst =
    match (res, op.dst) with
    | Some cls, Some d -> reg op cls d
    | None, Some _ -> fail op "destination on an operation with no result"
    | _, None -> -1
  in
  let fimm, iimm =
    match (op.kind, op.imm) with
    | Opkind.Fconst, Some (Op.Fimm x) -> (x, 0)
    | Fconst, _ -> fail op "fconst without float immediate"
    | Iconst, Some (Op.Iimm n) -> (0., n)
    | Iconst, _ -> fail op "iconst without int immediate"
    | _ -> (0., 0)
  in
  let seg, base, idx, off =
    match (op.kind, op.addr) with
    | (Opkind.Load | Store), Some a ->
      (a.seg, addr_reg op a.base, addr_reg op a.idx, a.off)
    | _ -> (no_seg, -1, -1, 0)
  in
  let fres = match res with Some Vreg.F -> true | _ -> false in
  { kind = op.kind; dst; fres; a = source op classes 0;
    b = source op classes 1; c = source op classes 2; fimm; iimm; seg; base;
    idx; off; src = op }

(* What an array of decoded operations starts from, a static constant:
   OCaml 5 forces a minor collection to make an array of more than 256
   words from a young element. *)
let blank =
  { kind = Opkind.Nop; dst = -1; fres = false; a = -1; b = -1; c = -1;
    fimm = 0.; iimm = 0; seg = no_seg; base = -1; idx = -1; off = 0;
    src =
      { Op.uid = -1; kind = Opkind.Nop; dst = None; srcs = []; imm = None;
        addr = None } }

let decode_list ops =
  let a = Array.make (List.length ops) blank in
  List.iteri (fun k op -> a.(k) <- decode op) ops;
  a

(* ---- the executor ---------------------------------------------------- *)

let unwritten () = raise (Type_error "expected float register")

let[@inline] fr st r =
  if Bytes.get st.fset r = '\000' then unwritten ();
  st.f.(r)

let[@inline] addr st op =
  (if op.base < 0 then 0 else st.i.(op.base))
  + (if op.idx < 0 then 0 else st.i.(op.idx))
  + op.off

let out_of_bounds (s : Memseg.t) k =
  raise
    (Out_of_bounds (Printf.sprintf "%s[%d] (size %d)" s.sname k s.size))

let unknown (s : Memseg.t) =
  invalid_arg (Printf.sprintf "Machine_state: unknown segment %s" s.sname)

(* The segment's data, once [k] is within the segment's size. *)
let[@inline] fdata st (s : Memseg.t) k =
  if k < 0 || k >= s.size then out_of_bounds s k;
  match if s.sid < Array.length st.mem then st.mem.(s.sid) else None with
  | Some (SF a) when k < Array.length a -> a
  | _ -> unknown s

let[@inline] idata st (s : Memseg.t) k =
  if k < 0 || k >= s.size then out_of_bounds s k;
  match if s.sid < Array.length st.mem then st.mem.(s.sid) else None with
  | Some (SI a) when k < Array.length a -> a
  | _ -> unknown s

(* Room at the tail of a full queue: its values move to the front of
   the buffer when at least half of it is free, else to one twice
   their number. *)
let grow (q : chan) =
  let n = q.tail - q.head in
  let buf =
    if 2 * n <= Array.length q.buf && n < Array.length q.buf then q.buf
    else Array.make (Int.max 8 (2 * n)) 0.0
  in
  Array.blit q.buf q.head buf 0 n;
  q.buf <- buf;
  q.head <- 0;
  q.tail <- n

let[@inline] bool_i b = if b then 1 else 0

let[@inline] frel (r : Opkind.rel) (x : float) (y : float) =
  match r with
  | Opkind.Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let[@inline] irel (r : Opkind.rel) (x : int) (y : int) =
  match r with
  | Opkind.Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let exec st op =
  let rf = st.res_f and ri = st.res_i and i = st.i in
  match op.kind with
  | Opkind.Fadd -> rf.(0) <- fr st op.a +. fr st op.b
  | Fsub -> rf.(0) <- fr st op.a -. fr st op.b
  | Fmul -> rf.(0) <- fr st op.a *. fr st op.b
  | Fneg -> rf.(0) <- -.fr st op.a
  | Fabs -> rf.(0) <- Float.abs (fr st op.a)
  | Fmin -> rf.(0) <- Float.min (fr st op.a) (fr st op.b)
  | Fmax -> rf.(0) <- Float.max (fr st op.a) (fr st op.b)
  | Fcmp r -> ri.(0) <- bool_i (frel r (fr st op.a) (fr st op.b))
  | Fmov -> rf.(0) <- fr st op.a
  | Fconst -> rf.(0) <- op.fimm
  | Fsel -> rf.(0) <- (if i.(op.a) <> 0 then fr st op.b else fr st op.c)
  | Frecs -> rf.(0) <- quantize8 (1.0 /. fr st op.a)
  | Frsqs -> rf.(0) <- quantize8 (1.0 /. Float.sqrt (fr st op.a))
  | Iadd | Aadd -> ri.(0) <- i.(op.a) + i.(op.b)
  | Isub -> ri.(0) <- i.(op.a) - i.(op.b)
  | Imul -> ri.(0) <- i.(op.a) * i.(op.b)
  | Iand -> ri.(0) <- i.(op.a) land i.(op.b)
  | Ior -> ri.(0) <- i.(op.a) lor i.(op.b)
  | Ixor -> ri.(0) <- i.(op.a) lxor i.(op.b)
  | Ishl -> ri.(0) <- i.(op.a) lsl i.(op.b)
  | Ishr -> ri.(0) <- i.(op.a) asr i.(op.b)
  | Idiv -> ri.(0) <- i.(op.a) / i.(op.b)
  | Imod -> ri.(0) <- i.(op.a) mod i.(op.b)
  | Icmp r -> ri.(0) <- bool_i (irel r i.(op.a) i.(op.b))
  | Imov | Amov -> ri.(0) <- i.(op.a)
  | Iconst -> ri.(0) <- op.iimm
  | Isel -> ri.(0) <- (if i.(op.a) <> 0 then i.(op.b) else i.(op.c))
  | Itof -> rf.(0) <- float_of_int i.(op.a)
  | Ftoi -> ri.(0) <- int_of_float (fr st op.a)
  | Load -> (
    let k = addr st op in
    match op.seg.elt with
    | Memseg.Float_elt -> rf.(0) <- (fdata st op.seg k).(k)
    | Memseg.Int_elt -> ri.(0) <- (idata st op.seg k).(k))
  | Store -> (
    let k = addr st op in
    match op.seg.elt with
    | Memseg.Float_elt ->
      let a = fdata st op.seg k in
      a.(k) <- fr st op.a
    | Memseg.Int_elt ->
      let a = idata st op.seg k in
      a.(k) <- i.(op.a))
  | Recv ch ->
    let q = st.rx.(ch) in
    if q.head = q.tail then raise (Channel_empty ch);
    rf.(0) <- q.buf.(q.head);
    q.head <- q.head + 1
  | Send ch ->
    let q = st.tx.(ch) in
    if q.tail = Array.length q.buf then grow q;
    q.buf.(q.tail) <- fr st op.a;
    q.tail <- q.tail + 1
  | Nop -> ()

let run st op =
  exec st op;
  if op.dst >= 0 then
    if op.fres then begin
      st.f.(op.dst) <- st.res_f.(0);
      Bytes.set st.fset op.dst '\001'
    end
    else st.i.(op.dst) <- st.res_i.(0)

(** Operation kinds understood by the machine model.

    These are the micro-operations of the target datapath. Each kind is
    mapped by a {!Machine.t} to a latency and a resource reservation.
    The IR ({!module:Sp_ir}) attaches operands to these kinds. *)

type rel = Eq | Ne | Lt | Le | Gt | Ge

let negate_rel = function
  | Eq -> Ne | Ne -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt

let string_of_rel = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

type t =
  (* floating point *)
  | Fadd | Fsub | Fmul
  | Fneg | Fabs
  | Fmin | Fmax
  | Fcmp of rel              (** produces an int (0/1) in an I register *)
  | Fmov                     (** FP register move (runs on the adder) *)
  | Fconst                   (** load FP immediate *)
  | Fsel                     (** select: dst = if src0 <> 0 then src1 else src2 *)
  | Frecs                    (** reciprocal seed (table lookup), ~1/17 rel. error *)
  | Frsqs                    (** reciprocal-square-root seed, ~1/16 rel. error *)
  (* integer ALU *)
  | Iadd | Isub | Imul
  | Iand | Ior | Ixor | Ishl | Ishr
  | Idiv | Imod
      (** iterative integer divide/modulo; used only in loop-setup code
          for runtime trip counts, never inside pipelined kernels *)
  | Icmp of rel
  | Imov | Iconst
  | Isel
  | Itof | Ftoi
  (* address generation: the synthesized induction-variable copy and
     update run on the dedicated address unit, as on Warp, so loop
     bookkeeping does not compete with user integer arithmetic *)
  | Amov | Aadd
  (* memory *)
  | Load                     (** data-memory read *)
  | Store                    (** data-memory write; no destination *)
  (* inter-cell communication queues *)
  | Recv of int              (** dequeue from input channel [n] *)
  | Send of int              (** enqueue to output channel [n] *)
  | Nop

let equal (a : t) (b : t) = a = b

(** Channels {!dense} covers: the Warp cell's two input and two output
    queues. *)
let dense_channels = 2

let rel_index = function
  | Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

(** The kinds a machine table indexes densely, in {!index} order: every
    kind without an argument, both compares at each relation, and
    receives and sends on the first {!dense_channels} channels. *)
let dense =
  let rels = [ Eq; Ne; Lt; Le; Gt; Ge ] in
  Array.of_list
    ([ Fadd; Fsub; Fmul; Fneg; Fabs; Fmin; Fmax; Fmov; Fconst; Fsel; Frecs;
       Frsqs; Iadd; Isub; Imul; Iand; Ior; Ixor; Ishl; Ishr; Idiv; Imod;
       Imov; Iconst; Isel; Itof; Ftoi; Amov; Aadd; Load; Store; Nop ]
    @ List.map (fun r -> Fcmp r) rels
    @ List.map (fun r -> Icmp r) rels
    @ List.init dense_channels (fun c -> Recv c)
    @ List.init dense_channels (fun c -> Send c))

(** Position of a kind in {!dense}, or [-1] for a channel beyond
    {!dense_channels}. *)
let index = function
  | Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fneg -> 3 | Fabs -> 4 | Fmin -> 5
  | Fmax -> 6 | Fmov -> 7 | Fconst -> 8 | Fsel -> 9 | Frecs -> 10
  | Frsqs -> 11 | Iadd -> 12 | Isub -> 13 | Imul -> 14 | Iand -> 15
  | Ior -> 16 | Ixor -> 17 | Ishl -> 18 | Ishr -> 19 | Idiv -> 20
  | Imod -> 21 | Imov -> 22 | Iconst -> 23 | Isel -> 24 | Itof -> 25
  | Ftoi -> 26 | Amov -> 27 | Aadd -> 28 | Load -> 29 | Store -> 30
  | Nop -> 31
  | Fcmp r -> 32 + rel_index r
  | Icmp r -> 38 + rel_index r
  | Recv c -> if c >= 0 && c < dense_channels then 44 + c else -1
  | Send c -> if c >= 0 && c < dense_channels then 46 + c else -1

let name_of = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul"
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

(* the names of {!dense}, in {!index} order: a listing names a kind
   without building a string *)
let names = Array.map name_of dense

let to_string k =
  let i = index k in
  if i >= 0 then Array.unsafe_get names i else name_of k

let pp ppf k = Fmt.string ppf (to_string k)

(** Does this operation count as one floating-point operation for MFLOPS
    accounting? (Same convention as the paper: adds and multiplies — the
    expanded INVERSE/SQRT sequences count their seeds too; compares,
    moves and selects do not count.) *)
let is_flop = function
  | Fadd | Fsub | Fmul | Frecs | Frsqs -> true
  | _ -> false

(** Number of register sources the kind expects. *)
let arity = function
  | Fconst | Iconst | Nop | Recv _ -> 0
  | Fneg | Fabs | Fmov | Itof | Ftoi | Send _ | Frecs | Frsqs | Imov
  | Amov -> 1
  | Fadd | Fsub | Fmul | Fmin | Fmax | Fcmp _
  | Iadd | Isub | Imul | Iand | Ior | Ixor | Ishl | Ishr | Idiv | Imod
  | Aadd | Icmp _ -> 2
  | Fsel | Isel -> 3
  | Load -> 0   (* address operands are carried separately *)
  | Store -> 1  (* the stored value; address operands are separate *)

(** Does the kind produce a result register? *)
let has_dst = function
  | Store | Send _ | Nop -> false
  | _ -> true

(** Register class of the destination, when there is one. *)
let dst_is_float = function
  | Fadd | Fsub | Fmul | Fneg | Fabs | Fmin | Fmax | Fmov | Fconst | Fsel
  | Frecs | Frsqs | Itof -> true
  | Load -> true (* loads of int arrays use [Ftoi] afterwards; see Sp_ir *)
  | _ -> false

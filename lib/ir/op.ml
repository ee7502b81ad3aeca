(** IR micro-operations.

    An operation is a machine {!Sp_machine.Opkind.t} with register
    operands, an optional immediate, and — for memory operations — an
    address. These are the "minimally indivisible sequences of
    micro-instructions" of the paper's Section 2.1: the scheduler never
    splits one, and the machine description gives each a multi-cycle
    resource reservation and a result latency. *)

module Opkind = Sp_machine.Opkind

type imm = Fimm of float | Iimm of int

(** A data-memory address: [seg\[base + idx + off\]] where [base] and
    [idx] are optional registers. [sub] is the semantic subscript used
    by dependence analysis; the register operands define what the
    hardware actually computes. *)
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

(** Registers read at issue time: the sources, plus address registers of
    memory operations. *)
let reads op =
  match op.addr with
  | None -> op.srcs
  | Some { base; idx; _ } ->
    op.srcs @ List.filter_map (fun x -> x) [ base; idx ]

let writes op = match op.dst with None -> [] | Some d -> [ d ]

(** Apply a register substitution to all operands (sources, destination
    and address registers). The uid is preserved: a renamed copy is the
    same operation for dependence purposes. *)
let map_regs f op =
  let addr =
    Option.map
      (fun a -> { a with base = Option.map f a.base; idx = Option.map f a.idx })
      op.addr
  in
  { op with dst = Option.map f op.dst; srcs = List.map f op.srcs; addr }

let is_store op = match op.kind with Opkind.Store -> true | _ -> false
let is_flop op = Opkind.is_flop op.kind

(* The C primitive behind [Printf.sprintf "%g"]: Printf's [%g] is
   [format_float "%.6g"] (CamlinternalFormat's [convert_float]), so the
   texts are the same, but a call allocates only its result, about 4
   words against Printf's 55. *)
external format_float : string -> float -> string = "caml_format_float"

let rec add_srcs b = function
  | [] -> ()
  | s :: rest ->
    Buffer.add_char b ' ';
    Vreg.to_buffer b s;
    add_srcs b rest

(** The listing form, e.g.
    [%f7 <- fadd %f3 %f5] or [store %f7 @y[%i2+0][1*%i2+0]]. *)
let to_buffer b op =
  (match op.dst with
  | Some d ->
    Vreg.to_buffer b d;
    Buffer.add_string b " <- "
  | None -> ());
  Buffer.add_string b (Opkind.to_string op.kind);
  add_srcs b op.srcs;
  (match op.imm with
  | Some (Fimm f) ->
    Buffer.add_string b " #";
    Buffer.add_string b (format_float "%.6g" f)
  | Some (Iimm i) ->
    Buffer.add_string b " #";
    Sp_util.Intmath.add_decimal b i
  | None -> ());
  match op.addr with
  | None -> ()
  | Some { seg; base; idx; off; sub } -> (
    Buffer.add_string b " @";
    Buffer.add_string b seg.Memseg.sname;
    Buffer.add_char b '[';
    (match (base, idx) with
    | Some r, Some r' ->
      Vreg.to_buffer b r;
      Buffer.add_char b '+';
      Vreg.to_buffer b r'
    | Some r, None | None, Some r -> Vreg.to_buffer b r
    | None, None -> ());
    if off >= 0 then Buffer.add_char b '+';
    Sp_util.Intmath.add_decimal b off;
    Buffer.add_char b ']';
    match sub with None -> () | Some s -> Subscript.to_buffer b s)

let to_string op =
  let b = Buffer.create 48 in
  to_buffer b op;
  Buffer.contents b

let pp ppf op = Format.pp_print_string ppf (to_string op)

(** Operation supply: uids are dense per program so passes can use
    arrays indexed by uid. *)
module Supply = struct
  type supply = { mutable next : int }

  let create () = { next = 0 }
  let count s = s.next
  let copy s = { next = s.next }

  let mk s ?dst ?(srcs = []) ?imm ?addr kind =
    let uid = s.next in
    s.next <- uid + 1;
    { uid; kind; dst; srcs; imm; addr }
end

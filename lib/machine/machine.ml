(** Parametric VLIW machine descriptions.

    A machine is a set of {e resources} (functional-unit issue slots,
    memory ports, the sequencer, …), a mapping from {!Opkind.t} to a
    latency and a {e reservation} (which resources the operation holds,
    at which cycle offsets relative to issue), register-file capacities,
    and a clock rate for MFLOPS accounting.

    All scheduling in {!module:Sp_core} is expressed against this
    interface, so the same pipeliner drives the Warp-like cell of the
    paper, the toy machine of the paper's Section 2 example, and the
    scaled datapaths used for the Section 6 scalability experiment. *)

type resource = {
  rid : int;          (** dense index, [0 .. num_resources-1] *)
  rname : string;
  count : int;        (** available units per instruction *)
}

(** A reservation: the resource units an operation occupies, as
    [(cycle offset relative to issue, resource id)] pairs. Most units
    are fully pipelined and appear only at offset 0. *)
type reservation = (int * int) list

type opinfo = {
  latency : int;          (** result readable [latency] cycles after issue *)
  reservation : reservation;
}

type t = {
  name : string;
  resources : resource array;
  info : Opkind.t -> opinfo;
  clock_mhz : float;          (** for MFLOPS accounting *)
  fregs : int;                (** FP register-file capacity *)
  iregs : int;                (** integer register-file capacity *)
}

let num_resources m = Array.length m.resources
let resource m rid = m.resources.(rid)

let find_resource m name =
  match
    Array.find_opt (fun r -> String.equal r.rname name) m.resources
  with
  | Some r -> r
  | None ->
    invalid_arg
      (Printf.sprintf "Machine.find_resource: no resource %S in %s" name
         m.name)

let latency m k = (m.info k).latency
let reservation m k = (m.info k).reservation

(** Seconds per cycle. *)
let cycle_time m = 1e-6 /. m.clock_mhz

(** MFLOPS for [flops] floating-point operations over [cycles] cycles. *)
let mflops m ~flops ~cycles =
  if cycles = 0 then 0.
  else float_of_int flops /. (float_of_int cycles /. m.clock_mhz)

(* ------------------------------------------------------------------ *)
(* Description builder                                                *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable rs : resource list;  (* reversed *)
  mutable next : int;
  tbl : (Opkind.t, opinfo) Hashtbl.t;
  mutable dflt : (Opkind.t -> opinfo) option;
}

let builder () =
  { rs = []; next = 0; tbl = Hashtbl.create ~random:false 31; dflt = None }

let add_resource b ~name ~count =
  let r = { rid = b.next; rname = name; count } in
  b.rs <- r :: b.rs;
  b.next <- b.next + 1;
  r

let def_op b kind ~latency ~reservation =
  Hashtbl.replace b.tbl kind { latency; reservation }

let def_default b f = b.dflt <- Some f

let seal b ~name ~clock_mhz ~fregs ~iregs =
  let resources = Array.of_list (List.rev b.rs) in
  let info k =
    match Hashtbl.find_opt b.tbl k with
    | Some i -> i
    | None -> (
      match b.dflt with
      | Some f -> f k
      | None ->
        invalid_arg
          (Printf.sprintf "Machine %s: no opinfo for %s" name
             (Opkind.to_string k)))
  in
  { name; resources; info; clock_mhz; fregs; iregs }

(* ------------------------------------------------------------------ *)
(* The Warp-like cell                                                 *)
(* ------------------------------------------------------------------ *)

(** A Warp-like cell (Annaratone et al. 1987, as summarized in the
    paper): a 5-stage pipelined floating-point multiplier and adder
    whose results, through the 2-cycle register-file delay, appear
    7 cycles after issue; an integer ALU; a single-ported data memory;
    two input and two output communication queues; and a sequencer.
    Peak rate 10 MFLOPS at a 5 MHz clock (one add and one multiply per
    cycle).

    [width] scales the number of adders, multipliers, ALUs and memory
    ports, for the scalability experiment of the paper's Section 6. *)
let warp_scaled ~width =
  if width < 1 then invalid_arg "Machine.warp_scaled: width < 1";
  let b = builder () in
  let fadd = add_resource b ~name:"fadd" ~count:width in
  let fmul = add_resource b ~name:"fmul" ~count:width in
  let alu = add_resource b ~name:"alu" ~count:width in
  let mem = add_resource b ~name:"mem" ~count:width in
  let agu = add_resource b ~name:"agu" ~count:(2 * width) in
  let qin0 = add_resource b ~name:"qin0" ~count:1 in
  let qin1 = add_resource b ~name:"qin1" ~count:1 in
  let qout0 = add_resource b ~name:"qout0" ~count:1 in
  let qout1 = add_resource b ~name:"qout1" ~count:1 in
  let seq = add_resource b ~name:"seq" ~count:1 in
  ignore seq;
  let on r lat k = def_op b k ~latency:lat ~reservation:[ (0, r.rid) ] in
  (* adder pipeline: 5 stages + 2-cycle register-file delay *)
  List.iter (on fadd 7)
    [ Opkind.Fadd; Fsub; Fmin; Fmax; Fneg; Fabs; Fmov; Fsel; Frecs; Frsqs ];
  List.iter (fun rel -> on fadd 7 (Opkind.Fcmp rel))
    [ Opkind.Eq; Ne; Lt; Le; Gt; Ge ];
  on fmul 7 Opkind.Fmul;
  List.iter (on alu 1)
    [ Opkind.Iadd; Isub; Imul; Iand; Ior; Ixor; Ishl; Ishr; Imov; Iconst;
      Isel; Itof; Ftoi; Fconst ];
  List.iter (on alu 17) [ Opkind.Idiv; Imod ];
  List.iter (on agu 1) [ Opkind.Amov; Aadd ];
  List.iter (fun rel -> on alu 1 (Opkind.Icmp rel))
    [ Opkind.Eq; Ne; Lt; Le; Gt; Ge ];
  on mem 3 Opkind.Load;
  def_op b Opkind.Store ~latency:0 ~reservation:[ (0, mem.rid) ];
  def_op b (Opkind.Recv 0) ~latency:1 ~reservation:[ (0, qin0.rid) ];
  def_op b (Opkind.Recv 1) ~latency:1 ~reservation:[ (0, qin1.rid) ];
  def_op b (Opkind.Send 0) ~latency:0 ~reservation:[ (0, qout0.rid) ];
  def_op b (Opkind.Send 1) ~latency:0 ~reservation:[ (0, qout1.rid) ];
  def_op b Opkind.Nop ~latency:0 ~reservation:[];
  let name = if width = 1 then "warp" else Printf.sprintf "warp%dx" width in
  (* two 31-word FP files (adder + multiplier) and a 64-word ALU file,
     replicated with the datapath when scaling *)
  seal b ~name ~clock_mhz:5.0 ~fregs:(62 * width) ~iregs:(64 * width)

let warp = warp_scaled ~width:1

(* ------------------------------------------------------------------ *)
(* The toy machine of the paper's Section 2 example                   *)
(* ------------------------------------------------------------------ *)

(** The datapath of the worked example in Section 2 of the paper:
    a memory read port, a one-stage-pipelined adder whose result is
    written two cycles after issue, and a memory write port, all
    independently controllable. An iteration of [a(i) := a(i) + K]
    occupies one instruction on each of read/add/write, and the loop
    pipelines with an initiation interval of 1. *)
let toy =
  let b = builder () in
  let rd = add_resource b ~name:"rd" ~count:1 in
  let add = add_resource b ~name:"add" ~count:1 in
  let wr = add_resource b ~name:"wr" ~count:1 in
  let alu = add_resource b ~name:"alu" ~count:1 in
  let agu = add_resource b ~name:"agu" ~count:2 in
  let seq = add_resource b ~name:"seq" ~count:1 in
  ignore seq;
  let on r lat k = def_op b k ~latency:lat ~reservation:[ (0, r.rid) ] in
  on rd 1 Opkind.Load;
  def_op b Opkind.Store ~latency:0 ~reservation:[ (0, wr.rid) ];
  List.iter (on add 2)
    [ Opkind.Fadd; Fsub; Fmul; Fmin; Fmax; Fneg; Fabs; Fmov; Fsel; Frecs;
      Frsqs ];
  List.iter (fun rel -> on add 2 (Opkind.Fcmp rel))
    [ Opkind.Eq; Ne; Lt; Le; Gt; Ge ];
  List.iter (on alu 1)
    [ Opkind.Iadd; Isub; Imul; Iand; Ior; Ixor; Ishl; Ishr; Imov; Iconst;
      Isel; Itof; Ftoi; Fconst ];
  List.iter (on alu 17) [ Opkind.Idiv; Imod ];
  List.iter (on agu 1) [ Opkind.Amov; Aadd ];
  List.iter (fun rel -> on alu 1 (Opkind.Icmp rel))
    [ Opkind.Eq; Ne; Lt; Le; Gt; Ge ];
  def_op b (Opkind.Recv 0) ~latency:1 ~reservation:[ (0, rd.rid) ];
  def_op b (Opkind.Recv 1) ~latency:1 ~reservation:[ (0, rd.rid) ];
  def_op b (Opkind.Send 0) ~latency:0 ~reservation:[ (0, wr.rid) ];
  def_op b (Opkind.Send 1) ~latency:0 ~reservation:[ (0, wr.rid) ];
  def_op b Opkind.Nop ~latency:0 ~reservation:[];
  seal b ~name:"toy" ~clock_mhz:10.0 ~fregs:32 ~iregs:32

(* ------------------------------------------------------------------ *)
(* A strictly sequential machine, for baseline sanity checks           *)
(* ------------------------------------------------------------------ *)

(** One universal issue slot, unit latencies: an entirely sequential
    processor. Useful in tests: any legal schedule on [serial] is a
    permutation of the operations, one per cycle. *)
let serial =
  let b = builder () in
  let u = add_resource b ~name:"u" ~count:1 in
  let seq = add_resource b ~name:"seq" ~count:1 in
  ignore seq;
  def_default b (fun k ->
      match k with
      | Opkind.Nop -> { latency = 0; reservation = [] }
      | Opkind.Store | Opkind.Send _ ->
        { latency = 0; reservation = [ (0, u.rid) ] }
      | _ -> { latency = 1; reservation = [ (0, u.rid) ] });
  seal b ~name:"serial" ~clock_mhz:10.0 ~fregs:1024 ~iregs:1024

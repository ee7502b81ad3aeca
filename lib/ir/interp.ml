(** Sequential reference interpreter.

    Executes the IR in program order, one operation at a time, with no
    notion of latency or resources. This is the golden semantics every
    schedule must preserve: tests run a program through {!run} and
    through the VLIW simulator and require
    {!Machine_state.observably_equal} final states.

    The interpreter also reports the floating-point operation count
    (the MFLOPS numerator) and the dynamic operation count. The region
    tree is decoded once per run ({!Semantics.decode_list}), so the
    walk itself allocates nothing. *)

type result = {
  state : Machine_state.t;
  flops : int;      (** dynamic count of floating-point operations *)
  dyn_ops : int;    (** dynamic count of all operations *)
}

exception Unbound_trip_count of string

(* A decoded region: register operands are I-file ids. *)
type node =
  | Ops of { ops : Semantics.op array; flops : int }
  | Seq of node array
  | If of { cond : int; then_ : node; else_ : node }
  | For of { iv : int; trip : int; reg : bool; body : node }
      (** [trip] is the count, or with [reg] the register holding it *)

let int_reg (v : Vreg.t) what =
  match v.cls with
  | Vreg.I -> v.id
  | Vreg.F -> raise (Machine_state.Type_error what)

let rec decode (r : Region.t) =
  match r with
  | Region.Ops ops ->
    let flops =
      List.fold_left (fun n op -> n + Bool.to_int (Op.is_flop op)) 0 ops
    in
    Ops { ops = Semantics.decode_list ops; flops }
  | Region.Seq rs -> Seq (Array.of_list (List.map decode rs))
  | Region.If { cond; then_; else_ } ->
    let cond = int_reg cond "float condition register" in
    If { cond; then_ = decode then_; else_ = decode else_ }
  | Region.For { iv; n; body } ->
    let iv = int_reg iv "float induction variable" in
    let trip, reg =
      match n with
      | Region.Const k -> (k, false)
      | Region.Reg v -> (
        match v.Vreg.cls with
        | Vreg.I -> (v.Vreg.id, true)
        | Vreg.F -> raise (Unbound_trip_count "trip count in float register"))
    in
    For { iv; trip; reg; body = decode body }

let run ?(channels = 2) ?(inputs = []) ?(init = fun (_ : Machine_state.t) -> ())
    (p : Program.t) : result =
  let st = Machine_state.create ~channels ~regs:(Program.num_vregs p) p in
  List.iteri (fun ch xs -> Machine_state.set_input st ch xs) inputs;
  init st;
  let tree = decode p.body in
  let flops = ref 0 and dyn = ref 0 in
  let ints = st.Machine_state.i in
  let rec go = function
    | Ops { ops; flops = f } ->
      dyn := !dyn + Array.length ops;
      flops := !flops + f;
      for k = 0 to Array.length ops - 1 do
        Semantics.run st ops.(k)
      done
    | Seq rs ->
      for k = 0 to Array.length rs - 1 do
        go rs.(k)
      done
    | If { cond; then_; else_ } ->
      go (if ints.(cond) <> 0 then then_ else else_)
    | For { iv; trip; reg; body } ->
      let n = if reg then ints.(trip) else trip in
      for i = 0 to n - 1 do
        ints.(iv) <- i;
        go body
      done
  in
  go tree;
  { state = st; flops = !flops; dyn_ops = !dyn }

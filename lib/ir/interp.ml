(** Sequential reference interpreter.

    Executes the IR in program order, one operation at a time, with no
    notion of latency or resources. This is the golden semantics every
    schedule must preserve: tests run a program through {!run} and
    through the VLIW simulator and require
    {!Machine_state.observably_equal} final states.

    The interpreter also reports the floating-point operation count
    (the MFLOPS numerator) and the dynamic operation count. *)

type result = {
  state : Machine_state.t;
  flops : int;      (** dynamic count of floating-point operations *)
  dyn_ops : int;    (** dynamic count of all operations *)
}

exception Unbound_trip_count of string

let run ?(channels = 2) ?(inputs = []) ?(init = fun (_ : Machine_state.t) -> ())
    (p : Program.t) : result =
  let st = Machine_state.create ~channels ~regs:(Program.num_vregs p) p in
  List.iteri (fun ch xs -> Machine_state.set_input st ch xs) inputs;
  init st;
  let ctx = Machine_state.ctx st in
  let flops = ref 0 and dyn = ref 0 in
  let exec_op (op : Op.t) =
    incr dyn;
    if Op.is_flop op then incr flops;
    match (Semantics.exec ctx op, op.dst) with
    | Some v, Some d -> Machine_state.write st d v
    | None, None -> ()
    | Some _, None -> ()
    | None, Some _ ->
      raise (Semantics.Type_error "operation with dst produced no value")
  in
  let trip (n : Region.bound) =
    match n with
    | Region.Const k -> k
    | Region.Reg v -> (
      match Machine_state.read st v with
      | Semantics.VI k -> k
      | Semantics.VF _ ->
        raise (Unbound_trip_count "trip count in float register"))
  in
  let rec go (r : Region.t) =
    match r with
    | Region.Ops ops -> List.iter exec_op ops
    | Region.Seq rs -> List.iter go rs
    | Region.If { cond; then_; else_ } -> (
      match Machine_state.read st cond with
      | Semantics.VI 0 -> go else_
      | Semantics.VI _ -> go then_
      | Semantics.VF _ ->
        raise (Semantics.Type_error "float condition register"))
    | Region.For { iv; n; body } ->
      let n = trip n in
      for i = 0 to n - 1 do
        Machine_state.write st iv (Semantics.VI i);
        go body
      done
  in
  go p.body;
  { state = st; flops = !flops; dyn_ops = !dyn }

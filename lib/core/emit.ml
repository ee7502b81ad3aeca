(* Code emission: scheduled fragments to VLIW instructions, the layout
   the interface describes. *)

open Sp_ir
open Sp_machine
module Asm = Sp_vliw.Prog.Asm
module Inst = Sp_vliw.Inst

let payload_len = function
  | Sunit.P_op _ -> 1
  | Sunit.P_if { then_; else_; _ } ->
    1 + Int.max (Array.length then_) (Array.length else_)
  | Sunit.P_loop { prolog; epilog; _ } ->
    Array.length prolog + 1 + Array.length epilog

(* ------------------------------------------------------------------ *)
(* Fragment emission                                                   *)
(* ------------------------------------------------------------------ *)

let no_extras : Op.t list array = [||]

let identity_rename (r : Vreg.t) = r

(* Renamed operations: under [identity_rename], the operations
   themselves, not copies. *)
let map_ops rename ops =
  if rename == identity_rename then ops else List.map (Op.map_regs rename) ops

(* [window from], ..., [window (from + n - 1)], made from the immediate
   [[]] and filled: OCaml 5 forces a minor collection to make an array
   of more than 256 words from a young element *)
let windows window from n =
  let a = Array.make n [] in
  for j = 0 to n - 1 do
    a.(j) <- window (from + j)
  done;
  a

let () = Sp_util.Fault.register "emit.kernel"

let rec emit_slots asm ~rename ~depth (frag : Sunit.frag)
    ~(extras : Op.t list array) =
  let n = Array.length frag in
  let ex k = if k < Array.length extras then extras.(k) else [] in
  (* parent-level operations occupying relative slot [j] of the
     construct that starts at slot [!k] *)
  let k = ref 0 in
  while !k < n do
    let slot = frag.(!k) in
    match slot.Sunit.sctl with
    | None ->
      let ops = slot.Sunit.sops and extra = ex !k in
      Asm.inst asm
        (if rename == identity_rename then List.rev_append ops extra
         else List.rev_map (Op.map_regs rename) ops @ map_ops rename extra);
      incr k
    | Some p ->
      let len = payload_len p in
      let window j =
        let kk = !k + j in
        if kk >= n then ex kk
        else begin
          (match frag.(kk).Sunit.sctl with
          | Some _ when j > 0 ->
            invalid_arg "Emit: overlapping control constructs"
          | _ -> ());
          List.rev frag.(kk).Sunit.sops @ ex kk
        end
      in
      (match p with
      | Sunit.P_op _ ->
        invalid_arg "Emit: simple operation stored as control payload"
      | Sunit.P_if { cond; then_; else_ } ->
        emit_diamond asm ~rename ~depth ~cond ~then_ ~else_ ~window ~len
      | Sunit.P_loop { prolog; epilog; mid } ->
        let plen = Array.length prolog and elen = Array.length epilog in
        emit_slots asm ~rename ~depth prolog ~extras:(windows window 0 plen);
        (match window plen with
        | [] -> ()
        | _ ->
          invalid_arg "Emit: operations scheduled into a loop's steady state");
        mid.Sunit.emit_mid ~rename ~depth asm;
        emit_slots asm ~rename ~depth epilog
          ~extras:(windows window (plen + 1) elen));
      k := !k + len
  done

and emit_diamond asm ~rename ~depth ~cond ~then_ ~else_ ~window ~len =
  let lb = len - 1 in
  (* emission only reads slots, so every padded position can share
     [Sunit.blank] *)
  let pad f =
    let p = Array.make lb Sunit.blank in
    Array.blit f 0 p 0 (Int.min lb (Array.length f));
    p
  in
  let l_else = Asm.fresh_label asm in
  let l_end = Asm.fresh_label asm in
  Asm.inst asm
    ~ctl:(Inst.CJump { cond = rename cond; if_zero = true; target = l_else })
    (map_ops rename (window 0));
  let branch_extras = windows window 1 lb in
  emit_slots asm ~rename ~depth (pad then_) ~extras:branch_extras;
  Asm.attach_ctl asm (Inst.Jump l_end);
  Asm.place asm l_else;
  emit_slots asm ~rename ~depth (pad else_) ~extras:branch_extras;
  Asm.place asm l_end

(* ------------------------------------------------------------------ *)
(* Fragment construction from schedules                                *)
(* ------------------------------------------------------------------ *)

(* Place [payload] — a unit's own, or a renamed copy — at slot [t] of
   [frag]. Only [frag.(t)] is written: nothing writes into a payload's
   nested fragments after construction, so one payload may be shared
   by its unit and every fragment it is placed in. *)
let place frag payload ~t =
  match payload with
  | Sunit.P_op op -> frag.(t).Sunit.sops <- op :: frag.(t).Sunit.sops
  | p ->
    (match frag.(t).Sunit.sctl with
    | Some _ -> invalid_arg "Emit.place: two constructs in one slot"
    | None -> frag.(t).Sunit.sctl <- Some p)

(* a reservation placed at [t], consed onto [acc] entry by entry *)
let rec resv_onto acc ~t = function
  | [] -> acc
  | (o, r) :: rest -> resv_onto ((t + o, r) :: acc) ~t rest

let seq_frag (units : Sunit.t array) (p : Listsched.placement) ~r_len :
    Sunit.frag =
  let frag = Sunit.empty_frag (Int.max 1 r_len) in
  Array.iteri
    (fun i (u : Sunit.t) -> place frag u.Sunit.payload ~t:p.Listsched.times.(i))
    units;
  frag

let seq_resv (units : Sunit.t array) (p : Listsched.placement) =
  let acc = ref [] in
  Array.iteri
    (fun i (u : Sunit.t) ->
      acc := resv_onto !acc ~t:p.Listsched.times.(i) u.Sunit.resv)
    units;
  !acc

type pipe_frags = {
  f_prolog : Sunit.frag;
  f_kernel : Sunit.frag;
  f_epilog : Sunit.frag;
  prolog_resv : (int * int) list;
  epilog_resv : (int * int) list;
  sc : int;
  unroll : int;
}

let pipe_frags (units : Sunit.t array) (sched : Modsched.schedule)
    (mve : Mve.t) : pipe_frags =
  Sp_util.Fault.point "emit.kernel";
  let s = sched.Modsched.s in
  let sc = sched.Modsched.sc in
  let u = mve.Mve.unroll in
  let p_len = (sc - 1) * s in
  let e_len = Int.max 0 (sched.Modsched.span - s) in
  let f_prolog = Sunit.empty_frag (Int.max 1 p_len) in
  let f_kernel = Sunit.empty_frag (u * s) in
  let f_epilog = Sunit.empty_frag (Int.max 1 e_len) in
  let p_resv = ref [] and e_resv = ref [] in
  let rename = Mve.rename mve in
  Array.iteri
    (fun x (unit_ : Sunit.t) ->
      let sigma = sched.Modsched.times.(x) in
      let renamed iter =
        Sunit.subst_payload (rename ~iter) unit_.Sunit.payload
      in
      (* prolog: iterations whose instance falls before the steady state *)
      let i = ref 0 in
      while sigma + (!i * s) < p_len do
        let t = sigma + (!i * s) in
        place f_prolog (renamed !i) ~t;
        p_resv := resv_onto !p_resv ~t unit_.Sunit.resv;
        incr i
      done;
      (* kernel: u instances, one per s-window *)
      let k0 = ((sigma - p_len) mod s + s) mod s in
      let i0 = (p_len + k0 - sigma) / s in
      for j = 0 to u - 1 do
        place f_kernel (renamed (i0 + j)) ~t:(k0 + (j * s))
      done;
      (* epilog: the last sc-1 iterations drain; iteration numbering is
         congruent to (sc-1) mod u by construction of the peel count *)
      let b = ref 0 in
      while sigma - ((!b + 1) * s) >= 0 do
        let t = sigma - ((!b + 1) * s) in
        let iter = ((sc - 1 - 1 - !b) mod u + u) mod u in
        place f_epilog (renamed iter) ~t;
        e_resv := resv_onto !e_resv ~t unit_.Sunit.resv;
        incr b
      done)
    units;
  {
    f_prolog;
    f_kernel;
    f_epilog;
    prolog_resv = !p_resv;
    epilog_resv = !e_resv;
    sc;
    unroll = u;
  }

(* ------------------------------------------------------------------ *)
(* Loop middle emitters                                                *)
(* ------------------------------------------------------------------ *)

let emit_op_chain asm (m : Machine.t) ~rename ops =
  List.iter
    (fun (op : Op.t) ->
      Asm.inst asm (map_ops rename [ op ]);
      for _ = 2 to Machine.latency m op.Op.kind do
        Asm.inst asm []
      done)
    ops

type count = Known of int | Runtime of Vreg.t

(* A loop node is charged one slot of its parent's schedule for the
   loop proper ([payload_len]), hence the empty word of a zero-trip
   loop. *)
let emit_counted_loop asm ~rename ~depth ~count (body : Sunit.frag) =
  let body_once () =
    emit_slots asm ~rename ~depth:(depth + 1) body ~extras:no_extras
  in
  match count with
  | Known 0 -> Asm.inst asm []
  | Known k ->
    Asm.attach_ctl asm (Inst.CtrSet { ctr = depth; value = k });
    let l_top = Asm.fresh_label asm in
    Asm.place asm l_top;
    body_once ();
    Asm.attach_ctl asm (Inst.CtrLoop { ctr = depth; target = l_top })
  | Runtime v ->
    (* CtrSetR reads a register at issue: it must not piggyback on an
       earlier instruction, where the value may not have landed yet *)
    Asm.inst asm ~ctl:(Inst.CtrSetR { ctr = depth; reg = rename v }) [];
    let l_skip = Asm.fresh_label asm in
    let l_top = Asm.fresh_label asm in
    Asm.attach_ctl asm
      (Inst.CtrJumpLt { ctr = depth; bound = 1; target = l_skip });
    Asm.place asm l_top;
    body_once ();
    Asm.attach_ctl asm (Inst.CtrLoop { ctr = depth; target = l_top });
    Asm.place asm l_skip

let preset_counter asm ~rename ~depth ~passes =
  match passes with
  | Known k -> Asm.attach_ctl asm (Inst.CtrSet { ctr = depth; value = k })
  | Runtime v ->
    Asm.inst asm ~ctl:(Inst.CtrSetR { ctr = depth; reg = rename v }) []

let emit_kernel ?(preset = false) asm ~rename ~depth ~passes
    (kernel : Sunit.frag) =
  match passes with
  | Known k when k <= 0 -> ()
  | _ ->
    if not preset then begin
      match passes with
      | Known k -> Asm.attach_ctl asm (Inst.CtrSet { ctr = depth; value = k })
      | Runtime _ ->
        invalid_arg
          "Emit.emit_kernel: run-time pass counts must be preset before \
           the prolog"
    end;
    let l_top = Asm.fresh_label asm in
    Asm.place asm l_top;
    emit_slots asm ~rename ~depth:(depth + 1) kernel ~extras:no_extras;
    Asm.attach_ctl asm (Inst.CtrLoop { ctr = depth; target = l_top })

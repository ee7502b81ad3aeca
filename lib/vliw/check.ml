(** Static resource-discipline checker for assembled programs.

    Walks the code in layout order, projecting each operation's
    reservation onto the instructions it occupies, and verifies that no
    resource is oversubscribed in any instruction. Layout order is
    exact for the machines in this repository (all reservations are at
    offset 0, so nothing spans a branch); for hypothetical multi-cycle
    reservations the projection across taken branches would be
    path-dependent and this checker is conservative along fall-through
    only. *)

open Sp_machine

type violation = {
  at : int;            (** instruction index *)
  resource : string;
  used : int;
  avail : int;
}

let pp_violation ppf v =
  Fmt.pf ppf "instruction %d oversubscribes %s: %d used, %d available"
    v.at v.resource v.used v.avail

let check_prog (m : Machine.t) (p : Prog.t) : violation list =
  let n = Prog.length p in
  let nr = Machine.num_resources m in
  (* usage.(i * nr + r) = units of resource r used by instruction i.
     One flat int array: [n] rows would force a minor collection (OCaml
     5 collects before making an array of more than 256 words from a
     young element) *)
  let usage = Array.make (n * nr) 0 in
  Array.iteri
    (fun i (inst : Inst.t) ->
      List.iter
        (fun (op : Sp_ir.Op.t) ->
          List.iter
            (fun (off, rid) ->
              let j = i + off in
              if j >= 0 && j < n then begin
                let k = (j * nr) + rid in
                usage.(k) <- usage.(k) + 1
              end)
            (Machine.reservation m op.kind))
        inst.ops)
    p.code;
  let viols = ref [] in
  Array.iteri
    (fun k used ->
      let r = Machine.resource m (k mod nr) in
      if used > r.count then
        viols :=
          { at = k / nr; resource = r.rname; used; avail = r.count } :: !viols)
    usage;
  List.rev !viols

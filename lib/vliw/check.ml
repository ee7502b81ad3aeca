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

(* The rows a reservation can still reach, held per domain. Word [i]
   reaches rows [i + lo] to [i + hi], where [lo <= 0 <= hi] span every
   reservation offset seen so far (one row, [0, 0], on every machine in
   this repository); row [j] is tallied in slot [(j - lo) mod span],
   [nr] resources wide, and checked once no later word can reach it. *)
type window = {
  mutable lo : int;
  mutable hi : int;
  mutable tally : int array;
}

let window_key = Domain.DLS.new_key (fun () -> { lo = 0; hi = 0; tally = [||] })

(* an offset outside [lo, hi]: the window is widened, the walk restarts *)
exception Widen

let check_prog (m : Machine.t) (p : Prog.t) : violation list =
  let w = Domain.DLS.get window_key in
  let n = Prog.length p in
  let nr = Machine.num_resources m in
  let caps = Array.init nr (fun rid -> (Machine.resource m rid).Machine.count) in
  let rec walk () =
    let lo = w.lo and hi = w.hi in
    let span = hi - lo + 1 in
    if Array.length w.tally < span * nr then w.tally <- Array.make (span * nr) 0
    else Array.fill w.tally 0 (span * nr) 0;
    let tally = w.tally in
    let viols = ref [] in
    (* row [j], in slot [s], is final: report and clear it *)
    let close j s =
      for rid = 0 to nr - 1 do
        let k = (s * nr) + rid in
        let used = tally.(k) in
        if used > caps.(rid) then
          viols :=
            { at = j; resource = (Machine.resource m rid).Machine.rname; used;
              avail = caps.(rid) }
            :: !viols;
        tally.(k) <- 0
      done
    in
    (* word [i]'s reservations; row [i + lo] is in slot [base] *)
    let rec reserve i base = function
      | [] -> ()
      | (off, rid) :: rest ->
        if off < lo || off > hi then begin
          w.lo <- Int.min lo off;
          w.hi <- Int.max hi off;
          raise Widen
        end;
        let j = i + off in
        if j >= 0 && j < n then begin
          let s = base + off - lo in
          let k = ((if s >= span then s - span else s) * nr) + rid in
          tally.(k) <- tally.(k) + 1
        end;
        reserve i base rest
    in
    let rec ops i base = function
      | [] -> ()
      | (op : Sp_ir.Op.t) :: rest ->
        reserve i base (Machine.reservation m op.Sp_ir.Op.kind);
        ops i base rest
    in
    match
      let base = ref 0 in
      for i = 0 to n - 1 do
        ops i !base p.Prog.code.(i).Inst.ops;
        if i + lo >= 0 then close (i + lo) !base;
        base := if !base + 1 = span then 0 else !base + 1
      done
    with
    | () ->
      for j = Int.max 0 (n + lo) to n - 1 do
        close j ((j - lo) mod span)
      done;
      List.rev !viols
    | exception Widen -> walk ()
  in
  walk ()

(** Learned nogoods with re-validatable certificates (see the .mli).

    Representation notes: literals are kept sorted by variable so
    structural comparison is canonical. The consultation index is a
    flat array of buckets: slot [var * s + res] holds, newest first,
    the nogoods whose deepest literal under the solve's variable order
    is [(var, res)]. Chronological placement guarantees that when the
    solver probes that variable, every other literal's variable is
    already placed, so a consultation is one bucket scan with an
    O(|lits|) check per entry — two top-level loops that allocate
    nothing unless an entry fires. *)

module Sunit = Sp_core.Sunit
module Intmath = Sp_util.Intmath

type lit = { var : int; res : int }

type cert =
  | C_window of { u : int; v : int }
  | C_resource of { rid : int }
  | C_cycle of { edges : (int * int * int * int) list }
  | C_derived

type nogood = { lits : lit array; cert : cert }

(* Caps: a nogood wider than this is too specific to ever fire again
   (and slows every consultation touching its key); a bank larger than
   this marks a loop where learning is churning, not converging. *)
let max_lits = 16
let max_bank = 10_000

type t = {
  mutable goods : nogood list;  (* newest first *)
  mutable count : int;
  mutable depth : int array;  (* variable -> position in the order *)
  mutable s : int;  (* the index's interval; 0 = nothing indexed *)
  mutable index : nogood list array;  (* var * s + res -> bucket *)
}

let create () = { goods = []; count = 0; depth = [||]; s = 0; index = [||] }
let size t = t.count
let entries t = t.goods

let deepest_lit depth (ng : nogood) =
  let best = ref ng.lits.(0) in
  for i = 1 to Array.length ng.lits - 1 do
    let l = ng.lits.(i) in
    if depth.(l.var) > depth.(!best.var) then best := l
  done;
  !best

(* A literal outside [0, s) never matches a residue at [s], so a
   nogood keyed by one can never fire and stays out of the index,
   rather than landing in a neighbouring variable's slot. *)
let index_one t ng =
  if t.s > 0 then begin
    let l = deepest_lit t.depth ng in
    if l.res >= 0 && l.res < t.s then begin
      let k = (l.var * t.s) + l.res in
      t.index.(k) <- ng :: t.index.(k)
    end
  end

let add t ng =
  if Array.length ng.lits = 0 || Array.length ng.lits > max_lits
     || t.count >= max_bank
  then false
  else begin
    t.goods <- ng :: t.goods;
    t.count <- t.count + 1;
    index_one t ng;
    true
  end

let reindex t ~depth ~s =
  t.depth <- depth;
  t.s <- s;
  t.index <- Array.make (Array.length depth * s) [];
  List.iter (index_one t) (List.rev t.goods)

(* Does every literal of [lits] from [i] on match: [(var, res)] itself,
   any other one its placed residue? *)
let rec fires ~var ~res ~assigned lits i =
  i = Array.length lits
  || (let l = lits.(i) in
      (if l.var = var then l.res = res else assigned.(l.var) = l.res)
      && fires ~var ~res ~assigned lits (i + 1))

let rec first_firing ~var ~res ~assigned = function
  | [] -> None
  | ng :: rest ->
    if fires ~var ~res ~assigned ng.lits 0 then Some ng
    else first_firing ~var ~res ~assigned rest

let consult t ~var ~res ~assigned =
  if res < 0 || res >= t.s then None
  else first_firing ~var ~res ~assigned t.index.((var * t.s) + res)

(* ------------------------------------------------------------------ *)
(* Re-validation at a new interval                                     *)
(* ------------------------------------------------------------------ *)

type ctx = {
  units : Sunit.t array;
  limit : int -> int;
  window : u:int -> v:int -> (int * int) option;
}

let lit_res (ng : nogood) v =
  let r = ref (-1) in
  Array.iter (fun l -> if l.var = v then r := l.res) ng.lits;
  !r

let revalidate ctx ~s (ng : nogood) =
  match ng.cert with
  | C_derived -> false
  | C_window { u; v } -> (
    let ru = lit_res ng u and rv = lit_res ng v in
    ru >= 0 && rv >= 0
    &&
    match ctx.window ~u ~v with
    | None -> false
    | Some (lo, up) ->
      (* the window pins t(v) - t(u) to one residue class mod s; the
         recorded residues must miss it for the conflict to recur *)
      up - lo + 1 < s
      &&
      let dm = ((rv - ru - lo) mod s + s) mod s in
      dm > up - lo)
  | C_resource { rid } ->
    (* re-place every literal's reservation in the new modulo space
       and look for an oversubscribed slot of [rid] *)
    let demand = Array.make s 0 and limit = ctx.limit rid in
    let over = ref false in
    Array.iter
      (fun l ->
        List.iter
          (fun (off, r) ->
            if r = rid then begin
              let slot = (((l.res + off) mod s) + s) mod s in
              demand.(slot) <- demand.(slot) + 1;
              if demand.(slot) > limit then over := true
            end)
          ctx.units.(l.var).Sunit.resv)
      ng.lits;
    !over
  | C_cycle { edges } ->
    (* positive k-graph weight of the recorded cycle under the
       literals' residues at the new interval *)
    let total =
      List.fold_left
        (fun acc (src, dst, delay, omega) ->
          let ru = lit_res ng src and rv = lit_res ng dst in
          if ru < 0 || rv < 0 then min_int
          else acc + Intmath.ceil_div (delay + ru - rv) s - omega)
        0 edges
    in
    total > 0

let carry t ctx ~s =
  t.goods <- List.filter (revalidate ctx ~s) t.goods;
  t.count <- List.length t.goods;
  (* the index still holds dropped nogoods; the next solve reindexes *)
  t.depth <- [||];
  t.s <- 0;
  t.index <- [||];
  t.count

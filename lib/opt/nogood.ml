(** Learned nogoods with re-validatable certificates (see the .mli).

    Representation notes: literals are kept sorted by variable so
    structural comparison is canonical; the consultation index is a
    hash table from the (deepest variable, its residue) pair to the
    nogoods keyed there. Chronological placement guarantees that when
    the solver probes that variable, every other literal's variable is
    already placed, so a consultation is a single bucket scan with an
    O(|lits|) check per entry. *)

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
  index : (int * int, nogood list) Hashtbl.t;
  mutable depth_of : int -> int;
}

let create () =
  {
    goods = [];
    count = 0;
    index = Hashtbl.create ~random:false 64;
    depth_of = (fun v -> v);
  }

let size t = t.count
let entries t = t.goods

let deepest_lit t (ng : nogood) =
  let best = ref ng.lits.(0) in
  Array.iter
    (fun l -> if t.depth_of l.var > t.depth_of !best.var then best := l)
    ng.lits;
  !best

let index_one t ng =
  let l = deepest_lit t ng in
  let key = (l.var, l.res) in
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.index key) in
  Hashtbl.replace t.index key (ng :: prev)

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

let reindex t ~depth_of =
  t.depth_of <- depth_of;
  Hashtbl.reset t.index;
  List.iter (index_one t) (List.rev t.goods)

let consult t ~var ~res ~assigned =
  match Hashtbl.find_opt t.index (var, res) with
  | None -> None
  | Some bucket ->
    let fires ng =
      Array.for_all
        (fun l ->
          if l.var = var then l.res = res else assigned.(l.var) = l.res)
        ng.lits
    in
    List.find_opt fires bucket

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
    let demand = Hashtbl.create ~random:false 8 in
    Array.iter
      (fun l ->
        List.iter
          (fun (off, r) ->
            if r = rid then begin
              let slot = (((l.res + off) mod s) + s) mod s in
              let d =
                Option.value ~default:0 (Hashtbl.find_opt demand slot)
              in
              Hashtbl.replace demand slot (d + 1)
            end)
          ctx.units.(l.var).Sunit.resv)
      ng.lits;
    Hashtbl.fold (fun _ d acc -> acc || d > ctx.limit rid) demand false
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
  let kept = List.filter (revalidate ctx ~s) t.goods in
  t.goods <- kept;
  t.count <- List.length kept;
  Hashtbl.reset t.index;
  List.iter (index_one t) (List.rev t.goods);
  t.count

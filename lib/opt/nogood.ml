(** Learned nogoods with re-validatable certificates (see the .mli).

    Representation notes: literals are kept sorted by variable so
    structural comparison is canonical. The bank keeps its nogoods in
    insertion order, each boxed once in the [Some] a hit returns.

    The consultation index is laid out per solve and kept current by
    the solver's placements. A nogood is numbered by its position in
    the bank and keyed by its deepest literal under the solve's order,
    slot [var * s + res]. Chronological placement guarantees that when
    the solver probes the key's variable every other variable is
    decided, so only the other literals are tracked:

    - a nogood that cannot fire {e watches} one of its other literals
      that does not hold, in that literal's slot. Unplacing never makes
      a literal hold, so a watch survives every backtrack; placing [v]
      at [r] moves each watch on [(v, r)] to another literal that does
      not hold, or {e arms} the nogood when none is left;
    - an armed nogood sits in its key slot's list, newest first, and
      keeps its watch on its deepest other literal, whose variable was
      placed last. So the watchers of a placed [(v, r)] are exactly the
      nogoods [v] armed, and unplacing [v] disarms them. A unary
      nogood is armed for the whole solve.

    A consult reads the head of its slot's armed list, which is the
    entry a newest-first scan of the slot would find first. The index
    lives in int arrays that the bank reuses across its solves (grown,
    never shrunk), so a consult, a placement and an unplacement
    allocate nothing. *)

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
   (and slows every watch search touching it); a bank larger than
   this marks a loop where learning is churning, not converging. *)
let max_lits = 16
let max_bank = 10_000

type t = {
  mutable goods : nogood option array;  (* oldest first; [None] past [count] *)
  mutable count : int;
  (* the solve's index; [s = 0]: nothing indexed *)
  mutable s : int;
  mutable depth : int array;  (* variable -> position in the order *)
  mutable assigned : int array;  (* the solver's residues, -1 unplaced *)
  mutable watchers : int array;  (* literal slot -> first watcher, -1 none *)
  mutable armed : int array;  (* key slot -> newest armed nogood, -1 none *)
  (* per nogood number *)
  mutable key : int array;  (* key slot, -1 when not indexed *)
  mutable wnext : int array;  (* next watcher of the same literal *)
  mutable anext : int array;  (* next older armed nogood of the key slot *)
  mutable aprev : int array;  (* next newer one *)
}

let create () =
  { goods = [||]; count = 0; s = 0; depth = [||]; assigned = [||];
    watchers = [||]; armed = [||]; key = [||]; wnext = [||]; anext = [||];
    aprev = [||] }

let size t = t.count

let entries t =
  let rec collect i acc =
    if i = t.count then acc
    else
      match t.goods.(i) with
      | Some ng -> collect (i + 1) (ng :: acc)
      | None -> collect (i + 1) acc
  in
  collect 0 []

(* [a] with room for [n] cells, its contents kept; the new cells hold
   [fill], an immediate, so a large array forces no minor collection *)
let grow a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (Int.max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let lits_of t id =
  match t.goods.(id) with Some ng -> ng.lits | None -> [||]

let slot t (l : lit) = (l.var * t.s) + l.res

let rec in_range s lits i =
  i = Array.length lits
  || (lits.(i).res >= 0 && lits.(i).res < s && in_range s lits (i + 1))

(* position of the deepest literal of [lits] other than position [skip] *)
let rec deepest depth lits skip i best =
  if i = Array.length lits then best
  else if
    i <> skip
    && (best < 0 || depth.(lits.(i).var) > depth.(lits.(best).var))
  then deepest depth lits skip (i + 1) i
  else deepest depth lits skip (i + 1) best

(* position of a literal of [lits] off variable [kvar] that does not
   hold, or -1 *)
let rec unheld assigned lits kvar i =
  if i = Array.length lits then -1
  else
    let l = lits.(i) in
    if l.var <> kvar && assigned.(l.var) <> l.res then i
    else unheld assigned lits kvar (i + 1)

let watch t id l =
  let k = slot t l in
  t.wnext.(id) <- t.watchers.(k);
  t.watchers.(k) <- id

(* the last armed nogood after [p] that is newer than [id] *)
let rec newer_than t id p =
  let q = t.anext.(p) in
  if q > id then newer_than t id q else p

let arm t id =
  let k = t.key.(id) in
  let head = t.armed.(k) in
  let p = if head > id then newer_than t id head else -1 in
  let q = if p < 0 then head else t.anext.(p) in
  t.aprev.(id) <- p;
  t.anext.(id) <- q;
  if p < 0 then t.armed.(k) <- id else t.anext.(p) <- id;
  if q >= 0 then t.aprev.(q) <- id

let disarm t id =
  let p = t.aprev.(id) and q = t.anext.(id) in
  if p < 0 then t.armed.(t.key.(id)) <- q else t.anext.(p) <- q;
  if q >= 0 then t.aprev.(q) <- p

(* A literal outside [0, s) never holds at [s], so a nogood with one
   can never fire and stays out of the index. *)
let index t id =
  let lits = lits_of t id in
  if not (in_range t.s lits 0) then t.key.(id) <- -1
  else begin
    let k = deepest t.depth lits (-1) 0 (-1) in
    t.key.(id) <- slot t lits.(k);
    let w = unheld t.assigned lits lits.(k).var 0 in
    if w >= 0 then watch t id lits.(w)
    else begin
      arm t id;
      if Array.length lits > 1 then
        watch t id lits.(deepest t.depth lits k 0 (-1))
    end
  end

let reserve t n =
  if n > Array.length t.key then begin
    t.key <- grow t.key n (-1);
    t.wnext <- grow t.wnext n (-1);
    t.anext <- grow t.anext n (-1);
    t.aprev <- grow t.aprev n (-1)
  end

let add t ng =
  if Array.length ng.lits = 0 || Array.length ng.lits > max_lits
     || t.count >= max_bank
  then false
  else begin
    t.goods <- grow t.goods (t.count + 1) None;
    t.goods.(t.count) <- Some ng;
    t.count <- t.count + 1;
    if t.s > 0 then begin
      reserve t t.count;
      index t (t.count - 1)
    end;
    true
  end

let reindex t ~depth ~s ~assigned =
  let slots = Array.length depth * s in
  t.s <- s;
  t.depth <- depth;
  t.assigned <- assigned;
  t.watchers <- grow t.watchers slots (-1);
  t.armed <- grow t.armed slots (-1);
  Array.fill t.watchers 0 slots (-1);
  Array.fill t.armed 0 slots (-1);
  reserve t t.count;
  for id = 0 to t.count - 1 do
    index t id
  done

(* The watchers of literal slot [k], which now holds, from [id] on;
   [kept] is the last one left in the list. Each moves its watch to
   another literal that does not hold, or stays and is armed. *)
let rec rewatch t k kept id =
  if id >= 0 then begin
    let next = t.wnext.(id) in
    let lits = lits_of t id in
    let w = unheld t.assigned lits (t.key.(id) / t.s) 0 in
    if w < 0 then begin
      arm t id;
      rewatch t k id next
    end
    else begin
      if kept < 0 then t.watchers.(k) <- next else t.wnext.(kept) <- next;
      watch t id lits.(w);
      rewatch t k kept next
    end
  end

let rec disarm_from t id =
  if id >= 0 then begin
    disarm t id;
    disarm_from t t.wnext.(id)
  end

let assign t var =
  if t.s > 0 then begin
    let k = (var * t.s) + t.assigned.(var) in
    rewatch t k (-1) t.watchers.(k)
  end

let unassign t var =
  if t.s > 0 then disarm_from t t.watchers.((var * t.s) + t.assigned.(var))

let consult t ~var ~res =
  if res < 0 || res >= t.s then None
  else
    let id = t.armed.((var * t.s) + res) in
    if id < 0 then None else t.goods.(id)

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
  let kept = ref 0 in
  for i = 0 to t.count - 1 do
    match t.goods.(i) with
    | Some ng as box when revalidate ctx ~s ng ->
      t.goods.(!kept) <- box;
      incr kept
    | _ -> ()
  done;
  Array.fill t.goods !kept (t.count - !kept) None;
  t.count <- !kept;
  (* the index still describes dropped nogoods; the next solve reindexes *)
  t.s <- 0;
  t.count

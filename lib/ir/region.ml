(** Hierarchical program regions.

    Programs are structured trees of regions — straight-line operation
    lists, conditionals, and counted loops — matching the
    block-structured W2 constructs the paper's hierarchical reduction
    operates on (Section 3: "the proposed approach schedules the
    program hierarchically, starting with the innermost control
    constructs"). *)

(** Trip count of a loop: a compile-time constant or a register holding
    the count (the "number of iterations not known at compile time"
    case of Section 2.4, which triggers the two-version scheme). *)
type bound = Const of int | Reg of Vreg.t

type t =
  | Ops of Op.t list
      (** straight-line code *)
  | Seq of t list
  | If of { cond : Vreg.t; then_ : t; else_ : t }
      (** two-way conditional on an integer register ([<> 0] = then) *)
  | For of { iv : Vreg.t; n : bound; body : t }
      (** [for iv = 0 to n-1 do body]; the induction variable counts
          from 0 in steps of 1 (front ends normalize loops) *)

let rec iter_ops f = function
  | Ops ops -> List.iter f ops
  | Seq rs -> List.iter (iter_ops f) rs
  | If { then_; else_; _ } ->
    iter_ops f then_;
    iter_ops f else_
  | For { body; _ } -> iter_ops f body

let ops_count r =
  let n = ref 0 in
  iter_ops (fun _ -> incr n) r;
  !n

(** Innermost-loop count (loops containing no other loop). *)
let rec innermost_loops = function
  | Ops _ -> []
  | Seq rs -> List.concat_map innermost_loops rs
  | If { then_; else_; _ } -> innermost_loops then_ @ innermost_loops else_
  | For { body; _ } as l ->
    let inner = innermost_loops body in
    if inner = [] then [ l ] else inner

let rec contains_loop = function
  | Ops _ -> false
  | Seq rs -> List.exists contains_loop rs
  | If { then_; else_; _ } -> contains_loop then_ || contains_loop else_
  | For _ -> true

let pp_bound ppf = function
  | Const n -> Fmt.int ppf n
  | Reg v -> Vreg.pp ppf v

let rec pp ppf = function
  | Ops ops ->
    List.iter (fun op -> Fmt.pf ppf "%a@." Op.pp op) ops
  | Seq rs -> List.iter (pp ppf) rs
  | If { cond; then_; else_ } ->
    Fmt.pf ppf "@[<v 2>if %a {@,%a@]@,@[<v 2>} else {@,%a@]@,}@."
      Vreg.pp cond pp then_ pp else_
  | For { iv; n; body } ->
    Fmt.pf ppf "@[<v 2>for %a in 0..%a {@,%a@]@,}@." Vreg.pp iv pp_bound n
      pp body

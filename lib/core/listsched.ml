(** List scheduling of acyclic code (basic-block compaction).

    The classical algorithm the paper builds on (Fisher 1979): nodes are
    scheduled in a topological ordering of the intra-iteration edges,
    highest critical-path height first, each placed in the earliest slot
    that satisfies the precedence constraints with the partial schedule
    and the resource limits.

    Used for: the branches of conditionals (hierarchical reduction),
    straight-line code between loops, the unpipelined fallback bodies,
    and the "local compaction only" baseline of Figure 4-2. *)

open Sp_machine

type placement = {
  times : int array;  (** issue time per unit *)
  len : int;          (** schedule length in instructions *)
}

(** Critical-path heights over intra-iteration edges. *)
let heights (g : Ddg.t) =
  let n = Array.length g.Ddg.units in
  let h = Array.make n 0 in
  (* intra-iteration edges always point forward in program (sid) order,
     so a reverse sweep is a reverse-topological traversal *)
  for i = n - 1 downto 0 do
    let base = Ddg.completion g.Ddg.units.(i) in
    let best =
      List.fold_left
        (fun acc (e : Ddg.edge) ->
          if e.omega = 0 then Int.max acc (e.delay + h.(e.dst)) else acc)
        base g.Ddg.succs.(i)
    in
    h.(i) <- best
  done;
  h

let compact (m : Machine.t) (g : Ddg.t) : placement =
  let units = g.Ddg.units in
  let n = Array.length units in
  let h = heights g in
  let times = Array.make n (-1) in
  let npreds = Array.make n 0 in
  List.iter
    (fun (e : Ddg.edge) ->
      if e.omega = 0 then npreds.(e.dst) <- npreds.(e.dst) + 1)
    g.Ddg.edges;
  let table = Mrt.Linear.take m in
  (* Ready set as a binary heap keyed (height desc, index asc) — the
     same total order the former per-step linear scan resolved to
     (lowest index among the maximum-height ready units), so the
     schedule is unchanged; extraction drops from O(n) to O(log n). *)
  let heap = Array.make (Int.max n 1) 0 in
  let hn = ref 0 in
  let better a b = h.(a) > h.(b) || (h.(a) = h.(b) && a < b) in
  let swap a b =
    let t = heap.(a) in
    heap.(a) <- heap.(b);
    heap.(b) <- t
  in
  let push i =
    Sp_obs.Cost.incr Sp_obs.Cost.Heap_op;
    heap.(!hn) <- i;
    incr hn;
    let c = ref (!hn - 1) in
    while !c > 0 && better heap.(!c) heap.((!c - 1) / 2) do
      swap !c ((!c - 1) / 2);
      c := (!c - 1) / 2
    done
  in
  let pop () =
    Sp_obs.Cost.incr Sp_obs.Cost.Heap_op;
    let top = heap.(0) in
    decr hn;
    heap.(0) <- heap.(!hn);
    let c = ref 0 in
    let continue = ref (!hn > 1) in
    while !continue do
      let l = (2 * !c) + 1 and r = (2 * !c) + 2 in
      let m = if l < !hn && better heap.(l) heap.(!c) then l else !c in
      let m = if r < !hn && better heap.(r) heap.(m) then r else m in
      if m = !c then continue := false
      else begin
        swap !c m;
        c := m
      end
    done;
    top
  in
  for i = 0 to n - 1 do
    if npreds.(i) = 0 then push i
  done;
  let scheduled = ref 0 in
  while !scheduled < n do
    if !hn = 0 then
      invalid_arg "Listsched.compact: cyclic intra-iteration graph";
    let i = pop () in
    let est =
      List.fold_left
        (fun acc (e : Ddg.edge) ->
          if e.omega = 0 then Int.max acc (times.(e.src) + e.delay) else acc)
        0 g.Ddg.preds.(i)
    in
    let resv = units.(i).Sunit.resv in
    let t = Mrt.Linear.earliest table ~est resv in
    if t > est && Sp_obs.Explain.enabled () then
      Sp_obs.Explain.record
        (Sp_obs.Explain.Compact_stall
           {
             unit_id = i;
             unit_desc = Fmt.str "%a" Sunit.pp units.(i);
             est;
             placed = t;
             resource =
               (match Mrt.Linear.last_conflict table with
               | Some (_, rid) -> (Machine.resource m rid).Machine.rname
               | None -> "?");
           });
    Mrt.Linear.add table ~at:t resv;
    times.(i) <- t;
    List.iter
      (fun (e : Ddg.edge) ->
        if e.omega = 0 then begin
          npreds.(e.dst) <- npreds.(e.dst) - 1;
          if npreds.(e.dst) = 0 then push e.dst
        end)
      g.Ddg.succs.(i);
    incr scheduled
  done;
  let len = ref 1 in
  Array.iteri
    (fun i (u : Sunit.t) -> len := Int.max !len (times.(i) + u.Sunit.len))
    units;
  { times; len = !len }

(** Restart interval of a sequentially executed loop body: the body
    schedule may only be re-entered every [R] cycles, where [R] covers
    both the schedule length and every loop-carried dependence
    stretched across [omega] restarts. This "length of a locally
    compacted iteration" is the paper's upper bound for the initiation
    interval search, and the denominator of the Figure 4-2 speedups. *)
let restart_interval (g : Ddg.t) (p : placement) =
  List.fold_left
    (fun acc (e : Ddg.edge) ->
      if e.omega > 0 then
        Int.max acc
          (Sp_util.Intmath.ceil_div
             (p.times.(e.src) + e.delay - p.times.(e.dst))
             e.omega)
      else acc)
    p.len g.Ddg.edges

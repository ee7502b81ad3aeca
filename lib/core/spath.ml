(** All-points longest paths with a symbolic initiation interval.

    The paper (Section 2.2.2) computes the closure of the precedence
    constraints in each strongly connected component {e once}, "using a
    symbolic value to stand for the initiation interval", so that the
    iterative search over candidate intervals pays no recomputation.

    A path with accumulated delay [d] and accumulated iteration
    difference [w] constrains [sigma(dst) - sigma(src) >= d - s*w]. We
    represent the closure as, per node pair, the Pareto frontier of
    [(d, w)] pairs. The initiation interval only ever ranges over
    [1 .. s_max] (the upper bound is the length of the locally
    compacted iteration, which always schedules), so the exact
    dominance order is: [a] dominates [b] iff [a.d - s*a.w >= b.d -
    s*b.w] at both endpoints [s = 1] and [s = s_max] — both sides are
    linear in [s], so dominance at the endpoints is dominance
    throughout. This keeps each frontier at the lower convex hull of
    the path set (a handful of pairs) where the naive
    for-all-[s >= 0] order can blow up combinatorially on graphs with
    many parallel incomparable paths.

    Frontiers are stored flat: during the Floyd–Warshall closure each
    node pair owns a small growable int buffer of interleaved [(d, w)]
    pairs (no list cells, no per-pair boxing), and the finished closure
    is packed into one contiguous data array indexed by an offset
    table. [query] — on the modulo scheduler's per-interval hot path —
    is then a linear scan over adjacent words.

    The recurrence-constrained lower bound on the initiation interval
    (paper Section 2.2.1) is the maximum over closed paths of
    [ceil(d(c) / p(c))], computed by Bellman–Ford plus binary search. *)

type t = {
  n : int;
  s_min : int;
  s_max : int;
  off : int array;
      (* n*n + 1 entries, in pairs: frontier of (i, j) lives at pair
         indices off.(i*n + j) .. off.(i*n + j + 1) - 1 *)
  dat : int array; (* interleaved d, w; pair p at dat.(2p), dat.(2p+1) *)
}

(* growable frontier used only while computing the closure *)
type buf = { mutable a : int array; mutable len : int (* in pairs *) }

let buf_make () = { a = [||]; len = 0 }

(* fills the frontier array before its own buffers replace it: OCaml 5
   forces a minor collection to make an array of more than 256 words
   from a young element *)
let filler = buf_make ()

let buf_push b d w =
  let need = 2 * (b.len + 1) in
  if Array.length b.a < need then begin
    let a = Array.make (Int.max need (2 * Array.length b.a)) 0 in
    Array.blit b.a 0 a 0 (2 * b.len);
    b.a <- a
  end;
  b.a.(2 * b.len) <- d;
  b.a.((2 * b.len) + 1) <- w;
  b.len <- b.len + 1

let snapshot b = { a = Array.sub b.a 0 (2 * b.len); len = b.len }

(** Insert the pair [(d, w)] into frontier [b], keeping only
    non-dominated pairs. Dominance is the O(1) two-endpoint test: a
    pair's constraint value [d - s*w] is linear in [s], so comparing at
    [s_min] and [s_max] decides the whole range. *)
let insert ~s_min ~s_max b d w =
  Sp_obs.Cost.incr Sp_obs.Cost.Spath_insert;
  let v1 = d - (s_min * w) and v2 = d - (s_max * w) in
  let dominated = ref false in
  let i = ref 0 in
  while (not !dominated) && !i < b.len do
    let qd = b.a.(2 * !i) and qw = b.a.((2 * !i) + 1) in
    if qd - (s_min * qw) >= v1 && qd - (s_max * qw) >= v2 then
      dominated := true;
    incr i
  done;
  if not !dominated then begin
    (* drop pairs the new one dominates, compacting in place *)
    let keep = ref 0 in
    for i = 0 to b.len - 1 do
      let qd = b.a.(2 * i) and qw = b.a.((2 * i) + 1) in
      if not (v1 >= qd - (s_min * qw) && v2 >= qd - (s_max * qw)) then begin
        if !keep <> i then begin
          b.a.(2 * !keep) <- qd;
          b.a.((2 * !keep) + 1) <- qw
        end;
        incr keep
      end
    done;
    b.len <- !keep;
    buf_push b d w
  end

(** [compute ~n ~edges ~s_min ~s_max] over node-local indices; edges
    are [(src, dst, delay, omega)]. Queries are valid for initiation
    intervals in [s_min .. s_max]. Callers pass [s_min >=] the
    component's recurrence bound, where every dependence cycle has
    non-positive weight — then going around a cycle only ever produces
    dominated pairs and the frontiers stay at hull size. *)
let compute ~n ~edges ~s_min ~s_max =
  let s_min = Int.max 1 s_min in
  let s_max = Int.max s_min s_max in
  let fr = Array.make (n * n) filler in
  for idx = 0 to (n * n) - 1 do
    fr.(idx) <- buf_make ()
  done;
  List.iter
    (fun (src, dst, delay, omega) ->
      insert ~s_min ~s_max fr.((src * n) + dst) delay omega)
    edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let ik = fr.((i * n) + k) in
      if ik.len > 0 then
        for j = 0 to n - 1 do
          let kj = fr.((k * n) + j) in
          if kj.len > 0 then begin
            let tgt = fr.((i * n) + j) in
            (* on the diagonal passes the target aliases a source;
               snapshot so the combination reads the pre-merge
               frontier *)
            let ik = if j = k then snapshot ik else ik in
            let kj = if i = k then snapshot kj else kj in
            for p = 0 to ik.len - 1 do
              let pd = ik.a.(2 * p) and pw = ik.a.((2 * p) + 1) in
              for q = 0 to kj.len - 1 do
                insert ~s_min ~s_max tgt
                  (pd + kj.a.(2 * q))
                  (pw + kj.a.((2 * q) + 1))
              done
            done
          end
        done
    done
  done;
  (* pack the finished frontiers contiguously *)
  let off = Array.make ((n * n) + 1) 0 in
  for idx = 0 to (n * n) - 1 do
    off.(idx + 1) <- off.(idx) + fr.(idx).len
  done;
  let dat = Array.make (2 * off.(n * n)) 0 in
  Array.iteri
    (fun idx b -> Array.blit b.a 0 dat (2 * off.(idx)) (2 * b.len))
    fr;
  { n; s_min; s_max; off; dat }

let no_path = min_int

(** Maximum over the frontier of [d - s*w]: the binding precedence
    constraint from [i] to [j] at initiation interval [s]. {!no_path}
    when no path exists (the maximum over an empty frontier). Requires
    [s_min <= s <= s_max]. *)
let query t ~s i j =
  if s < t.s_min || s > t.s_max then
    invalid_arg "Spath.query: s out of range";
  let idx = (i * t.n) + j in
  let m = ref no_path in
  for p = t.off.(idx) to t.off.(idx + 1) - 1 do
    let v = t.dat.(2 * p) - (s * t.dat.((2 * p) + 1)) in
    if v > !m then m := v
  done;
  !m

(* ------------------------------------------------------------------ *)
(* Recurrence bound, computed independently of the closure              *)
(* ------------------------------------------------------------------ *)

(** Does the graph contain a cycle of positive weight under
    [weight e = d(e) - s * omega(e)]? Bellman–Ford longest-path
    relaxation from an all-zero potential: any relaxation still
    possible after [n] sweeps exposes a positive cycle. *)
let has_positive_cycle ~n ~edges ~s =
  let dist = Array.make n 0 in
  let changed = ref true in
  let sweeps = ref 0 in
  while !changed && !sweeps <= n do
    changed := false;
    incr sweeps;
    List.iter
      (fun (u, v, d, w) ->
        let nd = dist.(u) + d - (s * w) in
        if nd > dist.(v) then begin
          dist.(v) <- nd;
          changed := true
        end)
      edges
  done;
  if Sp_obs.Cost.enabled () then
    Sp_obs.Cost.add Sp_obs.Cost.Spath_relax (!sweeps * List.length edges);
  !changed

(** The recurrence-constrained lower bound on the initiation interval
    (paper Section 2.2.1): the smallest [s] at which no dependence
    cycle has positive weight — equivalently
    [max over cycles ceil(d(c)/p(c))]. Cycle weight is decreasing in
    [s], so binary search applies. Returns [s_max + 2] when even
    [s_max + 1] leaves a positive cycle (a bound beyond the serial
    restart length — not pipelinable in range — or an illegal
    zero-omega positive cycle). *)
let rec_mii_bound ~n ~edges ~s_max =
  if not (has_positive_cycle ~n ~edges ~s:1) then 1
  else if has_positive_cycle ~n ~edges ~s:(s_max + 1) then s_max + 2
  else begin
    (* invariant: positive cycle exists at lo - 1, none at hi *)
    let rec bs lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if has_positive_cycle ~n ~edges ~s:mid then bs (mid + 1) hi
        else bs lo mid
    in
    bs 2 (s_max + 1)
  end

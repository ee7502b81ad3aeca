(** Structural fingerprints of (DDG, machine) pairs — see the mli for
    the contract.

    Canonicalization runs in three steps:

    1. A {e local descriptor} per unit: every scheduling-relevant fact
       the unit carries on its own — length, no-wrap flag,
       sorted reservations, payload kind, and the (time, class) shape
       of its register accesses {e in intrinsic list order} (operand
       order is structure, not naming, so it survives alpha-renaming).
       Register identities are deliberately absent here; they reach the
       fingerprint through edges and through the final first-occurrence
       renumbering.

    2. {e Neighborhood refinement} (Weisfeiler–Lehman style) over a
       two-sorted graph, on 63-bit integer keys: unit keys start as
       hashes of the local descriptors, register keys as hashes of the
       register class, and both are iterated together — a unit's key
       absorbs the sorted multiset of (direction, delay, omega,
       neighbor key) over its dependence edges plus its accesses as
       (role, position, time, register key) in intrinsic operand
       order; a register's key absorbs the sorted multiset of (role,
       position, time, unit key) over its accesses — position included
       so registers distinguished only by which operand slot of a
       non-commutative op they feed still separate. Every element of
       a multiset is folded through an explicit mixer, so a large
       neighborhood counts in full, and a round allocates no strings.
       The register side matters: read-read sharing produces no
       dependence edge, so without it two units with identical shapes
       but different sharing patterns would stay tied and the
       index tie-break below would make the canonical form depend on
       presentation order. Equal graphs presented under any unit
       permutation converge to equal key multisets.

    3. {e Individualization} for residual ties: refinement can leave
       distinct units with equal keys (for instance two tied producers
       feeding two tied consumers — every local view is symmetric, yet
       breaking the two ties independently is not an automorphism, so
       an index tie-break would make the result depend on presentation
       order). When a tied cell survives, each of its members is
       individualized in turn (its key perturbed, refinement re-run,
       recursion on remaining ties) and the lexicographically smallest
       full serialization wins — the standard individualization-
       refinement certificate, exponential only in tied-cell sizes,
       which are tiny here; a branch budget caps pathological graphs,
       falling back to the index tie-break (which can only cost a
       cache miss, never a wrong hit).

    4. The canonical order sorts units by (refined key, local
       descriptor, original index); registers are then renumbered by
       first occurrence in that order and the whole graph — units,
       renumbered accesses, sorted relabeled edges, machine resource
       table — is serialized and digested.

    Only the final serialization is digested, with MD5 via the stdlib
    [Digest]; the refinement keys just choose the canonical order. Two
    distinct neighborhoods whose integer keys collide land in one
    cell: that coarsens the partition, and individualization then
    splits the cell like any other tie, so the canonical form stays
    canonical and the serialization stays complete. Keys are
    structural, not adversarial, and a colliding cache entry is
    re-verified against the requesting loop's own constraints before
    reuse ({!Cache}), so an MD5 collision can cost a lookup, never
    correctness. *)

module Ddg = Sp_core.Ddg
module Sunit = Sp_core.Sunit
module Machine = Sp_machine.Machine
module Vreg = Sp_ir.Vreg

let add_int = Sp_util.Intmath.add_decimal

type canon = { fp : string; perm : int array }

let cls_char (v : Vreg.t) = match v.Vreg.cls with Vreg.F -> 'F' | Vreg.I -> 'I'

(* ---- integer keys ---------------------------------------------------- *)

(* [fmix] is a bijection on OCaml's 63-bit ints — xor-shift and
   odd-multiplier rounds after splitmix64's finalizer — so it never
   merges two inputs; [mix h x] folds one more element into an
   accumulator, order-sensitively. *)
let[@inline] fmix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let[@inline] mix h x = fmix ((h * 0x2545f4914f6cdd1d) + x)

(* ---- sorting a prefix in place ---------------------------------------- *)

let swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let rec sift (a : int array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      swap a i c;
      sift a c len
    end
  end

(* [a.(0) .. a.(len - 1)] in ascending order: insertion for the few
   entries of a typical neighbourhood, heapsort beyond *)
let sort_prefix (a : int array) len =
  if len <= 16 then
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    for i = (len / 2) - 1 downto 0 do
      sift a i len
    done;
    for last = len - 1 downto 1 do
      swap a 0 last;
      sift a 0 last
    done
  end

(* ---- local descriptors ------------------------------------------------ *)

let rec add_resv b = function
  | [] -> Buffer.add_char b ';'
  | (off, rid) :: rest ->
    add_int b off;
    Buffer.add_char b ':';
    add_int b rid;
    Buffer.add_char b ',';
    add_resv b rest

let rec add_accesses b = function
  | [] -> Buffer.add_char b ';'
  | (v, t) :: rest ->
    add_int b t;
    Buffer.add_char b (cls_char v);
    Buffer.add_char b ',';
    add_accesses b rest

let resv_order (o, r) (o', r') =
  if o <> o' then Int.compare o o' else Int.compare r r'

let rec resv_sorted = function
  | a :: (b :: _ as rest) -> resv_order a b <= 0 && resv_sorted rest
  | [] | [ _ ] -> true

(* The renaming-invariant per-unit descriptor (step 1), appended to
   [b]. *)
let add_local b (u : Sunit.t) =
  add_int b u.Sunit.len;
  Buffer.add_char b (if u.Sunit.no_wrap then 'w' else '-');
  Buffer.add_char b ';';
  add_resv b
    (if resv_sorted u.Sunit.resv then u.Sunit.resv
     else List.sort resv_order u.Sunit.resv);
  (match u.Sunit.payload with
  | Sunit.P_op op ->
    Buffer.add_string b "op:";
    Buffer.add_string b (Sp_machine.Opkind.to_string op.Sp_ir.Op.kind)
  | Sunit.P_if _ -> Buffer.add_string b "if"
  | Sunit.P_loop _ -> Buffer.add_string b "loop");
  Buffer.add_char b ';';
  add_accesses b u.Sunit.uses;
  add_accesses b u.Sunit.defs

(* [s] from [a] for [la] bytes against [s] from [b] for [lb]:
   [String.compare]'s order on the two substrings *)
let compare_sub s a la b lb =
  let m = Int.min la lb in
  let rec go k =
    if k = m then Int.compare la lb
    else
      let c =
        Char.compare (String.unsafe_get s (a + k)) (String.unsafe_get s (b + k))
      in
      if c <> 0 then c else go (k + 1)
  in
  go 0

(* ---- the machine, and what each domain keeps ---------------------------- *)

(* The machine's part of the serialization: the name plus everything
   the scheduler reads off the description — resource table and
   register-file capacities. *)
let machine_descr (m : Machine.t) =
  let b = Buffer.create 128 in
  Buffer.add_string b m.Machine.name;
  Buffer.add_char b '|';
  Array.iter
    (fun (r : Machine.resource) ->
      Buffer.add_string b r.Machine.rname;
      Buffer.add_char b '=';
      add_int b r.Machine.count;
      Buffer.add_char b ',')
    m.Machine.resources;
  Buffer.add_string b "|f";
  add_int b m.Machine.fregs;
  Buffer.add_string b "|i";
  add_int b m.Machine.iregs;
  Buffer.contents b

(* What each domain keeps: the buffer descriptors and serializations
   are written in, released once it holds more than [kept] bytes. *)
let buf_key = Domain.DLS.new_key (fun () -> Buffer.create 1024)

let kept = 1 lsl 16

(* ---- the graph as flat arrays ------------------------------------------ *)

(* Built once per call, sized to the graph, so they are young and die
   there: kept from call to call, arrays sized to the largest graph
   yet seen raised the [campaign] workload's peak heap (EXPERIMENTS
   E38). Unit [i]'s dependence edges sit at [nb_off.(i) .. nb_off.(i +
   1) - 1] of [nb_node] (the other end) and [nb_lab] (a key of
   direction, delay and omega); its register accesses, uses then defs
   in operand order, at [ua_off.(i) ..] of [ua_reg] and [ua_lab] (a key
   of role, operand position and time); register [r]'s accesses at
   [ra_off.(r) ..] of [ra_unit] and [ra_lab]. [next], [rnext] and
   [tmp] are a refinement round's working arrays. *)
type flat = {
  n : int;
  mutable nr : int;
  nb_off : int array;
  nb_node : int array;
  nb_lab : int array;
  ua_off : int array;
  ua_reg : int array;
  ua_lab : int array;
  ra_off : int array;
  ra_unit : int array;
  ra_lab : int array;
  rkey0 : int array;
  next : int array;
  rnext : int array;
  tmp : int array;
  regs : int Sp_util.Itbl.t;  (** register id -> dense index *)
}

(* for [n] units, [e] edge ends and [acc] accesses, so at most [acc]
   registers *)
let flat ~n ~e ~acc =
  let ints k = Array.make k 0 in
  {
    n; nr = 0;
    nb_off = ints (n + 1); nb_node = ints e; nb_lab = ints e;
    ua_off = ints (n + 1); ua_reg = ints acc; ua_lab = ints acc;
    ra_off = ints (acc + 1); ra_unit = ints acc; ra_lab = ints acc;
    rkey0 = ints acc; next = ints n; rnext = ints acc;
    tmp = ints (Int.max n (Int.max e acc));
    regs = Sp_util.Itbl.create 32;
  }

(* dense index of [v], in order of first access; a new register's
   initial key is its class's *)
let reg_index f (v : Vreg.t) =
  match Sp_util.Itbl.find_opt f.regs v.Vreg.id with
  | Some r -> r
  | None ->
    let r = f.nr in
    Sp_util.Itbl.replace f.regs v.Vreg.id r;
    f.rkey0.(r) <- fmix (Char.code (cls_char v));
    f.nr <- r + 1;
    r

let rec add_edges f k dir = function
  | [] -> k
  | (e : Ddg.edge) :: rest ->
    f.nb_node.(k) <- (if dir = 0 then e.Ddg.dst else e.Ddg.src);
    f.nb_lab.(k) <- mix (mix dir e.Ddg.delay) e.Ddg.omega;
    add_edges f (k + 1) dir rest

let rec add_regs f k role p = function
  | [] -> k
  | (v, t) :: rest ->
    f.ua_reg.(k) <- reg_index f v;
    f.ua_lab.(k) <- mix (mix role p) t;
    add_regs f (k + 1) role (p + 1) rest

(* ---- refinement ------------------------------------------------------- *)

(* the number of distinct values among [a.(0) .. a.(len - 1)], counted
   as runs of a sorted copy in [tmp] *)
let distinct tmp a len =
  Array.blit a 0 tmp 0 len;
  sort_prefix tmp len;
  let d = ref (if len > 0 then 1 else 0) in
  for k = 1 to len - 1 do
    if tmp.(k) <> tmp.(k - 1) then incr d
  done;
  !d

(* Step 2: joint refinement of unit and register keys, from copies of
   [key0] and [rkey0]. A new key folds the node's own key, then every
   element of its sorted neighbour multiset — neighbour key mixed with
   the edge or access label — through [mix]. [Hashtbl.hash] of the
   multiset as one structured value would stop after a bounded prefix
   of a large multiset and leave spurious ties. Rehashing only ever
   splits key classes (an integer collision can merge two, which
   individualization then resolves), so a round that leaves the
   distinct-key count unchanged is the fixpoint: the loop stops there
   rather than burn the full round budget on every request. *)
let refine f ~rounds key0 rkey0 =
  let n = f.n and nr = f.nr in
  let key = Array.sub key0 0 n and rkey = Array.sub rkey0 0 nr in
  let nb_off = f.nb_off and nb_node = f.nb_node and nb_lab = f.nb_lab in
  let ua_off = f.ua_off and ua_reg = f.ua_reg and ua_lab = f.ua_lab in
  let ra_off = f.ra_off and ra_unit = f.ra_unit and ra_lab = f.ra_lab in
  let next = f.next and rnext = f.rnext and tmp = f.tmp in
  let prev = ref (-1) and round = ref 0 in
  while !round < rounds do
    for i = 0 to n - 1 do
      let lo = nb_off.(i) and hi = nb_off.(i + 1) in
      for k = lo to hi - 1 do
        tmp.(k - lo) <- mix nb_lab.(k) key.(nb_node.(k))
      done;
      sort_prefix tmp (hi - lo);
      let h = ref (mix key.(i) (hi - lo)) in
      for k = 0 to hi - lo - 1 do
        h := mix !h tmp.(k)
      done;
      (* accesses stay in intrinsic operand order: order is structure,
         only the register names are abstracted *)
      for k = ua_off.(i) to ua_off.(i + 1) - 1 do
        h := mix !h (mix ua_lab.(k) rkey.(ua_reg.(k)))
      done;
      next.(i) <- !h
    done;
    (* the operand position inside [ra_lab] is the load-bearing part:
       two registers whose only distinction is which operand slot of a
       non-commutative op they feed would otherwise stay tied forever,
       and the tie-break would then number them by presentation
       order *)
    for r = 0 to nr - 1 do
      let lo = ra_off.(r) and hi = ra_off.(r + 1) in
      for k = lo to hi - 1 do
        tmp.(k - lo) <- mix ra_lab.(k) key.(ra_unit.(k))
      done;
      sort_prefix tmp (hi - lo);
      let h = ref (mix rkey.(r) (hi - lo)) in
      for k = 0 to hi - lo - 1 do
        h := mix !h tmp.(k)
      done;
      rnext.(r) <- !h
    done;
    Array.blit next 0 key 0 n;
    Array.blit rnext 0 rkey 0 nr;
    let d = distinct tmp key n + distinct tmp rkey nr in
    if d = !prev then round := rounds
    else begin
      prev := d;
      incr round
    end
  done;
  (key, rkey)

let canon (g : Ddg.t) (m : Machine.t) : canon =
  let b = Domain.DLS.get buf_key in
  let units = g.Ddg.units in
  let n = Array.length units in
  let e = ref 0 and acc = ref 0 in
  for i = 0 to n - 1 do
    let u = units.(i) in
    e := !e + List.length g.Ddg.succs.(i) + List.length g.Ddg.preds.(i);
    acc := !acc + List.length u.Sunit.uses + List.length u.Sunit.defs
  done;
  let f = flat ~n ~e:!e ~acc:!acc in
  (* step 1, every unit's descriptor in one text; unit [i]'s is
     [loc_off.(i) .. loc_off.(i + 1) - 1] *)
  Buffer.clear b;
  let loc_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    loc_off.(i) <- Buffer.length b;
    add_local b units.(i)
  done;
  loc_off.(n) <- Buffer.length b;
  let locals = Buffer.contents b in
  let loc_len i = loc_off.(i + 1) - loc_off.(i) in
  (* registers as a second node sort: [reg_index] numbers every
     distinct vreg in order of first access, so sharing that produces
     no dependence edge (read-read) still reaches the refinement *)
  for i = 0 to n - 1 do
    let u = units.(i) in
    let k = add_edges f f.nb_off.(i) 0 g.Ddg.succs.(i) in
    f.nb_off.(i + 1) <- add_edges f k 1 g.Ddg.preds.(i);
    let k = add_regs f f.ua_off.(i) 0 0 u.Sunit.uses in
    f.ua_off.(i + 1) <- add_regs f k 1 0 u.Sunit.defs
  done;
  let nr = f.nr and ua_off = f.ua_off and ua_reg = f.ua_reg in
  (* the same accesses seen from the register side, by a counting
     sort; [rnext] counts, then fills *)
  let ra_off = f.ra_off and fill = f.rnext in
  for k = 0 to ua_off.(n) - 1 do
    let r = ua_reg.(k) in
    ra_off.(r + 1) <- ra_off.(r + 1) + 1
  done;
  for r = 0 to nr - 1 do
    ra_off.(r + 1) <- ra_off.(r + 1) + ra_off.(r);
    fill.(r) <- ra_off.(r)
  done;
  for i = 0 to n - 1 do
    for k = ua_off.(i) to ua_off.(i + 1) - 1 do
      let r = ua_reg.(k) in
      f.ra_unit.(fill.(r)) <- i;
      f.ra_lab.(fill.(r)) <- f.ua_lab.(k);
      fill.(r) <- fill.(r) + 1
    done
  done;
  (* unit keys start from the local descriptors, register keys from
     the class alone, so the fingerprint survives renaming *)
  let key0 = Array.make n 0 in
  for i = 0 to n - 1 do
    let lo = loc_off.(i) and len = loc_len i in
    let h = ref len in
    for k = lo to lo + len - 1 do
      h := mix !h (Char.code (String.unsafe_get locals k))
    done;
    key0.(i) <- !h
  done;
  let rounds = Int.min 16 (n + nr) in
  (* step 4: the canonical order sorts units by (key, local descriptor,
     index); [serialize] renumbers registers by first occurrence in
     that order and returns the full serialization, so candidate
     branches can be compared lexicographically *)
  let canonical_order key =
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = Int.compare key.(a) key.(b) in
        if c <> 0 then c
        else
          let c = compare_sub locals loc_off.(a) (loc_len a) loc_off.(b) (loc_len b) in
          if c <> 0 then c else Int.compare a b)
      order;
    order
  in
  let edges = Array.of_list g.Ddg.edges in
  let mdescr = machine_descr m in
  let serialize order =
    let perm = Array.make n 0 in
    Array.iteri (fun c i -> perm.(i) <- c) order;
    (* registers renamed by first occurrence: [-1] until named *)
    let canon_reg = Array.make nr (-1) and next_reg = ref 0 in
    let name k =
      let r = ua_reg.(k) in
      if canon_reg.(r) < 0 then begin
        canon_reg.(r) <- !next_reg;
        incr next_reg
      end;
      add_int b canon_reg.(r);
      Buffer.add_char b ','
    in
    Buffer.clear b;
    Buffer.add_string b mdescr;
    Buffer.add_string b "|n";
    add_int b n;
    Buffer.add_char b '|';
    for c = 0 to n - 1 do
      let i = order.(c) in
      Buffer.add_substring b locals loc_off.(i) (loc_len i);
      (* the same accesses again, now with canonical register names *)
      let defs = ua_off.(i) + List.length units.(i).Sunit.uses in
      Buffer.add_char b '/';
      for k = ua_off.(i) to defs - 1 do
        name k
      done;
      Buffer.add_char b '/';
      for k = defs to ua_off.(i + 1) - 1 do
        name k
      done;
      Buffer.add_char b '\n'
    done;
    let edges = Array.copy edges in
    Array.sort
      (fun (a : Ddg.edge) (e : Ddg.edge) ->
        let c = Int.compare perm.(a.Ddg.src) perm.(e.Ddg.src) in
        if c <> 0 then c
        else
          let c = Int.compare perm.(a.Ddg.dst) perm.(e.Ddg.dst) in
          if c <> 0 then c
          else
            let c = Int.compare a.Ddg.delay e.Ddg.delay in
            if c <> 0 then c else Int.compare a.Ddg.omega e.Ddg.omega)
      edges;
    Array.iter
      (fun (e : Ddg.edge) ->
        Buffer.add_char b 'e';
        add_int b perm.(e.Ddg.src);
        Buffer.add_char b '>';
        add_int b perm.(e.Ddg.dst);
        Buffer.add_char b ':';
        add_int b e.Ddg.delay;
        Buffer.add_char b ':';
        add_int b e.Ddg.omega;
        Buffer.add_char b '\n')
      edges;
    (Buffer.contents b, perm)
  in
  (* step 3: individualization-refinement over residual ties. Pick the
     least tied (key, local) cell — the first run of equal pairs in
     canonical order — individualize each member in turn, re-refine,
     recurse; the smallest full serialization is the certificate. The
     budget bounds the branch count; on exhaustion the index tie-break
     stands, which can only split what should collide (a missed hit),
     never merge what should differ beyond what MD5 already risks — and
     hits are re-verified anyway. *)
  let budget = ref 64 in
  let rec solve key0 rkey0 =
    let key, rkey = refine f ~rounds key0 rkey0 in
    let order = canonical_order key in
    let tied c =
      let a = order.(c) and b = order.(c + 1) in
      key.(a) = key.(b)
      && compare_sub locals loc_off.(a) (loc_len a) loc_off.(b) (loc_len b) = 0
    in
    let rec first_tie c =
      if c + 1 >= n then None else if tied c then Some c else first_tie (c + 1)
    in
    match first_tie 0 with
    | None -> serialize order
    | Some _ when !budget <= 0 -> serialize order
    | Some c ->
      (* the cell's members, in index order (the sort's last key) *)
      let rec cell c =
        order.(c) :: (if c + 1 < n && tied c then cell (c + 1) else [])
      in
      List.fold_left
        (fun best u ->
          decr budget;
          let key' = Array.copy key in
          key'.(u) <- mix key.(u) 1;
          let cand = solve key' rkey in
          match best with
          | Some (bs, _) when bs <= fst cand -> best
          | _ -> Some cand)
        None (cell c)
      |> Option.get
  in
  let s, perm = solve key0 f.rkey0 in
  if Buffer.length b > kept then Buffer.reset b;
  { fp = Digest.to_hex (Digest.string s); perm }

let of_loop g m = (canon g m).fp

(** Reference canonicalization: [Fingerprint.canon] as it was written
    before its work moved into per-domain flat arrays — a descriptor
    string per unit, a fresh array and sort closure per node per
    refinement round, a hash table reset twice a round to count
    distinct keys, the machine described on every call. The [serve]
    suite holds the library's [canon] to it: the same [fp] and [perm]
    on every graph. *)

module Ddg = Sp_core.Ddg
module Sunit = Sp_core.Sunit
module Machine = Sp_machine.Machine

type canon = Sp_serve.Fingerprint.canon = { fp : string; perm : int array }

let cls_char (v : Sp_ir.Vreg.t) =
  match v.Sp_ir.Vreg.cls with Sp_ir.Vreg.F -> 'F' | Sp_ir.Vreg.I -> 'I'

(* The renaming-invariant per-unit descriptor (step 1), built in [b]. *)
let local_descr b (u : Sunit.t) : string =
  let int = Ref_listing.add_decimal b in
  let accesses l =
    List.iter
      (fun (v, t) ->
        int t;
        Buffer.add_char b (cls_char v);
        Buffer.add_char b ',')
      l;
    Buffer.add_char b ';'
  in
  Buffer.clear b;
  int u.Sunit.len;
  Buffer.add_char b (if u.Sunit.no_wrap then 'w' else '-');
  Buffer.add_char b ';';
  List.iter
    (fun (off, rid) ->
      int off;
      Buffer.add_char b ':';
      int rid;
      Buffer.add_char b ',')
    (List.sort
       (fun (o, r) (o', r') ->
         if o <> o' then Int.compare o o' else Int.compare r r')
       u.Sunit.resv);
  Buffer.add_char b ';';
  (match u.Sunit.payload with
  | Sunit.P_op op ->
    Buffer.add_string b "op:";
    Buffer.add_string b (Ref_listing.kind_name op.Sp_ir.Op.kind)
  | Sunit.P_if _ -> Buffer.add_string b "if"
  | Sunit.P_loop _ -> Buffer.add_string b "loop");
  Buffer.add_char b ';';
  accesses u.Sunit.uses;
  accesses u.Sunit.defs;
  Buffer.contents b

(* ---- integer keys ---------------------------------------------------- *)

(* [fmix] is a bijection on OCaml's 63-bit ints — xor-shift and
   odd-multiplier rounds after splitmix64's finalizer — so it never
   merges two inputs; [mix h x] folds one more element into an
   accumulator, order-sensitively. *)
let fmix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let mix h x = fmix ((h * 0x2545f4914f6cdd1d) + x)

let hash_string s =
  let h = ref (String.length s) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

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
      Ref_listing.add_decimal b r.Machine.count;
      Buffer.add_char b ',')
    m.Machine.resources;
  Buffer.add_string b "|f";
  Ref_listing.add_decimal b m.Machine.fregs;
  Buffer.add_string b "|i";
  Ref_listing.add_decimal b m.Machine.iregs;
  Buffer.contents b

let canon (g : Ddg.t) (m : Machine.t) : canon =
  let units = g.Ddg.units in
  let n = Array.length units in
  let local = Array.map (local_descr (Buffer.create 64)) units in
  (* registers as a second node sort: index every distinct vreg in
     order of first access, so sharing that produces no dependence
     edge (read-read) still reaches the refinement *)
  let reg_idx : int Sp_util.Itbl.t = Sp_util.Itbl.create 32 in
  let reg_cls = ref [] in
  let idx_of (v : Sp_ir.Vreg.t) =
    match Sp_util.Itbl.find_opt reg_idx v.Sp_ir.Vreg.id with
    | Some r -> r
    | None ->
      let r = Sp_util.Itbl.length reg_idx in
      Sp_util.Itbl.replace reg_idx v.Sp_ir.Vreg.id r;
      reg_cls := cls_char v :: !reg_cls;
      r
  in
  (* The graph as flat arrays, built once. Unit [i]'s dependence edges
     sit at [nb_off.(i) .. nb_off.(i + 1) - 1] of [nb_node] (the other
     end) and [nb_lab] (a key of direction, delay and omega); its
     register accesses, uses then defs in operand order, at
     [ua_off.(i) ..] of [ua_reg] and [ua_lab] (a key of role, operand
     position and time). *)
  let nb_off = Array.make (n + 1) 0 and ua_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let u = units.(i) in
    nb_off.(i + 1) <-
      nb_off.(i) + List.length g.Ddg.succs.(i) + List.length g.Ddg.preds.(i);
    ua_off.(i + 1) <-
      ua_off.(i) + List.length u.Sunit.uses + List.length u.Sunit.defs
  done;
  let nb_node = Array.make nb_off.(n) 0 and nb_lab = Array.make nb_off.(n) 0 in
  let ua_reg = Array.make ua_off.(n) 0 and ua_lab = Array.make ua_off.(n) 0 in
  for i = 0 to n - 1 do
    let k = ref nb_off.(i) in
    let edge dir other (e : Ddg.edge) =
      nb_node.(!k) <- other;
      nb_lab.(!k) <- mix (mix dir e.Ddg.delay) e.Ddg.omega;
      incr k
    in
    List.iter (fun (e : Ddg.edge) -> edge 0 e.Ddg.dst e) g.Ddg.succs.(i);
    List.iter (fun (e : Ddg.edge) -> edge 1 e.Ddg.src e) g.Ddg.preds.(i);
    let k = ref ua_off.(i) in
    let access role p (v, t) =
      ua_reg.(!k) <- idx_of v;
      ua_lab.(!k) <- mix (mix role p) t;
      incr k
    in
    List.iteri (access 0) units.(i).Sunit.uses;
    List.iteri (access 1) units.(i).Sunit.defs
  done;
  let nr = Sp_util.Itbl.length reg_idx in
  (* the same accesses seen from the register side *)
  let ra_off = Array.make (nr + 1) 0 in
  Array.iter (fun r -> ra_off.(r + 1) <- ra_off.(r + 1) + 1) ua_reg;
  for r = 0 to nr - 1 do
    ra_off.(r + 1) <- ra_off.(r + 1) + ra_off.(r)
  done;
  let ra_unit = Array.make ua_off.(n) 0 and ra_lab = Array.make ua_off.(n) 0 in
  let fill = Array.sub ra_off 0 nr in
  for i = 0 to n - 1 do
    for k = ua_off.(i) to ua_off.(i + 1) - 1 do
      let r = ua_reg.(k) in
      ra_unit.(fill.(r)) <- i;
      ra_lab.(fill.(r)) <- ua_lab.(k);
      fill.(r) <- fill.(r) + 1
    done
  done;
  (* step 2: joint refinement of unit and register keys; register keys
     start from the class alone so the fingerprint survives renaming.
     A new key folds the node's own key, then every element of its
     sorted neighbour multiset — neighbour key mixed with the edge or
     access label — through [mix]. [Hashtbl.hash] of the multiset as
     one structured value would stop after a bounded prefix of a large
     multiset and leave spurious ties. *)
  let init_key = Array.map hash_string local in
  let init_rkey =
    Array.of_list (List.rev_map (fun c -> fmix (Char.code c)) !reg_cls)
  in
  let fold_sorted h elems =
    Array.sort Int.compare elems;
    Array.fold_left mix (mix h (Array.length elems)) elems
  in
  let rounds = min 16 (n + nr) in
  let seen = Sp_util.Itbl.create (2 * max n nr) in
  let distinct a =
    Sp_util.Itbl.reset seen;
    Array.iter (fun k -> Sp_util.Itbl.replace seen k ()) a;
    Sp_util.Itbl.length seen
  in
  let refine key0 rkey0 =
    let key = Array.copy key0 and rkey = Array.copy rkey0 in
    let next = Array.make n 0 and rnext = Array.make nr 0 in
    (* rehashing only ever splits key classes (an integer collision can
       merge two, which individualization below then resolves), so a
       round that leaves the distinct-key count unchanged is the
       fixpoint — bail out rather than burn the full round budget on
       every request *)
    let prev = ref (-1) in
    (try
       for _ = 1 to rounds do
         for i = 0 to n - 1 do
           let lo = nb_off.(i) in
           let nbrs =
             Array.init
               (nb_off.(i + 1) - lo)
               (fun k -> mix nb_lab.(lo + k) key.(nb_node.(lo + k)))
           in
           let h = ref (fold_sorted key.(i) nbrs) in
           (* accesses stay in intrinsic operand order: order is
              structure, only the register names are abstracted *)
           for k = ua_off.(i) to ua_off.(i + 1) - 1 do
             h := mix !h (mix ua_lab.(k) rkey.(ua_reg.(k)))
           done;
           next.(i) <- !h
         done;
         (* the operand position inside [ra_lab] is the load-bearing
            part: two registers whose only distinction is which operand
            slot of a non-commutative op they feed would otherwise stay
            tied forever, and the tie-break below would then number them
            by presentation order *)
         for r = 0 to nr - 1 do
           let lo = ra_off.(r) in
           let accs =
             Array.init
               (ra_off.(r + 1) - lo)
               (fun k -> mix ra_lab.(lo + k) key.(ra_unit.(lo + k)))
           in
           rnext.(r) <- fold_sorted rkey.(r) accs
         done;
         Array.blit next 0 key 0 n;
         Array.blit rnext 0 rkey 0 nr;
         let d = distinct key + distinct rkey in
         if d = !prev then raise Exit;
         prev := d
       done
     with Exit -> ());
    (key, rkey)
  in
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
          let c = String.compare local.(a) local.(b) in
          if c <> 0 then c else Int.compare a b)
      order;
    order
  in
  let edges = Array.of_list g.Ddg.edges in
  let mdescr = machine_descr m in
  let serialize order =
    let perm = Array.make n 0 in
    Array.iteri (fun c i -> perm.(i) <- c) order;
    let canon_reg = Array.make nr (-1) and next_reg = ref 0 in
    let b = Buffer.create 1024 in
    let int = Ref_listing.add_decimal b in
    Buffer.add_string b mdescr;
    Buffer.add_string b "|n";
    int n;
    Buffer.add_char b '|';
    Array.iter
      (fun i ->
        let u = units.(i) in
        Buffer.add_string b local.(i);
        (* the same accesses again, now with canonical register names *)
        let k = ref ua_off.(i) in
        let access _ =
          let r = ua_reg.(!k) in
          if canon_reg.(r) < 0 then begin
            canon_reg.(r) <- !next_reg;
            incr next_reg
          end;
          int canon_reg.(r);
          Buffer.add_char b ',';
          incr k
        in
        Buffer.add_char b '/';
        List.iter access u.Sunit.uses;
        Buffer.add_char b '/';
        List.iter access u.Sunit.defs;
        Buffer.add_char b '\n')
      order;
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
        int perm.(e.Ddg.src);
        Buffer.add_char b '>';
        int perm.(e.Ddg.dst);
        Buffer.add_char b ':';
        int e.Ddg.delay;
        Buffer.add_char b ':';
        int e.Ddg.omega;
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
    let key, rkey = refine key0 rkey0 in
    let order = canonical_order key in
    let tied c =
      let a = order.(c) and b = order.(c + 1) in
      key.(a) = key.(b) && String.equal local.(a) local.(b)
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
  let s, perm = solve init_key init_rkey in
  { fp = Digest.to_hex (Digest.string s); perm }


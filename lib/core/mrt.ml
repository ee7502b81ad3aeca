(** Resource reservation tables.

    {!Modulo} is the modulo resource reservation table of the paper's
    Section 2.1: "the resource usage of time t is mapped to that of
    time [t mod s]". {!Linear} is the unbounded table used when
    compacting straight-line code (no wrap-around). Both support
    tentative placement (check without committing).

    Representation: demand counters live in a flat slot-major int
    array ([slot * nres + rid] — one cache line covers a whole slot),
    and each resource additionally keeps a {e bitword occupancy row}
    with one bit per slot, set exactly when that (slot, resource) pair
    is at its limit. The conflict test on the scheduler's hot probe
    path is then a single load-and-mask per reservation entry instead
    of a counter/limit comparison through two levels of indirection.
    The counters remain authoritative: bits are maintained on every
    increment/decrement, so tentative probes and removals keep the
    invariant [bit set <=> count >= limit].

    A probe allocates nothing: it bumps the live counters entry by
    entry and, on success or failure alike, undoes the bumps by walking
    the reservation's prefix again (every helper is a top-level
    recursive function, so no closure is built either).

    A failed [fits] probe additionally records its {e conflict}: the
    first (slot, resource) pair whose limit the reservation would
    exceed, scanning the reservation in list order — deterministic, so
    the explainability layer can name the binding resource. The
    conflict is kept as two ints. Exactly one conflict is charged per
    failed [fits] call (the property the qcheck suite checks),
    accumulated per resource in {!Modulo.conflicts}. *)

open Sp_machine

(* 63 usable bits per OCaml int word *)
let bits = 63
let words_for slots = (slots + bits - 1) / bits

let fill_zero_limit_bits full ~words ~limits =
  Array.iteri
    (fun rid limit ->
      if limit <= 0 then Array.fill full (rid * words) words (-1))
    limits

module Modulo = struct
  type t = {
    s : int;
    nres : int;
    counts : int array; (* slot-major: [slot * nres + rid] *)
    full : int array;   (* per-resource bitword rows: [rid * words + slot/63] *)
    words : int;        (* bitwords per resource row *)
    limits : int array;
    conflicts : int array; (* failed probes charged per resource *)
    mutable conflict_slot : int; (* of the last failed probe *)
    mutable conflict_rid : int;  (* -1 until a probe fails *)
  }

  let create (m : Machine.t) ~s =
    if s <= 0 then invalid_arg "Mrt.Modulo.create: s <= 0";
    let nres = Machine.num_resources m in
    let words = words_for s in
    let limits = Array.map (fun r -> r.Machine.count) m.resources in
    let full = Array.make (nres * words) 0 in
    (* a zero-limit resource is full from the start *)
    fill_zero_limit_bits full ~words ~limits;
    {
      s;
      nres;
      counts = Array.make (s * nres) 0;
      full;
      words;
      limits;
      conflicts = Array.make nres 0;
      conflict_slot = -1;
      conflict_rid = -1;
    }

  let[@inline] slot_of t at off = ((at + off) mod t.s + t.s) mod t.s

  let[@inline] is_full t slot rid =
    t.full.((rid * t.words) + (slot / bits)) land (1 lsl (slot mod bits)) <> 0

  let[@inline] bump t slot rid =
    let i = (slot * t.nres) + rid in
    let v = t.counts.(i) + 1 in
    t.counts.(i) <- v;
    if v >= t.limits.(rid) then begin
      let w = (rid * t.words) + (slot / bits) in
      t.full.(w) <- t.full.(w) lor (1 lsl (slot mod bits))
    end

  let[@inline] unbump t slot rid =
    let i = (slot * t.nres) + rid in
    let v = t.counts.(i) - 1 in
    t.counts.(i) <- v;
    if v < t.limits.(rid) then begin
      let w = (rid * t.words) + (slot / bits) in
      t.full.(w) <- t.full.(w) land lnot (1 lsl (slot mod bits))
    end

  (* undo the tentative bumps of [resv]'s entries before the cell
     [stop] *)
  let rec undo t at resv stop =
    if resv != stop then
      match resv with
      | [] -> ()
      | (off, rid) :: rest ->
        unbump t (slot_of t at off) rid;
        undo t at rest stop

  (* A reservation may use one resource several times at offsets
     congruent mod s (e.g. a reduced construct), so demand accumulates
     per (slot, resource) as the reservation is scanned; the first
     entry that pushes a pair over its limit is the conflict. *)
  let rec scan t at resv = function
    | [] ->
      undo t at resv [];
      true
    | (off, rid) :: rest as cell ->
      let slot = slot_of t at off in
      if not (is_full t slot rid) then begin
        bump t slot rid;
        scan t at resv rest
      end
      else begin
        t.conflicts.(rid) <- t.conflicts.(rid) + 1;
        t.conflict_slot <- slot;
        t.conflict_rid <- rid;
        undo t at resv cell;
        false
      end

  let fits t ~at resv =
    Sp_obs.Cost.incr Sp_obs.Cost.Mrt_probe;
    scan t at resv resv

  let rec add t ~at = function
    | [] -> ()
    | (off, rid) :: rest ->
      bump t (slot_of t at off) rid;
      add t ~at rest

  let rec remove t ~at = function
    | [] -> ()
    | (off, rid) :: rest ->
      unbump t (slot_of t at off) rid;
      remove t ~at rest

  let conflicts t = Array.copy t.conflicts
  let conflict_slot t = t.conflict_slot
  let conflict_rid t = t.conflict_rid

  let last_conflict t =
    if t.conflict_rid < 0 then None else Some (t.conflict_slot, t.conflict_rid)
end

module Linear = struct
  type t = {
    mutable cap : int;          (* slots allocated *)
    mutable counts : int array; (* slot-major, grows on demand *)
    mutable full : int array;   (* per-resource bitword rows *)
    mutable words : int;        (* bitwords per resource row *)
    mutable high : int;         (* slots [0, high) may hold demand *)
    limits : int array;
    nres : int;
    conflicts : int array;
    mutable conflict_slot : int;
    mutable conflict_rid : int;
    mutable miss : int;
        (* unclamped slot of the last failed probe's conflicting entry *)
  }

  let init_cap = 16

  let create (m : Machine.t) =
    let nres = Machine.num_resources m in
    let limits = Array.map (fun r -> r.Machine.count) m.resources in
    let words = words_for init_cap in
    let full = Array.make (nres * words) 0 in
    fill_zero_limit_bits full ~words ~limits;
    {
      cap = init_cap;
      counts = Array.make (init_cap * nres) 0;
      full;
      words;
      high = 0;
      limits;
      nres;
      conflicts = Array.make nres 0;
      conflict_slot = -1;
      conflict_rid = -1;
      miss = 0;
    }

  (* One table per domain, reused by every compaction on it: loop
     analyses run on pool workers, and a table is only ever in use by
     one compaction at a time. Taking it clears the slots up to the
     high-water mark, so a compaction that raised midway cannot leave
     demand behind; a machine with other resource limits gets a fresh
     table. *)
  let per_domain : t option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let rec same_limits t (m : Machine.t) rid =
    rid < 0
    || t.limits.(rid) = (Machine.resource m rid).Machine.count
       && same_limits t m (rid - 1)

  let clear t =
    Array.fill t.counts 0 (t.high * t.nres) 0;
    let w = words_for t.high in
    for rid = 0 to t.nres - 1 do
      let empty = if t.limits.(rid) <= 0 then -1 else 0 in
      Array.fill t.full (rid * t.words) w empty
    done;
    Array.fill t.conflicts 0 t.nres 0;
    t.high <- 0;
    t.conflict_slot <- -1;
    t.conflict_rid <- -1

  let take m =
    let cell = Domain.DLS.get per_domain in
    match !cell with
    | Some t
      when t.nres = Machine.num_resources m && same_limits t m (t.nres - 1) ->
      clear t;
      t
    | _ ->
      let t = create m in
      cell := Some t;
      t

  (* amortized-doubling growth: never less than twice the current
     capacity, so n placements cost O(n) total regrowth work *)
  let ensure t len =
    if len > t.cap then begin
      let cap = Int.max len (2 * t.cap) in
      let counts = Array.make (cap * t.nres) 0 in
      Array.blit t.counts 0 counts 0 (t.cap * t.nres);
      let words = words_for cap in
      let full = Array.make (t.nres * words) 0 in
      fill_zero_limit_bits full ~words ~limits:t.limits;
      for rid = 0 to t.nres - 1 do
        Array.blit t.full (rid * t.words) full (rid * words) t.words
      done;
      t.cap <- cap;
      t.counts <- counts;
      t.full <- full;
      t.words <- words
    end

  let[@inline] is_full t slot rid =
    t.full.((rid * t.words) + (slot / bits)) land (1 lsl (slot mod bits)) <> 0

  let[@inline] bump t slot rid =
    let i = (slot * t.nres) + rid in
    let v = t.counts.(i) + 1 in
    t.counts.(i) <- v;
    if v >= t.limits.(rid) then begin
      let w = (rid * t.words) + (slot / bits) in
      t.full.(w) <- t.full.(w) lor (1 lsl (slot mod bits))
    end

  let[@inline] unbump t slot rid =
    let i = (slot * t.nres) + rid in
    let v = t.counts.(i) - 1 in
    t.counts.(i) <- v;
    if v < t.limits.(rid) then begin
      let w = (rid * t.words) + (slot / bits) in
      t.full.(w) <- t.full.(w) land lnot (1 lsl (slot mod bits))
    end

  let rec undo t at resv stop =
    if resv != stop then
      match resv with
      | [] -> ()
      | (off, rid) :: rest ->
        unbump t (at + off) rid;
        undo t at rest stop

  (* [fits] without its charges: records the conflict on failure *)
  let rec scan t at resv = function
    | [] ->
      undo t at resv [];
      true
    | (off, rid) :: rest as cell ->
      let slot = at + off in
      if
        slot >= 0
        && (ensure t (slot + 1);
            not (is_full t slot rid))
      then begin
        bump t slot rid;
        scan t at resv rest
      end
      else begin
        t.conflict_slot <- Int.max 0 slot;
        t.conflict_rid <- rid;
        t.miss <- slot;
        undo t at resv cell;
        false
      end

  let fits t ~at resv =
    Sp_obs.Cost.incr Sp_obs.Cost.Mrt_probe;
    scan t at resv resv
    || begin
      t.conflicts.(t.conflict_rid) <- t.conflicts.(t.conflict_rid) + 1;
      false
    end

  (* lowest set bit of a non-zero word *)
  let rec lowest x k = if x land 1 <> 0 then k else lowest (x lsr 1) (k + 1)

  (* The first slot at or after [slot] whose bit is clear in [rid]'s
     row; [max_int] for a resource with no units. Slots past the rows
     hold no demand. *)
  let next_clear t rid slot =
    if t.limits.(rid) <= 0 then max_int
    else begin
      let base = rid * t.words in
      let w = ref (slot / bits) in
      let free = ref (lnot t.full.(base + !w) land (-1 lsl (slot mod bits))) in
      while !free = 0 && !w + 1 < t.words do
        incr w;
        free := lnot t.full.(base + !w)
      done;
      if !free = 0 then t.words * bits else (!w * bits) + lowest !free 0
    end

  let bound = 1_000_000

  (* Probe [at], [at + 1], ... like a loop over [fits], but jump past
     slots that provably fail: when the conflicting entry [(off, rid)]
     found its slot already full in the table itself, every origin
     that puts that entry on the same run of full slots fails too, so
     the next candidate puts it on the row's next clear bit (or, for a
     slot before time 0, at time 0). A failure caused by the
     reservation's own repeated entries proves nothing about the next
     origin and steps by one. The result, the conflict left behind
     (the probe at [t - 1] is re-run when the jump passed over it) and
     the [mrt.probes] charge ([est .. t] inclusive) are the loop's. *)
  let rec search t ~est resv at evaluated =
    if at > est + bound then begin
      Sp_obs.Cost.add Sp_obs.Cost.Mrt_probe (bound + 1);
      invalid_arg "Listsched.compact: reservation exceeds machine capacity"
    end
    else if scan t at resv resv then begin
      if at > est && evaluated <> at - 1 then
        ignore (scan t (at - 1) resv resv : bool);
      Sp_obs.Cost.add Sp_obs.Cost.Mrt_probe (at - est + 1);
      at
    end
    else begin
      let slot = t.miss and rid = t.conflict_rid in
      let next =
        if slot < 0 then at - slot
        else if is_full t slot rid then begin
          let c = next_clear t rid slot in
          if c = max_int then max_int else at + (c - slot)
        end
        else at + 1
      in
      search t ~est resv (Int.min next (est + bound + 1)) at
    end

  let earliest t ~est resv = search t ~est resv est (est - 1)

  let rec add t ~at = function
    | [] -> ()
    | (off, rid) :: rest ->
      let slot = at + off in
      ensure t (slot + 1);
      if slot >= t.high then t.high <- slot + 1;
      bump t slot rid;
      add t ~at rest

  let conflicts t = Array.copy t.conflicts

  let last_conflict t =
    if t.conflict_rid < 0 then None else Some (t.conflict_slot, t.conflict_rid)
end

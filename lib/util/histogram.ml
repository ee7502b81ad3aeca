(** Fixed-bucket histograms (see the interface). *)

type t = {
  lo : float;          (** lower edge of the first bucket *)
  width : float;       (** bucket width *)
  counts : int array;  (** per-bucket counts; last bucket catches overflow *)
  mutable n : int;
  mutable total : float;
  mutable mn : float;  (** least sample; [infinity] when empty *)
  mutable mx : float;  (** greatest sample; [neg_infinity] when empty *)
}

let create ~lo ~width ~buckets =
  if width <= 0. then invalid_arg "Histogram.create: non-positive width";
  if buckets <= 0 then invalid_arg "Histogram.create: no buckets";
  {
    lo;
    width;
    counts = Array.make buckets 0;
    n = 0;
    total = 0.;
    mn = infinity;
    mx = neg_infinity;
  }

let add t x =
  let i = int_of_float (Float.floor ((x -. t.lo) /. t.width)) in
  let i = max 0 (min (Array.length t.counts - 1) i) in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let of_list ~lo ~width ~buckets xs =
  let t = create ~lo ~width ~buckets in
  List.iter (add t) xs;
  t

let count t = t.n
let mean t = if t.n = 0 then 0. else t.total /. float_of_int t.n
let minimum t = if t.n = 0 then None else Some t.mn
let maximum t = if t.n = 0 then None else Some t.mx

let same_shape a b =
  a.lo = b.lo && a.width = b.width
  && Array.length a.counts = Array.length b.counts

(* an independent copy: mutating the copy (or the original) does not
   affect the other *)
let copy t = { t with counts = Array.copy t.counts }

let merge a b =
  if not (same_shape a b) then invalid_arg "Histogram.merge: shape mismatch";
  (* empty fast paths double as the identity laws the shard-merge
     property relies on: merge with an empty histogram is a copy, so
     extrema stay [infinity]/[neg_infinity] only when BOTH are empty
     and [minimum]/[maximum] keep reporting [None] exactly when
     [count] is 0 *)
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else
    {
      lo = a.lo;
      width = a.width;
      counts =
        Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
      n = a.n + b.n;
      total = a.total +. b.total;
      mn = Float.min a.mn b.mn;
      mx = Float.max a.mx b.mx;
    }

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q outside [0,1]";
  if t.n = 0 then None
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let i = ref 0 and cum = ref 0 in
    while !cum + t.counts.(!i) < rank do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    (* midpoint estimate: the k-th of c samples in a bucket sits at
       fraction (k - 0.5)/c of the bucket, so q=0 clamps down to the
       minimum and q=1 up to the maximum *)
    let inside =
      (float_of_int (rank - !cum) -. 0.5) /. float_of_int t.counts.(!i)
    in
    let est = t.lo +. (t.width *. (float_of_int !i +. inside)) in
    Some (Float.max t.mn (Float.min t.mx est))
  end

let bucket_label t i =
  Printf.sprintf "%5.2f-%5.2f"
    (t.lo +. (float_of_int i *. t.width))
    (t.lo +. (float_of_int (i + 1) *. t.width))

let pp ?(bar_unit = 1) ppf t =
  Array.iteri
    (fun i c ->
      let bar = String.make (c / max 1 bar_unit) '#' in
      Fmt.pf ppf "%s | %-30s %d@." (bucket_label t i) bar c)
    t.counts

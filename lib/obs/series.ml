(** See the interface for the logical-clock and mergeability
    contracts. *)

module Histogram = Sp_util.Histogram

type t = {
  s_capacity : int;
  s_window : int;
  h_lo : float;
  h_width : float;
  h_buckets : int;
  seqs : int array;    (* ring, parallel to [vals] *)
  vals : float array;
  mutable head : int;  (* index of the oldest live sample *)
  mutable len : int;   (* live samples, <= s_capacity *)
  mutable total : int; (* samples ever recorded *)
  mutable next_seq : int;
}

let create ?(capacity = 4096) ?(window = 32) ~lo ~width ~buckets () =
  if capacity <= 0 then invalid_arg "Series.create: non-positive capacity";
  if window <= 0 then invalid_arg "Series.create: non-positive window";
  (* shape errors surface at create time, not at the first window *)
  ignore (Histogram.create ~lo ~width ~buckets);
  {
    s_capacity = capacity;
    s_window = window;
    h_lo = lo;
    h_width = width;
    h_buckets = buckets;
    seqs = Array.make capacity 0;
    vals = Array.make capacity 0.;
    head = 0;
    len = 0;
    total = 0;
    next_seq = 0;
  }

let add ?seq t v =
  let seq = match seq with Some s -> s | None -> t.next_seq in
  t.next_seq <- seq + 1;
  if t.len < t.s_capacity then begin
    let i = (t.head + t.len) mod t.s_capacity in
    t.seqs.(i) <- seq;
    t.vals.(i) <- v;
    t.len <- t.len + 1
  end
  else begin
    (* full: the oldest sample makes room *)
    t.seqs.(t.head) <- seq;
    t.vals.(t.head) <- v;
    t.head <- (t.head + 1) mod t.s_capacity
  end;
  t.total <- t.total + 1

let count t = t.total
let capacity t = t.s_capacity
let window_size t = t.s_window

let retained t =
  List.init t.len (fun k ->
      let i = (t.head + k) mod t.s_capacity in
      (t.seqs.(i), t.vals.(i)))

type window = {
  w_index : int;
  w_count : int;
  w_sum : float;
  w_min : float;
  w_max : float;
  w_hist : Histogram.t;
}

let empty_window t index =
  {
    w_index = index;
    w_count = 0;
    w_sum = 0.;
    w_min = infinity;
    w_max = neg_infinity;
    w_hist = Histogram.create ~lo:t.h_lo ~width:t.h_width ~buckets:t.h_buckets;
  }

let window_add w v =
  Histogram.add w.w_hist v;
  {
    w with
    w_count = w.w_count + 1;
    w_sum = w.w_sum +. v;
    w_min = Float.min w.w_min v;
    w_max = Float.max w.w_max v;
  }

(* Windows are built by one pass over the retained ring. Samples arrive
   in recording order; a campaign shard may index by seed out of
   arrival order, so group via a table rather than assuming the ring is
   seq-sorted. *)
let windows t =
  let tbl = Hashtbl.create ~random:false 16 in
  List.iter
    (fun (seq, v) ->
      let ix = seq / t.s_window in
      let w =
        match Hashtbl.find_opt tbl ix with
        | Some w -> w
        | None -> empty_window t ix
      in
      Hashtbl.replace tbl ix (window_add w v))
    (retained t);
  Hashtbl.fold (fun _ w acc -> w :: acc) tbl []
  |> List.sort (fun a b -> compare a.w_index b.w_index)

let window_at t index =
  List.fold_left
    (fun w (seq, v) -> if seq / t.s_window = index then window_add w v else w)
    (empty_window t index) (retained t)

let merge_window a b =
  if a.w_index <> b.w_index then
    invalid_arg "Series.merge_window: window index mismatch";
  {
    w_index = a.w_index;
    w_count = a.w_count + b.w_count;
    w_sum = a.w_sum +. b.w_sum;
    w_min = Float.min a.w_min b.w_min;
    w_max = Float.max a.w_max b.w_max;
    w_hist = Histogram.merge a.w_hist b.w_hist;
  }

let quantile w q = Histogram.quantile w.w_hist q

let merge a b =
  if
    a.s_capacity <> b.s_capacity || a.s_window <> b.s_window
    || a.h_lo <> b.h_lo || a.h_width <> b.h_width
    || a.h_buckets <> b.h_buckets
  then invalid_arg "Series.merge: shape mismatch";
  let pts =
    List.stable_sort
      (fun (s1, _) (s2, _) -> compare s1 s2)
      (retained a @ retained b)
  in
  (* keep the newest [capacity] samples, as if they all passed through
     one ring in seq order *)
  let n = List.length pts in
  let pts =
    if n <= a.s_capacity then pts
    else List.filteri (fun i _ -> i >= n - a.s_capacity) pts
  in
  let t =
    create ~capacity:a.s_capacity ~window:a.s_window ~lo:a.h_lo
      ~width:a.h_width ~buckets:a.h_buckets ()
  in
  List.iter (fun (seq, v) -> add ~seq t v) pts;
  t.total <- a.total + b.total;
  t.next_seq <- max a.next_seq b.next_seq;
  t

let json_of_window w : Json.t =
  let q p =
    match quantile w p with None -> Json.Null | Some v -> Json.Float v
  in
  Json.Obj
    [
      ("window", Json.Int w.w_index);
      ("count", Json.Int w.w_count);
      ("sum", Json.Float w.w_sum);
      ("min", if w.w_count = 0 then Json.Null else Json.Float w.w_min);
      ("max", if w.w_count = 0 then Json.Null else Json.Float w.w_max);
      ("p50", q 0.5);
      ("p99", q 0.99);
    ]

let to_json t : Json.t =
  Json.Obj
    [
      ("schema", Json.Str "series/1");
      ("count", Json.Int t.total);
      ("retained", Json.Int t.len);
      ("capacity", Json.Int t.s_capacity);
      ("window_size", Json.Int t.s_window);
      ("windows", Json.List (List.map json_of_window (windows t)));
    ]

(** Benchmark-side spans around calls into the compiler's layers.

    A span has a name ([layer.what]), a start and an end on the
    monotonic clock, the span that encloses it, and the id of the item
    (one program, or one service request) it belongs to. Spans are kept
    in memory while the traced rounds run and written out once at the
    end. When recording is off, {!record} is one branch. *)

type t = {
  id : int;
  name : string;
  item : int;
  parent : int;  (** [-1] for a top-level span *)
  start : int64;  (** ns *)
  stop : int64;
}

let now = Monotonic_clock.now
let on = ref false
let item = ref 0
let next = ref 0
let stack : int list ref = ref []
let log : t list ref = ref []

let record name f =
  if not !on then f ()
  else begin
    let id = !next in
    incr next;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        stack := List.tl !stack;
        log := { id; name; item = !item; parent; start; stop } :: !log)
  end

(** The spans recorded since the last call, oldest first. *)
let take () =
  let l = List.rev !log in
  log := [];
  l

let seconds s = Int64.to_float (Int64.sub s.stop s.start) *. 1e-9

(** ["lang.frontend"] belongs to layer ["lang"]; the benchmark's own
    per-item span ["item"] to layer ["bench"]. *)
let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> "bench"

let layers = [ "bench"; "lang"; "core"; "opt"; "serve"; "vliw"; "ir"; "camp" ]

let sum_by key spans f =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let k = key s in
      Hashtbl.replace tbl k (f s +. Option.value ~default:0. (Hashtbl.find_opt tbl k)))
    spans;
  fun k -> Option.value ~default:0. (Hashtbl.find_opt tbl k)

(** Total seconds spent in spans of each name. *)
let total_by_name spans = sum_by (fun s -> s.name) spans seconds

(** Self time per layer: each span's duration minus the part of it its
    children cover (children run inside their parent, one at a time). *)
let self_by_layer spans =
  let child = sum_by (fun s -> s.parent) spans seconds in
  sum_by layer spans (fun s -> seconds s -. child s.id)

(** One JSON object per line, times in ns from the first span. *)
let write path spans =
  let t0 = List.fold_left (fun t s -> min t s.start) Int64.max_int spans in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"item\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.item s.parent (Int64.sub s.start t0) (Int64.sub s.stop t0))
    spans

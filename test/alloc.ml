(** Allocation probes shared by the suites. *)

(** Minor words allocated by [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(** Minor collections made by [f ()] from an empty minor heap. Fails
    unless [f] allocates less than the minor heap holds, so that every
    collection counted was forced rather than made for room. *)
let minor_collections f =
  Gc.minor ();
  let words = Gc.minor_words () in
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  ignore (Sys.opaque_identity (f ()));
  let collections = (Gc.quick_stat ()).Gc.minor_collections - before in
  let words = Gc.minor_words () -. words in
  let heap = (Gc.get ()).Gc.minor_heap_size in
  if words >= float_of_int heap then
    Alcotest.failf "allocated %.0f words, more than the %d-word minor heap"
      words heap;
  collections

(** Words [f ()] allocates straight in the major heap: the major words
    it allocates less those its minor collections promote. *)
let direct_major_words f =
  let _, promoted, major = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let _, promoted', major' = Gc.counters () in
  major' -. major -. (promoted' -. promoted)

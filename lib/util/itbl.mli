(** A lookup-only hash table keyed by [int].

    [Hashtbl.Make] over [int] with [Int.equal] and [hash x = x land
    max_int]: a lookup is one inlined mask and integer compares, where
    the polymorphic [Hashtbl] pays a [caml_hash] and a [compare] C call.

    There is deliberately no [fold] or [iter]: a table's bucket order
    can never reach an output. A table whose contents must be walked
    stays a polymorphic [Hashtbl] until its walk is replaced by a
    stated sort. *)

type 'a t

val create : int -> 'a t
val reset : 'a t -> unit
val find_opt : 'a t -> int -> 'a option
val replace : 'a t -> int -> 'a -> unit
val mem : 'a t -> int -> bool
val length : 'a t -> int

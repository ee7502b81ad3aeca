(** Lookup-only int-keyed table; see the interface. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

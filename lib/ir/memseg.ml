(** Memory segments.

    The data memory is modeled as a set of named segments (one per
    source-level array), which keeps the dependence analysis and the
    interpreter simple without losing anything the paper needs: W2
    arrays are statically allocated and distinct. A segment can be
    marked [independent], reproducing the paper's "compiler directives
    to disambiguate array references" (the starred kernels of
    Table 4-2): carried memory dependences on such a segment are not
    generated. *)

type elt = Float_elt | Int_elt

type t = {
  sid : int;
  sname : string;
  size : int;
  elt : elt;
  independent : bool;
}

let equal a b = a.sid = b.sid

module Supply = struct
  type supply = { mutable next : int }

  let create () = { next = 0 }

  let fresh s ?(independent = false) ?(elt = Float_elt) ~name ~size () =
    let sid = s.next in
    s.next <- sid + 1;
    { sid; sname = name; size; elt; independent }
end

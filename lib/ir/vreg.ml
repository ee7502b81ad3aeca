(** Virtual registers.

    Registers are typed by class — [F] (floating point) or [I]
    (integer) — matching the split register files of the Warp cell.
    Register allocation proper is not performed (the paper's compiler
    assumes the files are large enough, Section 2.3); instead modulo
    variable expansion checks expanded counts against file capacities. *)

type cls = F | I

type t = { id : int; cls : cls; name : string }

let compare a b = compare a.id b.id
let equal a b = a.id = b.id

let to_buffer b v =
  Buffer.add_char b '%';
  Buffer.add_char b (match v.cls with F -> 'f' | I -> 'i');
  Sp_util.Intmath.add_decimal b v.id;
  if not (String.equal v.name "") then begin
    Buffer.add_char b ':';
    Buffer.add_string b v.name
  end

let to_string v =
  let b = Buffer.create 16 in
  to_buffer b v;
  Buffer.contents b

let pp ppf v = Fmt.string ppf (to_string v)

(** Fresh-register supply. A supply is local to a program under
    construction; ids are dense from 0 so downstream passes can use
    arrays indexed by register id. *)
module Supply = struct
  type supply = { mutable next : int }

  let create () = { next = 0 }
  let count s = s.next
  let copy s = { next = s.next }

  let fresh s ?(name = "") cls =
    let id = s.next in
    s.next <- id + 1;
    { id; cls; name }
end

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare
end)

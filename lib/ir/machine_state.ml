(** Architectural state shared by the reference interpreter and the
    VLIW simulators: the typed register files, data memory (one array
    per segment), and the communication queues. Final states are
    comparable, which is how every scheduled program is validated
    against the sequential semantics. *)

type value = VF of float | VI of int

exception Type_error of string
exception Out_of_bounds of string
exception Channel_empty of int

type segdata = SF of float array | SI of int array

type chan = {
  mutable buf : float array;
  mutable head : int;
  mutable tail : int;
}

type t = {
  f : float array;
  fset : Bytes.t;
  i : int array;
  mem : segdata option array;
  rx : chan array;
  tx : chan array;
  output : chan array;
  res_f : float array;
  res_i : int array;
}

let chan xs = { buf = Array.of_list xs; head = 0; tail = List.length xs }
let chan_to_list q = List.init (q.tail - q.head) (fun k -> q.buf.(q.head + k))

let create ?(channels = 2) ~regs (p : Program.t) =
  let regs = max 1 regs in
  let nsegs =
    List.fold_left (fun n (s : Memseg.t) -> max n (s.sid + 1)) 0 p.segs
  in
  let mem = Array.make nsegs None in
  List.iter
    (fun (s : Memseg.t) ->
      let data =
        match s.elt with
        | Memseg.Float_elt -> SF (Array.make s.size 0.0)
        | Memseg.Int_elt -> SI (Array.make s.size 0)
      in
      mem.(s.sid) <- Some data)
    p.segs;
  let output = Array.init channels (fun _ -> chan []) in
  {
    f = Array.make regs 0.0;
    fset = Bytes.make regs '\000';
    i = Array.make regs 0;
    mem;
    rx = Array.init channels (fun _ -> chan []);
    tx = Array.copy output;
    output;
    res_f = [| 0.0 |];
    res_i = [| 0 |];
  }

let set_input t ch xs =
  if ch < 0 || ch >= Array.length t.rx then
    invalid_arg "Machine_state.set_input: bad channel";
  let q = t.rx.(ch) in
  q.buf <- Array.of_list xs;
  q.head <- 0;
  q.tail <- Array.length q.buf

let link t ~rx ~tx =
  Array.blit rx 0 t.rx 0 (Array.length t.rx);
  Array.blit tx 0 t.tx 0 (Array.length t.tx)

let outputs t ch = chan_to_list t.output.(ch)

let read t (v : Vreg.t) =
  match v.cls with
  | Vreg.F -> if Bytes.get t.fset v.id = '\000' then VI 0 else VF t.f.(v.id)
  | Vreg.I -> VI t.i.(v.id)

let write t (v : Vreg.t) x =
  match (v.cls, x) with
  | Vreg.F, VF y ->
    t.f.(v.id) <- y;
    Bytes.set t.fset v.id '\001'
  | Vreg.I, VI n -> t.i.(v.id) <- n
  | Vreg.F, VI _ -> raise (Type_error "int value for a float register")
  | Vreg.I, VF _ -> raise (Type_error "float value for an int register")

let find t sid =
  if sid >= 0 && sid < Array.length t.mem then t.mem.(sid) else None

let seg_data t (s : Memseg.t) =
  match find t s.sid with
  | Some d -> d
  | None ->
    invalid_arg
      (Printf.sprintf "Machine_state: unknown segment %s" s.sname)

(** Initialize a float segment from a generator (for test fixtures and
    the benchmark workloads). *)
let init_farray t (s : Memseg.t) f =
  match seg_data t s with
  | SF a ->
    (* an index loop: [Array.iteri] would box each element it passes *)
    for i = 0 to Array.length a - 1 do
      a.(i) <- f i
    done
  | SI _ -> invalid_arg "init_farray: int segment"

let init_iarray t (s : Memseg.t) f =
  match seg_data t s with
  | SI a -> Array.iteri (fun i _ -> a.(i) <- f i) a
  | SF _ -> invalid_arg "init_iarray: float segment"

let get_farray t (s : Memseg.t) =
  match seg_data t s with
  | SF a -> Array.copy a
  | SI _ -> invalid_arg "get_farray: int segment"

let get_iarray t (s : Memseg.t) =
  match seg_data t s with
  | SI a -> Array.copy a
  | SF _ -> invalid_arg "get_iarray: float segment"

(** Structural equality of two final states: registers are {e not}
    compared (schedules legitimately leave different garbage in
    temporaries); memory and channel outputs are. *)
let observably_equal a b =
  let seg_eq sid = function
    | None -> true
    | Some d -> (
      match (d, find b sid) with
      | SF x, Some (SF y) ->
        Array.length x = Array.length y && Array.for_all2 Float.equal x y
      | SI x, Some (SI y) -> x = y
      | _ -> false)
  in
  Seq.for_all (fun (sid, d) -> seg_eq sid d) (Array.to_seqi a.mem)
  && Array.for_all2
       (fun x y -> List.equal Float.equal (chan_to_list x) (chan_to_list y))
       a.output b.output

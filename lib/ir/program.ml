(** A whole IR program: memory segments plus a region tree, together
    with the register/operation supplies so later passes can create
    fresh names. *)

type t = {
  name : string;
  segs : Memseg.t list;
  body : Region.t;
  vregs : Vreg.Supply.supply;
  ops : Op.Supply.supply;
}

let num_vregs p = Vreg.Supply.count p.vregs

let find_seg p name =
  match List.find_opt (fun s -> String.equal s.Memseg.sname name) p.segs with
  | Some s -> s
  | None ->
    invalid_arg (Printf.sprintf "Program.find_seg: no segment %S" name)

let pp ppf p =
  Fmt.pf ppf "program %s@." p.name;
  List.iter
    (fun (s : Memseg.t) ->
      Fmt.pf ppf "  array %s[%d]%s@." s.sname s.size
        (if s.independent then " (independent)" else ""))
    p.segs;
  Region.pp ppf p.body

(** Structural statistics, used by the reporting harness. *)
type stats = {
  n_ops : int;
  n_loops : int;
  n_innermost : int;
  n_ifs : int;
}

let stats p =
  let n_loops = ref 0 and n_ifs = ref 0 in
  let rec go = function
    | Region.Ops _ -> ()
    | Region.Seq rs -> List.iter go rs
    | Region.If { then_; else_; _ } ->
      incr n_ifs;
      go then_;
      go else_
    | Region.For { body; _ } ->
      incr n_loops;
      go body
  in
  go p.body;
  {
    n_ops = Region.ops_count p.body;
    n_loops = !n_loops;
    n_innermost = List.length (Region.innermost_loops p.body);
    n_ifs = !n_ifs;
  }

(** Strongly connected components (Tarjan 1972), the preprocessing step
    of the paper's Section 2.2.2: cyclic dependence graphs are
    scheduled component by component, then condensed into an acyclic
    graph. *)

type t = {
  comp_of : int array;      (** node -> component index *)
  comps : int list array;   (** component -> member nodes, in input order *)
  nontrivial : bool array;  (** more than one node, or a self edge *)
}

let num_components t = Array.length t.comps

(** [compute ~n ~succs] where [succs i] lists the successor nodes of
    [i]. Component indices are in reverse topological order of the
    condensed graph (Tarjan's property); {!topo_components} gives the
    forward order. *)
let compute ~n ~succs =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let comp_of = Array.make n (-1) in
  let comps = ref [] in
  let ncomps = ref 0 in
  (* explicit work stack to avoid deep recursion on long chains *)
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succs v);
    if lowlink.(v) = index.(v) then begin
      let rec pop accu =
        match !stack with
        | [] -> accu
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp_of.(w) <- !ncomps;
          if w = v then w :: accu else pop (w :: accu)
      in
      let members = pop [] in
      comps := members :: !comps;
      incr ncomps
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (* [!comps] is last component first; members are normalized to input
     order. The array is made from the immediate [[]] and filled: OCaml
     5 forces a minor collection to make an array of more than 256
     words from a young element. *)
  let comps =
    let a = Array.make !ncomps [] in
    List.iteri
      (fun k members -> a.(!ncomps - 1 - k) <- List.sort Int.compare members)
      !comps;
    a
  in
  let nontrivial =
    Array.map
      (fun members ->
        match members with
        | [ v ] -> List.exists (fun w -> w = v) (succs v)
        | _ -> true)
      comps
  in
  { comp_of; comps; nontrivial }

(** Component indices in topological order of the condensed graph
    (sources first). *)
let topo_components t =
  List.rev (Sp_util.Intmath.range 0 (Array.length t.comps))

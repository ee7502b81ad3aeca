(* Graphviz export of dependence graphs, recurrences as clusters. *)

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let pp ?(name = "ddg") ppf (g : Ddg.t) =
  let scc =
    Scc.compute
      ~n:(Array.length g.Ddg.units)
      ~succs:(fun v -> List.map (fun (e : Ddg.edge) -> e.Ddg.dst) g.Ddg.succs.(v))
  in
  let node ppf i =
    Fmt.pf ppf "n%d [label=\"%s\"];" i
      (escape (Fmt.str "%a" Sunit.pp g.Ddg.units.(i)))
  in
  Fmt.pf ppf "digraph %s {@." name;
  Fmt.pf ppf "  rankdir=TB; node [shape=box, fontsize=10];@.";
  (* recurrences as clusters, in the scheduling (topological) order *)
  let k = ref 0 in
  let clustered = Array.make (Array.length g.Ddg.units) false in
  List.iter
    (fun c ->
      if scc.Scc.nontrivial.(c) then begin
        Fmt.pf ppf
          "  subgraph cluster_%d {@.    label=\"scc %d\"; style=filled; \
           color=gray80; fillcolor=gray95;@."
          !k !k;
        List.iter
          (fun v ->
            clustered.(v) <- true;
            Fmt.pf ppf "    %a@." node v)
          scc.Scc.comps.(c);
        Fmt.pf ppf "  }@.";
        incr k
      end)
    (Scc.topo_components scc);
  Array.iteri
    (fun i _ -> if not clustered.(i) then Fmt.pf ppf "  %a@." node i)
    g.Ddg.units;
  List.iter
    (fun (e : Ddg.edge) ->
      if e.Ddg.omega = 0 then
        Fmt.pf ppf "  n%d -> n%d [label=\"%d\"];@." e.Ddg.src e.Ddg.dst
          e.Ddg.delay
      else
        Fmt.pf ppf
          "  n%d -> n%d [label=\"%d,w%d\", style=dashed, color=\"#b03030\", \
           fontcolor=\"#b03030\", constraint=false];@."
          e.Ddg.src e.Ddg.dst e.Ddg.delay e.Ddg.omega)
    g.Ddg.edges;
  Fmt.pf ppf "}@."

let to_string ?name g = Fmt.str "%a" (pp ?name) g

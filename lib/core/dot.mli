(** Graphviz export of dependence graphs, for debugging schedules and
    for documentation.

    Nontrivial strongly connected components — the recurrences the
    scheduler places first (Section 2.2.2) — are drawn as
    [cluster_K] subgraphs, numbered in the condensation's topological
    order so the picture matches the decision log's "SCC scheduling
    order" line. Intra-iteration edges are solid; loop-carried edges
    ([omega > 0]) are dashed, colored, and labelled with their
    iteration distance. *)

val to_string : ?name:string -> Ddg.t -> string
(** The graph as a [digraph] named [name] (default ["ddg"]). *)

(** Programs the checker, equality and compaction properties draw
    from: the Livermore kernels, the population programs and Wgen seeds
    1–40 (seed 31 is 1,922 words long), each compiled once for Warp at
    the default configuration and named. *)

module C = Sp_core.Compile

let warp = Sp_machine.Machine.warp

(* The source programs, named. *)
let sources : (string * Sp_ir.Program.t) list Lazy.t =
  lazy
    (let kernel (k : Sp_kernels.Kernel.t) =
       (k.Sp_kernels.Kernel.name, Sp_kernels.Kernel.program k)
     in
     List.map kernel Sp_kernels.Livermore.all
     @ List.map
         (fun (e : Sp_kernels.Suite.entry) -> kernel e.Sp_kernels.Suite.kernel)
         Sp_kernels.Suite.all
     @ List.init 40 (fun i ->
           let seed = i + 1 in
           ( Printf.sprintf "wgen/%d" seed,
             Sp_lang.Lower.compile_source
               (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed)) )))

let programs : (string * Sp_vliw.Prog.t) array Lazy.t =
  lazy
    (Array.of_list
       (List.map
          (fun (name, p) -> (name, (C.program warp p).C.code))
          (Lazy.force sources)))

(** The [k]th program, [k] taken modulo their number. *)
let nth k =
  let progs = Lazy.force programs in
  progs.(k mod Array.length progs)

(** Every graph each source's compile list-schedules
    ({!Sp_core.Compile.compaction_graphs}), named like {!programs}. *)
let compaction_graphs : (string * Sp_core.Ddg.t list) array Lazy.t =
  lazy
    (Array.of_list
       (List.map
          (fun (name, p) -> (name, C.compaction_graphs warp p))
          (Lazy.force sources)))

(** The sources one round of the service workload sends: the 72
    population programs' W2 texts, then Wgen seeds 1001–1072, named
    ({!Compile_sets.service_sources}). *)
let service_sources : (string * string) list Lazy.t =
  lazy (Compile_sets.service_sources ())

(** The graphs a default compile of [p] hands its schedule cache, in
    probe order: a cache that records each probe and never hits. *)
let probe_graphs m p =
  let graphs = ref [] in
  let cache_probe _ g ~mii:_ ~max_ii:_ =
    graphs := g :: !graphs;
    { C.cp_hit = None; cp_commit = ignore }
  in
  ignore (C.program ~config:{ C.default with C.cache = Some { C.cache_probe } } m p);
  List.rev !graphs

(** Every graph a compile of the service sources probes the cache
    with, for Warp at the default configuration. *)
let service_probes : Sp_core.Ddg.t array Lazy.t =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (_, src) -> probe_graphs warp (Sp_lang.Lower.compile_source src))
          (Lazy.force service_sources)))

(** The benchmark workloads' compile sets: the test suite's
    allocation gates run over the [service] set's sources, and the
    developer utilities that measure a compile pass
    ([devtools/compile_alloc.ml], [devtools/span_split.ml]) copy this
    file. Each set is its programs, lowered once and named, the
    configuration they compile under, and whether it certifies:

    - [campaign]: Wgen seeds 1–64 at the default configuration (the
      oracle's [-j 1] compile);
    - [certify]: Wgen seeds 1–240 except 45, 87, 115 and 116, compiled
      with [Certify.hook ()];
    - [livermore]: the 20 Livermore kernels, compiled with
      [Certify.hook ~fuel:400_000 ()];
    - [service]: the 72 population programs and Wgen seeds 1001–1072
      at the default configuration (what the service workload's
      requests compile). *)

module C = Sp_core.Compile

let names = [ "campaign"; "certify"; "livermore"; "service" ]

let wgen_source seed =
  (Printf.sprintf "wgen/%d" seed, Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed))

let lower (name, src) = (name, Sp_lang.Lower.compile_source src)

(* Each seed is lowered as it is printed. [compile_alloc]'s forced
   collections depend on the heap a set leaves behind: printing every
   [certify] seed first made its second pass force one. *)
let wgen seeds = List.map (fun seed -> lower (wgen_source seed)) seeds

(** The W2 sources of the [service] set, in its order: what one round
    of the service workload sends. *)
let service_sources () =
  List.filter_map
    (fun (e : Sp_kernels.Suite.entry) ->
      let k = e.Sp_kernels.Suite.kernel in
      match k.Sp_kernels.Kernel.source with
      | Sp_kernels.Kernel.W2 s -> Some (k.Sp_kernels.Kernel.name, s)
      | Sp_kernels.Kernel.Ir _ -> None)
    Sp_kernels.Suite.all
  @ List.init 72 (fun i -> wgen_source (i + 1001))

(** The set [name], its certifier passed through [certifier] (which a
    caller may wrap to count inside it); [None] for an unknown name. *)
let find ?(certifier = Fun.id) name =
  match name with
  | "campaign" -> Some (wgen (List.init 64 (fun i -> i + 1)), C.default, false)
  | "certify" ->
    Some
      ( wgen
          (List.filter
             (fun s -> not (List.mem s [ 45; 87; 115; 116 ]))
             (List.init 240 (fun i -> i + 1))),
        { C.default with C.certifier = Some (certifier (Sp_opt.Certify.hook ())) },
        true )
  | "livermore" ->
    Some
      ( List.map
          (fun (k : Sp_kernels.Kernel.t) ->
            (k.Sp_kernels.Kernel.name, Sp_kernels.Kernel.program k))
          Sp_kernels.Livermore.all,
        { C.default with
          C.certifier = Some (certifier (Sp_opt.Certify.hook ~fuel:400_000 ())) },
        true )
  | "service" -> Some (List.map lower (service_sources ()), C.default, false)
  | _ -> None

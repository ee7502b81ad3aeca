(** Compiled programs the checker and equality properties draw from:
    the Livermore kernels, the population programs and Wgen seeds 1–40
    (seed 31 is 1,922 words long), each compiled once for Warp at the
    default configuration and named. *)

module C = Sp_core.Compile

let warp = Sp_machine.Machine.warp

let programs : (string * Sp_vliw.Prog.t) array Lazy.t =
  lazy
    (let kernel (k : Sp_kernels.Kernel.t) =
       (k.Sp_kernels.Kernel.name, (C.program warp (Sp_kernels.Kernel.program k)).C.code)
     in
     Array.of_list
       (List.map kernel Sp_kernels.Livermore.all
       @ List.map
           (fun (e : Sp_kernels.Suite.entry) -> kernel e.Sp_kernels.Suite.kernel)
           Sp_kernels.Suite.all
       @ List.init 40 (fun i ->
             let seed = i + 1 in
             let p =
               Sp_lang.Lower.compile_source
                 (Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed))
             in
             (Printf.sprintf "wgen/%d" seed, (C.program warp p).C.code))))

(** The [k]th program, [k] taken modulo their number. *)
let nth k =
  let progs = Lazy.force programs in
  progs.(k mod Array.length progs)

(** Parametric VLIW machine descriptions: resources, per-operation
    latencies and reservations, register-file capacities, clock rate.
    The same scheduler drives the Warp-like cell of the paper, the toy
    machine of its Section 2 example, and scaled datapaths for the
    Section 6 experiment. *)

type resource = {
  rid : int;          (** dense index, [0 .. num_resources-1] *)
  rname : string;
  count : int;        (** available units per instruction *)
}

type reservation = (int * int) list
(** Resource units an operation occupies: [(cycle offset, resource id)]
    pairs. All machines in this repository reserve at offset 0 only
    (fully pipelined units). *)

type opinfo = {
  latency : int;   (** result readable [latency] cycles after issue *)
  reservation : reservation;
}

type t = {
  name : string;
  resources : resource array;
  info : Opkind.t -> opinfo;
  clock_mhz : float;
  fregs : int;  (** FP register-file capacity *)
  iregs : int;  (** integer register-file capacity *)
}

val num_resources : t -> int
val resource : t -> int -> resource

val find_resource : t -> string -> resource
(** Raises [Invalid_argument] for an unknown name. *)

val latency : t -> Opkind.t -> int
val reservation : t -> Opkind.t -> reservation

val mflops : t -> flops:int -> cycles:int -> float
(** Achieved MFLOPS for a measured run; 0 when [cycles = 0]. *)

(** {1 Building descriptions} *)

type builder

(** {1 Stock machines} *)

val warp : t
(** The Warp-like cell: 7-cycle FP add/mul (5 pipeline stages + 2-cycle
    register-file delay), integer ALU, dedicated address unit,
    single-ported memory, two I/O queue pairs, one sequencer; 5 MHz,
    10 MFLOPS peak; 62 FP / 64 integer registers. *)

val warp_scaled : width:int -> t
(** [width] replicates adders, multipliers, ALUs, memory ports, address
    units and register files (the sequencer stays single) — the
    Section 6 scalability experiment. *)

val toy : t
(** The datapath of the paper's Section 2 worked example: independent
    memory-read, add and memory-write units; 1-cycle loads, 2-cycle
    adds. [a(i) := a(i) + K] pipelines at an initiation interval of 1. *)

val serial : t
(** One universal issue slot, unit latencies: any legal schedule is a
    permutation of the operations. For baseline sanity checks. *)

val max_width : int
(** The widest [warpNx] a name may ask for: 64. *)

val of_string : string -> (t, string) result
(** The machine a name denotes: [warp], [toy], [serial], or [warpNx]
    for {!warp_scaled} at width [N], written in decimal with no sign
    and no leading zero, [1 <= N <= max_width]. Any other name is
    [Error "unknown machine \"…\""]. *)

(** Modulo variable expansion (paper Section 2.3).

    A variable that is redefined at the beginning of every iteration
    would, with a single register, force successive iterations apart by
    its whole lifetime. Before scheduling, {!Ddg.build} drops the
    carried anti- and output-dependences for such variables; after
    scheduling, this module:

    - measures each candidate's lifetime [l] in the schedule and the
      number of simultaneously live values [q = floor(l/s) + 1];
    - picks the steady-state unrolling degree: [u = max q_i] by
      default (the paper's space-saving choice), or [lcm(q_i)] for the
      ablation;
    - allocates each variable the smallest {e divisor} of [u] that is
      at least [q_i] (paper: "the smallest factor of u that is no
      smaller than q_i"), so that rotating copies line up with the
      unrolled kernel;
    - checks the expanded register counts against the machine's
      register-file capacities. On overflow the compiler reverts to the
      unpipelined schedule, per the paper's policy ("when we run out of
      registers, we then resort to simple techniques that serialize the
      execution of loop iterations").

    {!plan} does all of this without side effects; {!realize} then
    draws the copies from the register supply and records the
    decisions, so the compiler can judge a schedule before it spends
    registers on it. *)

open Sp_ir
open Sp_machine

let () = Sp_util.Fault.register "mve.assign"

type mode = Max_q | Lcm | Off

type alloc = {
  reg : Vreg.t;
  q : int;             (** simultaneously live values *)
  n : int;             (** register locations allocated *)
  copies : Vreg.t array;  (** [copies.(0)] is the original register *)
  birth : int;         (** first cycle the value occupies the register *)
  death : int;         (** last read in the flat schedule *)
}

type t = {
  unroll : int;        (** kernel unrolling degree [u] *)
  allocs : alloc list;
  fregs : int;         (** total FP registers after expansion *)
  iregs : int;
  fits : bool;         (** within the machine's register files *)
}

type var = {
  v_reg : Vreg.t;
  v_q : int;
  v_n : int;
  v_birth : int;
  v_death : int;
}

type plan = {
  p_mode : mode;       (** [Off] when there is nothing to expand *)
  p_unroll : int;
  p_vars : var list;   (** defined candidates, in [Vreg.Set] order *)
  p_fregs : int;
  p_iregs : int;
  p_fits : bool;
}

(** Rename candidate registers to the copy for (absolute pipelined)
    iteration [iter]; other registers are untouched. Staged: [rename t]
    builds the register table once, after which renaming a register is
    one lookup. *)
let rename t : iter:int -> Vreg.t -> Vreg.t =
  let h = Sp_util.Itbl.create 16 in
  List.iter (fun a -> Sp_util.Itbl.replace h a.reg.Vreg.id a) t.allocs;
  fun ~iter r ->
    match Sp_util.Itbl.find_opt h r.Vreg.id with
    | None -> r
    | Some a -> a.copies.(((iter mod a.n) + a.n) mod a.n)

let identity =
  { unroll = 1; allocs = []; fregs = 0; iregs = 0; fits = true }

let no_plan =
  { p_mode = Off; p_unroll = 1; p_vars = []; p_fregs = 0; p_iregs = 0;
    p_fits = true }

(* Position of register id [id] in the ascending [ids], or -1. *)
let index_of (ids : int array) id =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let x = ids.(mid) in
      if x = id then mid else if x < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

let plan ?(mode = Max_q) (m : Machine.t) (g : Ddg.t)
    (sched : Modsched.schedule) : plan =
  if mode = Off || Vreg.Set.is_empty g.Ddg.mve_candidates then no_plan
  else begin
    let cands = Array.of_list (Vreg.Set.elements g.Ddg.mve_candidates) in
    let ids = Array.map (fun (r : Vreg.t) -> r.Vreg.id) cands in
    let nc = Array.length cands in
    (* One walk over the units finds every candidate's lifetime in the
       flat schedule and counts the other registers, each once per
       class. The register location is occupied from the moment the
       value lands in the register file (issue + write latency — while
       in flight it lives in the functional unit's pipeline latches)
       until the last read. This is the paper's lifetime "between the
       first assignment into the variable and its last use". *)
    let birth = Array.make nc max_int and death = Array.make nc min_int in
    let seen = Sp_util.Itbl.create 64 in
    let f = ref 0 and i = ref 0 in
    let count (r : Vreg.t) k =
      match r.Vreg.cls with Vreg.F -> f := !f + k | Vreg.I -> i := !i + k
    in
    let other (r : Vreg.t) =
      if not (Sp_util.Itbl.mem seen r.Vreg.id) then begin
        Sp_util.Itbl.replace seen r.Vreg.id ();
        count r 1
      end
    in
    Array.iteri
      (fun k (u : Sunit.t) ->
        let at = sched.Modsched.times.(k) in
        List.iter
          (fun ((r : Vreg.t), t) ->
            let c = index_of ids r.Vreg.id in
            if c < 0 then other r else death.(c) <- Int.max death.(c) (at + t))
          u.Sunit.uses;
        List.iter
          (fun ((r : Vreg.t), t) ->
            let c = index_of ids r.Vreg.id in
            if c < 0 then other r else birth.(c) <- Int.min birth.(c) (at + t))
          u.Sunit.defs)
      g.Ddg.units;
    (* q = number of simultaneously live values. A dead value (never
       read) needs exactly one location; a candidate that is never
       defined is not expanded, and keeps its one register if read. *)
    let s = sched.Modsched.s in
    let lifetimes = ref [] in
    for c = nc - 1 downto 0 do
      if birth.(c) <> max_int then begin
        let l =
          if death.(c) = min_int then 0 else Int.max 0 (death.(c) - birth.(c))
        in
        lifetimes := (c, (l / s) + 1, birth.(c) + l) :: !lifetimes
      end
      else if death.(c) <> min_int then count cands.(c) 1
    done;
    let qs = List.map (fun (_, q, _) -> q) !lifetimes in
    let u =
      match mode with
      | Max_q -> List.fold_left Int.max 1 qs
      | Lcm -> Sp_util.Intmath.lcm_list qs
      | Off -> 1
    in
    let vars =
      List.map
        (fun (c, q, death) ->
          let n = Sp_util.Intmath.smallest_divisor_geq ~u ~q in
          count cands.(c) n;
          { v_reg = cands.(c); v_q = q; v_n = n; v_birth = birth.(c);
            v_death = death })
        !lifetimes
    in
    {
      p_mode = mode;
      p_unroll = u;
      p_vars = vars;
      p_fregs = !f;
      p_iregs = !i;
      p_fits = !f <= m.Machine.fregs && !i <= m.Machine.iregs;
    }
  end

let realize (p : plan) ~(supply : Vreg.Supply.supply) : t =
  if p.p_mode = Off then identity
  else begin
    if Sp_obs.Explain.enabled () then
      List.iter
        (fun v ->
          Sp_obs.Explain.record
            (Sp_obs.Explain.Mve_lifetime
               { reg = Vreg.to_string v.v_reg; birth = v.v_birth;
                 death = v.v_death; q = v.v_q }))
        p.p_vars;
    let allocs =
      List.map
        (fun v ->
          Sp_util.Fault.point "mve.assign";
          let r = v.v_reg in
          let copies =
            Array.init v.v_n (fun k ->
                if k = 0 then r
                else
                  Vreg.Supply.fresh supply
                    ~name:(Printf.sprintf "%s.%d" r.Vreg.name k)
                    r.Vreg.cls)
          in
          { reg = r; q = v.v_q; n = v.v_n; copies; birth = v.v_birth;
            death = v.v_death })
        p.p_vars
    in
    if Sp_obs.Explain.enabled () then begin
      let binding =
        List.fold_left
          (fun acc v ->
            match acc with
            | Some b when b.v_q >= v.v_q -> acc
            | _ -> Some v)
          None p.p_vars
      in
      Sp_obs.Explain.record
        (Sp_obs.Explain.Mve_choice
           {
             unroll = p.p_unroll;
             mode =
               (match p.p_mode with
               | Max_q -> "max-q"
               | Lcm -> "lcm"
               | Off -> "off");
             binding_reg =
               (match binding with
               | Some v -> Vreg.to_string v.v_reg
               | None -> "");
             binding_q = (match binding with Some v -> v.v_q | None -> 1);
             fits = p.p_fits;
           })
    end;
    { unroll = p.p_unroll; allocs; fregs = p.p_fregs; iregs = p.p_iregs;
      fits = p.p_fits }
  end

let compute ?mode m g sched ~supply = realize (plan ?mode m g sched) ~supply

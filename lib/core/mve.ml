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
      execution of loop iterations"). *)

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

(** Registers referenced by a unit array, with per-class counts
    (candidates counted [n] times). *)
let register_pressure (units : Sunit.t array) (allocs : alloc list) =
  let expanded = Sp_util.Itbl.create 16 in
  List.iter (fun a -> Sp_util.Itbl.replace expanded a.reg.Vreg.id a.n) allocs;
  (* each register counted once, when first seen: only the sums leave *)
  let seen = Sp_util.Itbl.create 64 in
  let f = ref 0 and i = ref 0 in
  let note ((r : Vreg.t), _) =
    if not (Sp_util.Itbl.mem seen r.Vreg.id) then begin
      Sp_util.Itbl.replace seen r.Vreg.id ();
      let n =
        Option.value ~default:1 (Sp_util.Itbl.find_opt expanded r.Vreg.id)
      in
      match r.Vreg.cls with Vreg.F -> f := !f + n | Vreg.I -> i := !i + n
    end
  in
  Array.iter
    (fun (u : Sunit.t) ->
      List.iter note u.Sunit.uses;
      List.iter note u.Sunit.defs)
    units;
  (!f, !i)

let compute ?(mode = Max_q) (m : Machine.t) (g : Ddg.t)
    (sched : Modsched.schedule) ~(supply : Vreg.Supply.supply) : t =
  let units = g.Ddg.units in
  let s = sched.Modsched.s in
  if mode = Off || Vreg.Set.is_empty g.Ddg.mve_candidates then identity
  else begin
    (* lifetimes in the flat schedule *)
    let qs =
      List.filter_map
        (fun (r : Vreg.t) ->
          (* The register location is occupied from the moment the value
             lands in the register file (issue + write latency — while
             in flight it lives in the functional unit's pipeline
             latches) until the last read. This is the paper's lifetime
             "between the first assignment into the variable and its
             last use"; q = number of simultaneously live values. *)
          let birth = ref max_int and death = ref min_int in
          Array.iteri
            (fun i (u : Sunit.t) ->
              List.iter
                (fun ((r' : Vreg.t), t) ->
                  if Vreg.equal r r' then
                    birth := min !birth (sched.Modsched.times.(i) + t))
                u.Sunit.defs;
              List.iter
                (fun ((r' : Vreg.t), t) ->
                  if Vreg.equal r r' then
                    death := max !death (sched.Modsched.times.(i) + t))
                u.Sunit.uses)
            units;
          if !birth = max_int then None (* candidate never defined: skip *)
          else
            (* a dead value (never read) needs exactly one location *)
            let l =
              if !death = min_int then 0 else max 0 (!death - !birth)
            in
            let q = (l / s) + 1 in
            if Sp_obs.Explain.enabled () then
              Sp_obs.Explain.record
                (Sp_obs.Explain.Mve_lifetime
                   {
                     reg = Vreg.to_string r;
                     birth = !birth;
                     death = !birth + l;
                     q;
                   });
            Some (r, q, !birth, !birth + l))
        (Vreg.Set.elements g.Ddg.mve_candidates)
    in
    let u =
      match mode with
      | Max_q -> List.fold_left (fun acc (_, q, _, _) -> max acc q) 1 qs
      | Lcm -> Sp_util.Intmath.lcm_list (List.map (fun (_, q, _, _) -> q) qs)
      | Off -> 1
    in
    let allocs =
      List.map
        (fun ((r : Vreg.t), q, birth, death) ->
          Sp_util.Fault.point "mve.assign";
          let n = Sp_util.Intmath.smallest_divisor_geq ~u ~q in
          let copies =
            Array.init n (fun k ->
                if k = 0 then r
                else
                  Vreg.Supply.fresh supply
                    ~name:(Printf.sprintf "%s.%d" r.Vreg.name k)
                    r.Vreg.cls)
          in
          { reg = r; q; n; copies; birth; death })
        qs
    in
    let fregs, iregs = register_pressure units allocs in
    if Sp_obs.Explain.enabled () then begin
      let binding =
        List.fold_left
          (fun acc a ->
            match acc with
            | Some b when b.q >= a.q -> acc
            | _ -> Some a)
          None allocs
      in
      Sp_obs.Explain.record
        (Sp_obs.Explain.Mve_choice
           {
             unroll = u;
             mode =
               (match mode with
               | Max_q -> "max-q"
               | Lcm -> "lcm"
               | Off -> "off");
             binding_reg =
               (match binding with
               | Some a -> Vreg.to_string a.reg
               | None -> "");
             binding_q = (match binding with Some a -> a.q | None -> 1);
             fits = fregs <= m.Machine.fregs && iregs <= m.Machine.iregs;
           })
    end;
    {
      unroll = u;
      allocs;
      fregs;
      iregs;
      fits = fregs <= m.Machine.fregs && iregs <= m.Machine.iregs;
    }
  end

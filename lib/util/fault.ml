(** Deterministic fault injection (see the interface).

    The armed spec and the fired flag are atomics: long-lived servers
    ({!Sp_serve.Service}) arm a fault around one request on a worker
    domain while other domains keep calling {!is_armed} and {!point},
    and those reads must be well-defined. Hit counting stays a plain
    hash table — it is only touched while a site is armed, and every
    armed section runs single-domain (parallel drivers check
    {!is_armed} and fall back to sequential execution). *)

exception Injected of string

let registered : (string, unit) Hashtbl.t = Hashtbl.create ~random:false 16
let armed : (string * int) option Atomic.t = Atomic.make None
let hit_counts : (string, int) Hashtbl.t = Hashtbl.create ~random:false 16
let fired_site : string option Atomic.t = Atomic.make None

let register site = Hashtbl.replace registered site ()

let sites () =
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) registered [])

let arm ~site ~after =
  if after < 1 then invalid_arg "Fault.arm: after must be >= 1";
  register site;
  Hashtbl.reset hit_counts;
  Atomic.set fired_site None;
  Atomic.set armed (Some (site, after))

let parse_spec spec =
  match String.rindex_opt spec '@' with
  | Some i when i > 0 -> (
    match
      int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
    with
    | Some k when k >= 1 -> Some (String.sub spec 0 i, k)
    | _ -> None)
  | _ -> None

let check_site site =
  if List.mem site (sites ()) then Ok ()
  else
    Error
      (Printf.sprintf "unknown fault site %S (available: %s)" site
         (String.concat ", " (sites ())))

let arm_spec (site, after) =
  Result.map (fun () -> arm ~site ~after) (check_site site)

let disarm () =
  Atomic.set armed None;
  Atomic.set fired_site None;
  Hashtbl.reset hit_counts

(* executions of [site] since the last [arm] or [disarm] *)
let hits site = Option.value ~default:0 (Hashtbl.find_opt hit_counts site)

let fired () = Atomic.get fired_site

let armed_spec () = Atomic.get armed

let is_armed () = Atomic.get armed <> None

let point site =
  match Atomic.get armed with
  | None -> ()
  | Some (s, after) ->
    let n = 1 + hits site in
    Hashtbl.replace hit_counts site n;
    if s = site && n = after then begin
      Atomic.set fired_site (Some site);
      raise (Injected site)
    end

let with_armed ~site ~after f =
  arm ~site ~after;
  Fun.protect ~finally:disarm f

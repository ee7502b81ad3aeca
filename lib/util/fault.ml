(** Deterministic fault injection.

    Compiler passes mark their interesting failure sites with
    {!point}[ "pass.site"]; a test (or [w2c --inject site@k]) arms one
    site so that its [k]-th execution raises {!Injected}. The
    degradation machinery in {!Sp_core.Compile} must catch the
    exception and revert the affected loop to its serial schedule —
    the property suite in [test/test_fault.ml] verifies that under
    every registered fault the compiler still terminates, validates
    and produces interpreter-identical code.

    Sites are registered at module-initialization time by the passes
    that own them, so {!sites} is complete as soon as the libraries
    are linked. All state is global and explicitly deterministic:
    arming, hit counting and firing depend only on the call sequence.

    The armed spec and the fired flag are atomics: long-lived servers
    ({!Sp_serve.Service}) arm a fault around one request on a worker
    domain while other domains keep calling {!is_armed} and {!point},
    and those reads must be well-defined. Hit counting stays a plain
    hash table — it is only touched while a site is armed, and every
    armed section runs single-domain (parallel drivers check
    {!is_armed} and fall back to sequential execution). *)

exception Injected of string
(** Raised by an armed {!point}. Carries the site name. *)

let registered : (string, unit) Hashtbl.t = Hashtbl.create ~random:false 16
let armed : (string * int) option Atomic.t = Atomic.make None
let hit_counts : (string, int) Hashtbl.t = Hashtbl.create ~random:false 16
let fired_site : string option Atomic.t = Atomic.make None

let register site = Hashtbl.replace registered site ()

let sites () =
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) registered [])

(** Arm [site]: its [after]-th subsequent execution (1-based) raises
    {!Injected}. Re-arming resets all hit counters; only one site is
    armed at a time. *)
let arm ~site ~after =
  if after < 1 then invalid_arg "Fault.arm: after must be >= 1";
  register site;
  Hashtbl.reset hit_counts;
  Atomic.set fired_site None;
  Atomic.set armed (Some (site, after))

(** Parse a [SITE\@K] spec, the form every driver's [--inject] takes:
    the site is everything before the last ['\@'] and is non-empty, and
    [K >= 1]. [None] on anything else; callers word their own error. *)
let parse_spec spec =
  match String.rindex_opt spec '@' with
  | Some i when i > 0 -> (
    match
      int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
    with
    | Some k when k >= 1 -> Some (String.sub spec 0 i, k)
    | _ -> None)
  | _ -> None

(** [Error] names the registered sites when [site] is not one of them. *)
let check_site site =
  if List.mem site (sites ()) then Ok ()
  else
    Error
      (Printf.sprintf "unknown fault site %S (available: %s)" site
         (String.concat ", " (sites ())))

(** {!arm} a parsed spec, if its site is registered. *)
let arm_spec (site, after) =
  Result.map (fun () -> arm ~site ~after) (check_site site)

(** Disarm everything and clear counters. *)
let disarm () =
  Atomic.set armed None;
  Atomic.set fired_site None;
  Hashtbl.reset hit_counts

(** Executions of [site] since the last {!arm}/{!disarm}. *)
let hits site = Option.value ~default:0 (Hashtbl.find_opt hit_counts site)

(** The armed site, if it has fired since arming. *)
let fired () = Atomic.get fired_site

(** The currently armed [(site, after)] specification, if any — lets a
    driver that must re-arm per work item (the campaign's inject mode)
    read back what the CLI armed. *)
let armed_spec () = Atomic.get armed

(** Whether any site is currently armed. Hit counting is global and
    call-sequence-dependent, so parallel drivers (the batch scheduler
    in {!Sp_core.Compile}) check this and fall back to sequential
    execution while a fault is armed — keeping injection
    deterministic. *)
let is_armed () = Atomic.get armed <> None

(** Mark a failure site. When any site is armed, counts the hit and
    raises {!Injected} on the armed site's [after]-th execution; when
    nothing is armed it costs a single atomic read. *)
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

(** [with_armed ~site ~after f] arms [site], runs [f ()], and disarms
    unconditionally — including when [f] raises (typically the
    {!Injected} it asked for). This is the per-request arming
    discipline of the compile service: a fault armed for one request
    on a worker domain can never leak into the next request. *)
let with_armed ~site ~after f =
  arm ~site ~after;
  Fun.protect ~finally:disarm f

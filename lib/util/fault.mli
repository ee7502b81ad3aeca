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
    arming, hit counting and firing depend only on the call sequence. *)

exception Injected of string
(** Raised by an armed {!point}. Carries the site name. *)

val register : string -> unit
(** Declare [site]; the pass that owns it calls this at module
    initialization. *)

val sites : unit -> string list
(** Every registered site, sorted. *)

val arm : site:string -> after:int -> unit
(** Arm [site]: its [after]-th subsequent execution (1-based) raises
    {!Injected}. Re-arming resets all hit counters; only one site is
    armed at a time. *)

val parse_spec : string -> (string * int) option
(** Parse a [SITE\@K] spec, the form every driver's [--inject] takes:
    the site is everything before the last ['\@'] and is non-empty, and
    [K >= 1]. [None] on anything else; callers word their own error. *)

val check_site : string -> (unit, string) result
(** [Error] names the registered sites when [site] is not one of them. *)

val arm_spec : string * int -> (unit, string) result
(** {!arm} a parsed spec, if its site is registered. *)

val disarm : unit -> unit
(** Disarm everything and clear counters. *)

val fired : unit -> string option
(** The armed site, if it has fired since arming. *)

val armed_spec : unit -> (string * int) option
(** The currently armed [(site, after)] specification, if any — lets a
    driver that must re-arm per work item (the campaign's inject mode)
    read back what the CLI armed. *)

val is_armed : unit -> bool
(** Whether any site is currently armed. Hit counting is global and
    call-sequence-dependent, so parallel drivers (the batch scheduler
    in {!Sp_core.Compile}) check this and fall back to sequential
    execution while a fault is armed — keeping injection
    deterministic. *)

val point : string -> unit
(** Mark a failure site. When any site is armed, counts the hit and
    raises {!Injected} on the armed site's [after]-th execution; when
    nothing is armed it costs a single atomic read. *)

val with_armed : site:string -> after:int -> (unit -> 'a) -> 'a
(** [with_armed ~site ~after f] arms [site], runs [f ()], and disarms
    unconditionally — including when [f] raises (typically the
    {!Injected} it asked for). This is the per-request arming
    discipline of the compile service: a fault armed for one request
    on a worker domain can never leak into the next request. *)

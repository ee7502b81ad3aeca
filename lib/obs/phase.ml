(** The compiler's one instrumentation point; see the interface. *)

let span_name : Cost.phase -> string = function
  | P_ddg -> "compile.ddg"
  | P_compact -> "compile.compact"
  | P_bounds -> "compile.mii"
  | P_search -> "compile.modsched"
  | P_certify -> "compile.certify"
  | P_mve -> "compile.mve"
  | P_emit -> "compile.emit"
  | P_validate -> "compile.validate"
  | P_cache -> "compile.cache"
  | P_reduce -> "compile.reduce"
  | P_other -> "compile.other"

let no_args () = []

(* [loop] is a plain int, not an option: the disabled path then only
   tests two flags and calls [f], with nothing boxed per call. *)
let run ~loop ph f =
  if not (Trace.enabled () || Cost.enabled ()) then f ()
  else
    Trace.span
      ~args:(if loop < 0 then no_args else fun () -> [ ("loop", Trace.I loop) ])
      (span_name ph)
      (fun () -> Cost.with_phase ph f)

let enter_loop l =
  Explain.set_loop l;
  Cost.set_loop l

type recording = {
  trace : Trace.event list;
  explain : (int * Explain.event) list;
  cost : Cost.profile;
}

let capture f =
  let loop = Explain.current_loop () in
  let cost_loop = Cost.current_loop () and ph = Cost.current_phase () in
  fun () ->
    let ((v, cost), explain), trace =
      Trace.collect (fun () ->
          Explain.collect (fun () ->
              Explain.set_loop loop;
              Cost.collect (fun () ->
                  Cost.set_loop cost_loop;
                  Cost.set_phase ph;
                  f ())))
    in
    (v, { trace; explain; cost })

let replay r =
  Trace.inject r.trace;
  Explain.inject r.explain;
  Cost.inject r.cost

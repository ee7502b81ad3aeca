(** Visual schedule artifacts: per-loop kernel Gantt (operation ×
    cycle, colored by pipeline stage), modulo-reservation-table
    occupancy grid (functional unit × residue), and
    modulo-variable-expansion register-lifetime diagrams — in ASCII for
    the terminal and as self-contained HTML with inline SVG (no
    external scripts, stylesheets or fonts, so a single file is
    archivable and diffable).

    Views are flat records built by the compiler driver
    ([Sp_core.Compile]) from the committed schedule; building them is
    gated on {!enabled} so the default compile path pays one branch. *)

type op_row = {
  op_id : int;
  op_desc : string;
  op_time : int;   (** issue cycle in the flat schedule *)
  op_len : int;
  op_stage : int;  (** [op_time / II] — the pipeline stage *)
}

type res_row = {
  rr_name : string;
  rr_limit : int;          (** units of this resource in the machine *)
  rr_counts : int array;   (** demand per residue, length = II *)
}

type life_row = { lf_reg : string; lf_birth : int; lf_death : int; lf_q : int }

type loop_view = {
  v_loop : int;
  v_ii : int;
  v_span : int;
  v_sc : int;
  v_unroll : int;
  v_ops : op_row list;
  v_mrt : res_row list;
  v_lifetimes : life_row list;
}

val enabled : unit -> bool
(** When false (the default) the compiler skips building views. *)

val enable : unit -> unit
val disable : unit -> unit

val to_ascii : loop_view -> string

val to_html : title:string -> loop_view list -> string
(** One self-contained HTML document for a program's pipelined loops.
    Deterministic: a pure function of the views. *)

(** {1 Service dashboard}

    The live health view of a running [w2cd] daemon: headline stat
    tiles, sparkline strips over telemetry series windows, and cache
    occupancy grids. Flat inputs keep this module ignorant of the
    service — the daemon builds the records from its telemetry. Like
    {!to_html}, the output is a single self-contained HTML document
    with inline SVG and CSS (no external scripts, stylesheets or
    fonts) and a pure function of its inputs. *)

type strip = {
  st_name : string;
  st_points : float list;  (** oldest first — one point per window *)
}

type grid = {
  g_name : string;
  g_filled : int;  (** colored cells, e.g. live cache entries *)
  g_total : int;   (** total cells, e.g. cache capacity *)
}

type dash = {
  d_title : string;
  d_tiles : (string * string) list;  (** headline key/value stats *)
  d_strips : strip list;
  d_grids : grid list;
}

val dashboard : dash -> string

(** {1 Flame graph / treemap}

    Hierarchical cost views for {!Cost} profiles (or any weighted
    tree). A node's value is its own {!fn_self} plus its children's;
    layout is icicle-style (roots on top) with a slice-and-dice treemap
    beneath. Deterministic: same nodes, same bytes — no wall clock, no
    randomized layout. *)

type flame_node = {
  fn_name : string;
  fn_self : int;                 (** work attributed to this node alone *)
  fn_children : flame_node list;
}

val flame_html : title:string -> flame_node list -> string
(** One self-contained HTML document (inline SVG, no external
    references), like {!to_html}. *)

(** Visual schedule artifacts; see the interface. Views are flat
    (strings and ints only) for the same layering reason as {!Explain}
    and {!Cost}. *)

type op_row = {
  op_id : int;
  op_desc : string;
  op_time : int;
  op_len : int;
  op_stage : int;
}

type res_row = { rr_name : string; rr_limit : int; rr_counts : int array }
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

let on = ref false
let enabled () = !on
let enable () = on := true
let disable () = on := false

(* ---- ASCII --------------------------------------------------------- *)

let stage_char st =
  (* iteration (stage) coloring in ASCII: one digit per stage *)
  Char.chr (Char.code '0' + (st mod 10))

let sorted_ops v =
  List.sort
    (fun a b ->
      match compare a.op_time b.op_time with
      | 0 -> compare a.op_id b.op_id
      | c -> c)
    v.v_ops

let pp_ascii ppf (v : loop_view) =
  let width = max 1 v.v_span in
  Fmt.pf ppf "loop %d: II=%d span=%d stages=%d unroll=%d@." v.v_loop v.v_ii
    v.v_span v.v_sc v.v_unroll;
  Fmt.pf ppf "  kernel gantt (cycle 0..%d, digit = stage):@." (width - 1);
  List.iter
    (fun o ->
      let line = Bytes.make width '.' in
      for t = o.op_time to min (width - 1) (o.op_time + o.op_len - 1) do
        Bytes.set line t (stage_char o.op_stage)
      done;
      Fmt.pf ppf "    u%-3d t=%-3d |%s| %s@." o.op_id o.op_time
        (Bytes.to_string line) o.op_desc)
    (sorted_ops v);
  if v.v_mrt <> [] then begin
    Fmt.pf ppf "  mrt occupancy (residue 0..%d, count of %d):@." (v.v_ii - 1)
      v.v_ii;
    List.iter
      (fun r ->
        let cells =
          String.concat ""
            (Array.to_list
               (Array.map
                  (fun c ->
                    if c = 0 then "."
                    else if c < 10 then string_of_int c
                    else "+")
                  r.rr_counts))
        in
        Fmt.pf ppf "    %-6s %d/unit x%d |%s|@." r.rr_name
          (Array.fold_left max 0 r.rr_counts)
          r.rr_limit cells)
      v.v_mrt
  end;
  if v.v_lifetimes <> [] then begin
    Fmt.pf ppf "  mve register lifetimes:@.";
    List.iter
      (fun l ->
        let w = max width (l.lf_death + 1) in
        let line = Bytes.make w '.' in
        for t = l.lf_birth to l.lf_death do
          if t >= 0 && t < w then Bytes.set line t '#'
        done;
        Fmt.pf ppf "    %-8s q=%d |%s| [%d..%d]@." l.lf_reg l.lf_q
          (Bytes.to_string line) l.lf_birth l.lf_death)
      v.v_lifetimes
  end

let to_ascii v = Fmt.str "%a" pp_ascii v

(* ---- HTML / SVG ---------------------------------------------------- *)

(* Fixed palette, one color per pipeline stage (wraps after 8). *)
let palette =
  [| "#4e79a7"; "#f28e2b"; "#59a14f"; "#e15759"; "#b07aa1"; "#76b7b2";
     "#edc948"; "#9c755f" |]

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let cell = 14 (* svg pixels per cycle *)
let row_h = 18

let svg_gantt buf (v : loop_view) =
  let ops = sorted_ops v in
  let nrows = List.length ops in
  let w = (max 1 v.v_span * cell) + 220 in
  let h = (nrows * row_h) + 24 in
  Printf.bprintf buf
    "<svg width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"kernel \
     gantt\">\n"
    w h;
  (* stage boundaries every II cycles *)
  let x0 = 200 in
  for k = 0 to (max 1 v.v_span / max 1 v.v_ii) + 1 do
    let x = x0 + (k * v.v_ii * cell) in
    if x <= x0 + (v.v_span * cell) then
      Printf.bprintf buf
        "<line x1=\"%d\" y1=\"0\" x2=\"%d\" y2=\"%d\" stroke=\"#ccc\"/>\n" x x
        (nrows * row_h)
  done;
  List.iteri
    (fun i o ->
      let y = i * row_h in
      let color = palette.(o.op_stage mod Array.length palette) in
      Printf.bprintf buf
        "<text x=\"0\" y=\"%d\" font-size=\"11\" \
         font-family=\"monospace\">u%d %s</text>\n"
        (y + 12) o.op_id
        (html_escape
           (if String.length o.op_desc > 24 then String.sub o.op_desc 0 24
            else o.op_desc));
      Printf.bprintf buf
        "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\">\
         <title>u%d t=%d len=%d stage=%d</title></rect>\n"
        (x0 + (o.op_time * cell))
        (y + 2)
        (max 1 o.op_len * cell)
        (row_h - 4) color o.op_id o.op_time o.op_len o.op_stage)
    ops;
  Printf.bprintf buf
    "<text x=\"%d\" y=\"%d\" font-size=\"10\" fill=\"#666\">cycles 0..%d, \
     II=%d (colors = stages)</text>\n"
    x0
    ((nrows * row_h) + 16)
    (v.v_span - 1) v.v_ii;
  Buffer.add_string buf "</svg>\n"

let mrt_table buf (v : loop_view) =
  Buffer.add_string buf "<table class=\"mrt\"><tr><th>resource</th>";
  for r = 0 to v.v_ii - 1 do
    Printf.bprintf buf "<th>%d</th>" r
  done;
  Buffer.add_string buf "</tr>\n";
  List.iter
    (fun r ->
      Printf.bprintf buf "<tr><td>%s (x%d)</td>" (html_escape r.rr_name)
        r.rr_limit;
      Array.iter
        (fun c ->
          let cls =
            if c = 0 then "z"
            else if c >= r.rr_limit then "full"
            else "part"
          in
          Printf.bprintf buf "<td class=\"%s\">%d</td>" cls c)
        r.rr_counts;
      Buffer.add_string buf "</tr>\n")
    v.v_mrt;
  Buffer.add_string buf "</table>\n"

let svg_lifetimes buf (v : loop_view) =
  let lfs = v.v_lifetimes in
  let wmax =
    List.fold_left (fun a l -> max a (l.lf_death + 1)) (max 1 v.v_span) lfs
  in
  let nrows = List.length lfs in
  let w = (wmax * cell) + 220 in
  let h = (nrows * row_h) + 8 in
  Printf.bprintf buf
    "<svg width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"register \
     lifetimes\">\n"
    w h;
  let x0 = 200 in
  List.iteri
    (fun i l ->
      let y = i * row_h in
      Printf.bprintf buf
        "<text x=\"0\" y=\"%d\" font-size=\"11\" \
         font-family=\"monospace\">%s q=%d</text>\n"
        (y + 12)
        (html_escape l.lf_reg)
        l.lf_q;
      Printf.bprintf buf
        "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
         fill=\"#59a14f\"><title>%s [%d..%d] q=%d</title></rect>\n"
        (x0 + (l.lf_birth * cell))
        (y + 4)
        (max cell ((l.lf_death - l.lf_birth + 1) * cell))
        (row_h - 8)
        (html_escape l.lf_reg)
        l.lf_birth l.lf_death l.lf_q)
    lfs;
  Buffer.add_string buf "</svg>\n"

let style =
  {|<style>
body { font-family: sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.4em; }
h3 { font-size: 0.95em; color: #444; margin-bottom: 0.3em; }
table.mrt { border-collapse: collapse; font-family: monospace; font-size: 12px; }
table.mrt th, table.mrt td { border: 1px solid #bbb; padding: 2px 6px; text-align: center; }
table.mrt td.z { color: #bbb; }
table.mrt td.part { background: #cfe3f5; }
table.mrt td.full { background: #f5c6c6; }
.meta { color: #555; font-size: 0.9em; }
</style>|}

let to_html ~title (views : loop_view list) : string =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>%s</title>\n%s\n</head><body>\n<h1>%s</h1>\n"
    (html_escape title) style (html_escape title);
  if views = [] then
    Buffer.add_string buf "<p class=\"meta\">no pipelined loops.</p>\n";
  List.iter
    (fun v ->
      Printf.bprintf buf
        "<h2>loop %d</h2>\n<p class=\"meta\">II=%d, span=%d, %d stages, \
         unroll %d</p>\n"
        v.v_loop v.v_ii v.v_span v.v_sc v.v_unroll;
      Buffer.add_string buf "<h3>kernel gantt</h3>\n";
      svg_gantt buf v;
      if v.v_mrt <> [] then begin
        Buffer.add_string buf
          "<h3>modulo reservation table occupancy</h3>\n";
        mrt_table buf v
      end;
      if v.v_lifetimes <> [] then begin
        Buffer.add_string buf "<h3>mve register lifetimes</h3>\n";
        svg_lifetimes buf v
      end)
    views;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

(* ---- service dashboard --------------------------------------------- *)

type strip = { st_name : string; st_points : float list }
type grid = { g_name : string; g_filled : int; g_total : int }

type dash = {
  d_title : string;
  d_tiles : (string * string) list;
  d_strips : strip list;
  d_grids : grid list;
}

(* One sparkline: a polyline over the points, y-normalized to the
   observed [min, max] (a flat series draws a midline), plus the last
   value as text. Pure text generation — same inputs, same bytes. *)
let svg_sparkline buf (s : strip) =
  let pts = Array.of_list s.st_points in
  let n = Array.length pts in
  let w = max 120 (n * 6) and h = 36 in
  Printf.bprintf buf "<div class=\"strip\"><span class=\"lbl\">%s</span>"
    (html_escape s.st_name);
  if n = 0 then Buffer.add_string buf "<span class=\"meta\">no samples</span>"
  else begin
    let mn = Array.fold_left Float.min infinity pts in
    let mx = Array.fold_left Float.max neg_infinity pts in
    let span = mx -. mn in
    Printf.bprintf buf
      "<svg width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"%s\">\
       <polyline fill=\"none\" stroke=\"#4e79a7\" stroke-width=\"1.5\" \
       points=\""
      w h (html_escape s.st_name);
    Array.iteri
      (fun i v ->
        let x =
          if n = 1 then w / 2
          else i * (w - 8) / (n - 1) + 4
        in
        let y =
          if span <= 0. then float_of_int (h / 2)
          else
            float_of_int (h - 6)
            -. ((v -. mn) /. span *. float_of_int (h - 12))
        in
        Printf.bprintf buf "%s%d,%.1f" (if i = 0 then "" else " ") x y)
      pts;
    Printf.bprintf buf
      "\"/></svg><span class=\"meta\">min %g · last %g · max %g</span>" mn
      pts.(n - 1) mx
  end;
  Buffer.add_string buf "</div>\n"

(* Occupancy grid: [g_total] cells, the first [g_filled] colored — the
   cache's fill level at a glance. *)
let occupancy_grid buf (g : grid) =
  Printf.bprintf buf
    "<div class=\"grid\"><span class=\"lbl\">%s</span><span \
     class=\"meta\">%d / %d</span><br/>\n"
    (html_escape g.g_name) g.g_filled g.g_total;
  let per_row = 32 in
  let cellpx = 10 in
  let total = max g.g_total 1 in
  let rows = (total + per_row - 1) / per_row in
  Printf.bprintf buf "<svg width=\"%d\" height=\"%d\" role=\"img\" \
                      aria-label=\"occupancy\">\n"
    (per_row * (cellpx + 2))
    (rows * (cellpx + 2));
  for i = 0 to total - 1 do
    let x = i mod per_row * (cellpx + 2) in
    let y = i / per_row * (cellpx + 2) in
    Printf.bprintf buf
      "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\"/>\n" x y
      cellpx cellpx
      (if i < g.g_filled then "#59a14f" else "#e8e8e8")
  done;
  Buffer.add_string buf "</svg></div>\n"

let dash_style =
  {|<style>
body { font-family: sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.3em; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin-bottom: 1em; }
.tile { border: 1px solid #ccc; border-radius: 6px; padding: 8px 14px; background: #fafafa; }
.tile .k { color: #666; font-size: 0.8em; display: block; }
.tile .v { font-family: monospace; font-size: 1.2em; }
.strip, .grid { margin: 0.6em 0; }
.lbl { display: inline-block; width: 14em; font-family: monospace; font-size: 0.85em; vertical-align: top; }
.meta { color: #555; font-size: 0.85em; margin-left: 0.8em; }
</style>|}

let dashboard (d : dash) : string =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "<!DOCTYPE html>\n\
     <html><head><meta charset=\"utf-8\">\n\
     <title>%s</title>\n\
     %s\n\
     </head><body>\n\
     <h1>%s</h1>\n"
    (html_escape d.d_title) dash_style (html_escape d.d_title);
  Buffer.add_string buf "<div class=\"tiles\">\n";
  List.iter
    (fun (k, v) ->
      Printf.bprintf buf
        "<div class=\"tile\"><span class=\"k\">%s</span><span \
         class=\"v\">%s</span></div>\n"
        (html_escape k) (html_escape v))
    d.d_tiles;
  Buffer.add_string buf "</div>\n";
  List.iter (fun s -> svg_sparkline buf s) d.d_strips;
  List.iter (fun g -> occupancy_grid buf g) d.d_grids;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

(* ---- flame graph / treemap ------------------------------------------ *)

type flame_node = {
  fn_name : string;
  fn_self : int;
  fn_children : flame_node list;
}

let rec flame_value n =
  List.fold_left (fun acc c -> acc + flame_value c) n.fn_self n.fn_children

let flame_depth roots =
  let rec go d n =
    List.fold_left (fun acc c -> max acc (go (d + 1) c)) d n.fn_children
  in
  List.fold_left (fun acc n -> max acc (go 1 n)) 0 roots

(* Stable color per label: a tiny deterministic hash into the palette,
   so the same phase/counter is the same hue in every render. *)
let flame_color name =
  let h = ref 0 in
  String.iter (fun c -> h := ((!h * 31) + Char.code c) land 0xffffff) name;
  palette.(!h mod Array.length palette)

let frame_h = 20

(* Classic icicle layout (roots on top), widths proportional to
   subtree value; children laid out left-to-right in list order, so the
   output is a pure function of the nodes. *)
let svg_flame buf roots ~width =
  let total = List.fold_left (fun a n -> a + flame_value n) 0 roots in
  if total > 0 then begin
    let depth = flame_depth roots in
    let h = depth * (frame_h + 2) in
    let scale = float_of_int width /. float_of_int total in
    Printf.bprintf buf
      "<svg width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"flame \
       graph\">\n"
      width h;
    let rec draw x y (n : flame_node) =
      let v = flame_value n in
      let w = float_of_int v *. scale in
      if w >= 0.5 then begin
        Printf.bprintf buf
          "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" \
           fill=\"%s\" stroke=\"#fff\"><title>%s: %d (%.1f%%)</title>\
           </rect>\n"
          x y w frame_h (flame_color n.fn_name) (html_escape n.fn_name) v
          (100. *. float_of_int v /. float_of_int total);
        if w >= 40. then
          Printf.bprintf buf
            "<text x=\"%.1f\" y=\"%d\" font-size=\"10\" \
             font-family=\"monospace\" fill=\"#222\">%s</text>\n"
            (x +. 3.)
            (y + 14)
            (html_escape
               (let max_chars = int_of_float (w /. 6.5) in
                if String.length n.fn_name > max_chars then
                  String.sub n.fn_name 0 (max max_chars 1)
                else n.fn_name))
      end;
      let cx = ref x in
      List.iter
        (fun c ->
          draw !cx (y + frame_h + 2) c;
          cx := !cx +. (float_of_int (flame_value c) *. scale))
        n.fn_children
    in
    let x = ref 0. in
    List.iter
      (fun n ->
        draw !x 0 n;
        x := !x +. (float_of_int (flame_value n) *. scale))
      roots;
    Buffer.add_string buf "</svg>\n"
  end

(* Slice-and-dice treemap over the top level (alternating split
   direction per depth): simple, deterministic, and good enough to eye
   the heavy loops. *)
let svg_treemap buf roots ~width ~height =
  let total = List.fold_left (fun a n -> a + flame_value n) 0 roots in
  if total > 0 then begin
    Printf.bprintf buf
      "<svg width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"cost \
       treemap\">\n"
      width height;
    let rec tile x y w h horiz label nodes sum =
      let pos = ref 0. in
      List.iter
        (fun n ->
          let v = flame_value n in
          if v > 0 then begin
            let frac = float_of_int v /. float_of_int sum in
            let name =
              if label = "" then n.fn_name else label ^ ";" ^ n.fn_name
            in
            let nx, ny, nw, nh =
              if horiz then (x +. (!pos *. w), y, frac *. w, h)
              else (x, y +. (!pos *. h), w, frac *. h)
            in
            pos := !pos +. frac;
            if n.fn_children = [] then begin
              Printf.bprintf buf
                "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
                 fill=\"%s\" stroke=\"#fff\"><title>%s: %d</title></rect>\n"
                nx ny nw nh
                (flame_color n.fn_name)
                (html_escape name) v;
              if nw >= 60. && nh >= 14. then
                Printf.bprintf buf
                  "<text x=\"%.1f\" y=\"%.1f\" font-size=\"9\" \
                   font-family=\"monospace\" fill=\"#222\">%s</text>\n"
                  (nx +. 2.) (ny +. 11.)
                  (html_escape n.fn_name)
            end
            else begin
              Printf.bprintf buf
                "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
                 fill=\"none\" stroke=\"#888\"><title>%s: %d</title>\
                 </rect>\n"
                nx ny nw nh (html_escape name) v;
              tile nx ny nw nh (not horiz) name n.fn_children v
            end
          end)
        nodes
    in
    tile 0. 0. (float_of_int width) (float_of_int height) true "" roots total;
    Buffer.add_string buf "</svg>\n"
  end

let flame_html ~title (roots : flame_node list) : string =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "<!DOCTYPE html>\n\
     <html><head><meta charset=\"utf-8\">\n\
     <title>%s</title>\n\
     %s\n\
     </head><body>\n\
     <h1>%s</h1>\n"
    (html_escape title) style (html_escape title);
  let total = List.fold_left (fun a n -> a + flame_value n) 0 roots in
  if total = 0 then
    Buffer.add_string buf "<p class=\"meta\">no work recorded.</p>\n"
  else begin
    Printf.bprintf buf
      "<p class=\"meta\">%d work units (deterministic counts — no wall \
       clock).</p>\n"
      total;
    Buffer.add_string buf "<h3>flame view (loop &gt; phase &gt; counter)</h3>\n";
    svg_flame buf roots ~width:960;
    Buffer.add_string buf "<h3>treemap</h3>\n";
    svg_treemap buf roots ~width:960 ~height:320
  end;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

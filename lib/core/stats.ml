(* Run-artifact trend reporting and regression gating: the analysis behind
   `iclang stats`.  See stats.mli for the model.

   One schema: an artefact is a list of (program, metric, value, unit,
   better) rows and a budget is a (program, metric, bound) row.  Both
   parsers are strict: a malformed value is an error, not a silent zero —
   a gate that reads garbage as 0 would wave through exactly the
   regressions it exists to catch — and a budget field the gate does not
   know is an error, not an ignored typo. *)

module J = Wario_support.Json
module S = Wario_obs.Span

(* ------------------------------------------------------------------ *)
(* BENCH generations                                                    *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

type row = {
  r_program : string;
  r_metric : string;
  r_value : float;
  r_unit : string;
  r_better : better;
}

type generation = {
  g_label : string;
  g_small : bool;
  g_rows : row list;
}

let artefact_json ~bench ~small rows =
  let row r =
    Printf.sprintf
      {|    {"program": "%s", "metric": "%s", "value": %s, "unit": "%s", "better": "%s"}|}
      (J.escape r.r_program) (J.escape r.r_metric) (J.float_repr r.r_value)
      (J.escape r.r_unit)
      (match r.r_better with Lower -> "lower" | Higher -> "higher")
  in
  Printf.sprintf
    "{\n  \"bench\": \"%s\",\n  \"small\": %b,\n  \"rows\": [\n%s\n  ]\n}\n"
    (J.escape bench) small
    (String.concat ",\n" (List.map row rows))

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Field [name] of [obj] through [conv]; [what] names [obj] in the error. *)
let field conv what obj name =
  match Option.bind (J.member name obj) conv with
  | Some v -> v
  | None -> fail "%s: missing or malformed %S" what name

let lookup g program metric =
  List.find_opt (fun r -> r.r_program = program && r.r_metric = metric) g.g_rows

let load_generation ~label (text : string) : (generation, string) result =
  try
    let doc =
      match J.parse text with Ok doc -> doc | Error e -> raise (Bad e)
    in
    if J.member "rows" doc = None then
      fail "not in the row schema (no \"rows\" array)";
    let row i r =
      let what = Printf.sprintf "row %d" i in
      let str = field J.to_string what r in
      {
        r_program = str "program";
        r_metric = str "metric";
        r_value = field J.to_float what r "value";
        r_unit = str "unit";
        r_better =
          (match str "better" with
          | "lower" -> Lower
          | "higher" -> Higher
          | b ->
              fail "%s: \"better\" is %S, not \"lower\" or \"higher\"" what b);
      }
    in
    ignore (field J.to_string "artefact" doc "bench" : string);
    let g =
      {
        g_label = label;
        g_small = field J.to_bool "artefact" doc "small";
        g_rows = List.mapi row (field J.to_list "artefact" doc "rows");
      }
    in
    (* one value per (program, metric), so the gate reads it unambiguously *)
    List.iter
      (fun r ->
        match lookup g r.r_program r.r_metric with
        | Some first when first != r ->
            fail "two rows for (%s, %s)" r.r_program r.r_metric
        | _ -> ())
      g.g_rows;
    Ok g
  with Bad m -> Error (label ^ ": " ^ m)

(* ------------------------------------------------------------------ *)
(* Trend across generations                                             *)
(* ------------------------------------------------------------------ *)

type trend_row = {
  tr_program : string;
  tr_metric : string;
  tr_cells : float option list;
  tr_delta_pct : float option;
}

let trend (gens : generation list) : trend_row list =
  let order = ref [] and seen = Hashtbl.create 64 in
  List.iter
    (fun g ->
      List.iter
        (fun r ->
          let key = (r.r_program, r.r_metric) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            order := key :: !order
          end)
        g.g_rows)
    gens;
  List.rev_map
    (fun (program, metric) ->
      let cells =
        List.map
          (fun g -> Option.map (fun r -> r.r_value) (lookup g program metric))
          gens
      in
      let delta =
        match List.filter_map Fun.id cells with
        (* a zero baseline has no percentage *)
        | first :: (_ :: _ as rest) when first <> 0. ->
            let last = List.nth rest (List.length rest - 1) in
            Some (100. *. (last -. first) /. first)
        | _ -> None
      in
      {
        tr_program = program;
        tr_metric = metric;
        tr_cells = cells;
        tr_delta_pct = delta;
      })
    !order

let fmt_value v =
  if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let render_trend (gens : generation list) : string =
  match trend gens with
  | [] -> "no BENCH rows loaded — nothing to trend\n"
  | rows ->
      let header =
        [ "program"; "metric" ]
        @ List.map
            (fun g -> if g.g_small then g.g_label ^ " (small)" else g.g_label)
            gens
        @ [ "delta" ]
      in
      let cells r =
        [ r.tr_program; r.tr_metric ]
        @ List.map (function None -> "-" | Some v -> fmt_value v) r.tr_cells
        @ [
            (match r.tr_delta_pct with
            | None -> "-"
            | Some d -> Printf.sprintf "%+.1f%%" d);
          ]
      in
      Report.table
        ~title:"BENCH rows across generations (delta: oldest -> newest)"
        header (List.map cells rows)
      ^
      if List.length gens < 2 then
        "(single generation: deltas need at least two)\n"
      else ""

(* ------------------------------------------------------------------ *)
(* Span statistics                                                      *)
(* ------------------------------------------------------------------ *)

type span_row = {
  sr_path : string;
  sr_dur_ms : float;
  sr_self_ms : float;
  sr_track : int;
}

let top_spans ?(k = 10) (spans : S.span list) : span_row list =
  let rows = ref [] in
  let rec walk path (sp : S.span) =
    let path = path ^ "/" ^ sp.S.sp_name in
    (* self time: what this span spent outside its own-track children
       (other-track children ran concurrently and overlap the parent) *)
    let child_ms =
      List.fold_left
        (fun a (c : S.span) ->
          if c.S.sp_track = sp.S.sp_track then a +. c.S.sp_dur else a)
        0. sp.S.sp_children
    in
    rows :=
      {
        sr_path = path;
        sr_dur_ms = sp.S.sp_dur;
        sr_self_ms = Float.max 0. (sp.S.sp_dur -. child_ms);
        sr_track = sp.S.sp_track;
      }
      :: !rows;
    List.iter (walk path) sp.S.sp_children
  in
  List.iter (walk "") spans;
  let sorted =
    List.sort
      (fun a b ->
        match compare b.sr_dur_ms a.sr_dur_ms with
        | 0 -> compare a.sr_path b.sr_path
        | c -> c)
      !rows
  in
  Wario_support.Util.take k sorted

type worker_row = {
  wk_pool : string;
  wk_worker : int;
  wk_busy_ms : float;
  wk_idle_ms : float;
  wk_items : int;
}

let worker_utilization (spans : S.span list) : worker_row list =
  let tbl : (string * int, float * float * int) Hashtbl.t =
    Hashtbl.create 16
  in
  let rec walk parent_name (sp : S.span) =
    (if sp.S.sp_name = "worker" then
       let attr_f name =
         match List.assoc_opt name sp.S.sp_attrs with
         | Some (S.Float f) -> f
         | Some (S.Int n) -> float_of_int n
         | _ -> 0.
       in
       let worker =
         match List.assoc_opt "worker" sp.S.sp_attrs with
         | Some (S.Int n) -> n
         | _ -> sp.S.sp_track
       in
       let items =
         Option.value ~default:0 (List.assoc_opt "items" sp.S.sp_counters)
       in
       let key = (parent_name, worker) in
       let busy, idle, n =
         Option.value ~default:(0., 0., 0) (Hashtbl.find_opt tbl key)
       in
       Hashtbl.replace tbl key
         (busy +. attr_f "busy_ms", idle +. attr_f "idle_ms", n + items));
    List.iter (walk sp.S.sp_name) sp.S.sp_children
  in
  List.iter (walk "(root)") spans;
  Hashtbl.fold
    (fun (pool, worker) (busy, idle, items) acc ->
      {
        wk_pool = pool;
        wk_worker = worker;
        wk_busy_ms = busy;
        wk_idle_ms = idle;
        wk_items = items;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare a.wk_pool b.wk_pool with
         | 0 -> compare a.wk_worker b.wk_worker
         | c -> c)

let render_spans ?(k = 10) (spans : S.span list) : string =
  if spans = [] then "no spans loaded\n"
  else begin
    let b = Buffer.create 1024 in
    let rows =
      List.map
        (fun r ->
          [
            r.sr_path;
            Printf.sprintf "%.3f" r.sr_dur_ms;
            Printf.sprintf "%.3f" r.sr_self_ms;
            string_of_int r.sr_track;
          ])
        (top_spans ~k spans)
    in
    Buffer.add_string b
      (Report.table
         ~title:(Printf.sprintf "top %d spans by duration" k)
         [ "span"; "total ms"; "self ms"; "track" ]
         rows);
    (match worker_utilization spans with
    | [] -> ()
    | workers ->
        let rows =
          List.map
            (fun w ->
              let window = w.wk_busy_ms +. w.wk_idle_ms in
              let pct =
                (* an empty window is 0% busy, not 0/0 *)
                if window <= 0. then 0. else 100. *. w.wk_busy_ms /. window
              in
              [
                w.wk_pool;
                string_of_int w.wk_worker;
                Printf.sprintf "%.3f" w.wk_busy_ms;
                Printf.sprintf "%.3f" w.wk_idle_ms;
                Printf.sprintf "%.1f%%" pct;
                string_of_int w.wk_items;
              ])
            workers
        in
        Buffer.add_char b '\n';
        Buffer.add_string b
          (Report.table ~title:"worker utilization (per pool, per domain)"
             [ "pool"; "worker"; "busy ms"; "idle ms"; "busy %"; "items" ]
             rows));
    Buffer.contents b
  end

(* ------------------------------------------------------------------ *)
(* Regression gate                                                      *)
(* ------------------------------------------------------------------ *)

type budget = { b_program : string; b_metric : string; b_bound : float }

let budgets_of_json (doc : J.t) : (budget list, string) result =
  let budget i e =
    let what = Printf.sprintf "budget %d" i in
    (match J.obj_fields e with
    | None -> fail "%s: not an object" what
    | Some fields ->
        List.iter
          (fun (k, _) ->
            if not (List.mem k [ "program"; "metric"; "bound" ]) then
              fail "%s: unknown field %S (a budget is {program, metric, bound})"
                what k)
          fields);
    {
      b_program = field J.to_string what e "program";
      b_metric = field J.to_string what e "metric";
      b_bound = field J.to_float what e "bound";
    }
  in
  try Ok (List.mapi budget (field J.to_list "budget file" doc "budgets"))
  with Bad m -> Error m

type breach = { br_budget : budget; br_row : row option }

let gate ~(budgets : budget list) (gens : generation list) : breach list =
  List.filter_map
    (fun b ->
      (* the newest generation carrying the budget's (program, metric) *)
      match
        List.find_map
          (fun g -> lookup g b.b_program b.b_metric)
          (List.rev gens)
      with
      | None -> Some { br_budget = b; br_row = None }
      | Some r ->
          let past =
            match r.r_better with
            | Lower -> r.r_value > b.b_bound
            | Higher -> r.r_value < b.b_bound
          in
          if past then Some { br_budget = b; br_row = Some r } else None)
    budgets

let render_breaches (breaches : breach list) : string =
  match breaches with
  | [] -> "gate: all budgets respected\n"
  | _ ->
      let cells br =
        let b = br.br_budget in
        [ b.b_program; b.b_metric ]
        @
        match br.br_row with
        | None -> [ "absent from every generation"; fmt_value b.b_bound ]
        | Some r ->
            [
              fmt_value r.r_value ^ " " ^ r.r_unit;
              (match r.r_better with Lower -> "<= " | Higher -> ">= ")
              ^ fmt_value b.b_bound;
            ]
      in
      Report.table
        ~title:
          (Printf.sprintf "gate: %d budget breach(es)" (List.length breaches))
        [ "program"; "metric"; "actual"; "budget" ]
        (List.map cells breaches)

(* Run-artifact trend reporting and regression gating: the analysis behind
   `iclang stats`.  See stats.mli for the model.

   The parsers are deliberately permissive about fields they do not use
   (BENCH_6 carries motion/inlining detail BENCH_5 lacks; both load here)
   and strict about the ones they do: a malformed dyn_ckpts is an error,
   not a silent zero — a gate that reads garbage as 0 would wave through
   exactly the regressions it exists to catch. *)

module J = Wario_support.Json
module S = Wario_obs.Span

(* ------------------------------------------------------------------ *)
(* BENCH generations                                                    *)
(* ------------------------------------------------------------------ *)

type point = {
  pt_program : string;
  pt_class : string;
  pt_selected : string;
  pt_dyn_ckpts : int;
  pt_cycles : int;
}

type tpoint = {
  tp_program : string;
  tp_ref_ips : float;
  tp_block_ips : float;
}

type cache_point = {
  cp_cold_s : float;
  cp_warm_s : float;
  cp_speedup : float;
  cp_hits : int;
  cp_misses : int;
  cp_evictions : int;
}

type generation = {
  g_label : string;
  g_kind : string;
  g_small : bool;
  g_points : point list;
  g_emulator_ips : float option;
  g_throughput : tpoint list;
  g_cache : cache_point option;
}

let generation_of_json ~label (doc : J.t) : (generation, string) result =
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad (label ^ ": " ^ m))) fmt in
  try
    let kind =
      match Option.bind (J.member "bench" doc) J.to_string with
      | Some k -> k
      | None -> fail "missing \"bench\" field"
    in
    let small =
      Option.value ~default:false
        (Option.bind (J.member "small" doc) J.to_bool)
    in
    let ips =
      Option.bind (J.member "emulator" doc) (fun e ->
          Option.bind (J.member "fast_instr_per_s" e) J.to_float)
    in
    (* emu artefacts (BENCH_7) carry per-engine throughput, not placement
       variants: their "programs" array has no "selected"/"variants" *)
    let throughput =
      if kind <> "emu" then []
      else
        match Option.bind (J.member "programs" doc) J.to_list with
        | None -> fail "emu artefact missing \"programs\" array"
        | Some progs ->
            List.map
              (fun p ->
                let name =
                  match Option.bind (J.member "name" p) J.to_string with
                  | Some s -> s
                  | None -> fail "emu program missing \"name\""
                in
                let eng field =
                  match
                    Option.bind (J.member "continuous" p) (fun c ->
                        Option.bind (J.member field c) J.to_float)
                  with
                  | Some f -> f
                  | None -> fail "emu program %S: continuous missing %S" name field
                in
                {
                  tp_program = name;
                  tp_ref_ips = eng "reference_instr_per_s";
                  tp_block_ips = eng "block_instr_per_s";
                })
              progs
    in
    (* cache artefacts (BENCH_8) carry one cold/warm compile summary,
       no per-program placement points *)
    let cache_pt =
      if kind <> "cache" then None
      else
        match J.member "cache" doc with
        | None -> fail "cache artefact missing \"cache\" object"
        | Some c ->
            let flt field =
              match Option.bind (J.member field c) J.to_float with
              | Some f -> f
              | None -> fail "cache summary missing %S" field
            in
            let int0 field =
              Option.value ~default:0 (Option.bind (J.member field c) J.to_int)
            in
            Some
              {
                cp_cold_s = flt "cold_s";
                cp_warm_s = flt "warm_s";
                cp_speedup = flt "speedup";
                cp_hits = int0 "hits";
                cp_misses = int0 "misses";
                cp_evictions = int0 "evictions";
              }
    in
    let points =
      match
        (if kind = "emu" || kind = "cache" then None
         else J.member "programs" doc)
      with
      | None -> []
      | Some progs ->
          let progs =
            match J.to_list progs with
            | Some l -> l
            | None -> fail "\"programs\" is not an array"
          in
          List.map
            (fun p ->
              let str name =
                match Option.bind (J.member name p) J.to_string with
                | Some s -> s
                | None -> fail "program missing %S" name
              in
              let name = str "name" in
              let selected = str "selected" in
              let cls =
                Option.value ~default:""
                  (Option.bind (J.member "class" p) J.to_string)
              in
              let variant =
                match
                  Option.bind (J.member "variants" p) (J.member selected)
                with
                | Some v -> v
                | None ->
                    fail "program %S: selected variant %S not in \"variants\""
                      name selected
              in
              let int_of field =
                match Option.bind (J.member field variant) J.to_int with
                | Some n -> n
                | None -> fail "program %S: variant missing %S" name field
              in
              {
                pt_program = name;
                pt_class = cls;
                pt_selected = selected;
                pt_dyn_ckpts = int_of "dyn_ckpts";
                pt_cycles = int_of "cycles";
              })
            progs
    in
    Ok
      {
        g_label = label;
        g_kind = kind;
        g_small = small;
        g_points = points;
        g_emulator_ips = ips;
        g_throughput = throughput;
        g_cache = cache_pt;
      }
  with Bad msg -> Error msg

let load_generation ~label (text : string) : (generation, string) result =
  match J.parse text with
  | Error e -> Error (label ^ ": " ^ e)
  | Ok doc -> generation_of_json ~label doc

(* ------------------------------------------------------------------ *)
(* Trend across generations                                             *)
(* ------------------------------------------------------------------ *)

type trend_row = {
  tr_program : string;
  tr_cells : (string * int * int) option list;
  tr_dyn_delta_pct : float option;
  tr_cycles_delta_pct : float option;
}

(* Only generations that carry programs participate in the trend; a perf
   generation in the middle of the list would otherwise show as a column
   of misses for every program. *)
let placement_gens gens = List.filter (fun g -> g.g_points <> []) gens

let delta_pct a b =
  (* zero baseline: a percentage would be a division by zero *)
  if a = 0 then None
  else Some (100. *. float_of_int (b - a) /. float_of_int a)

let trend (gens : generation list) : trend_row list =
  let gens = placement_gens gens in
  let order = ref [] and seen = Hashtbl.create 16 in
  List.iter
    (fun g ->
      List.iter
        (fun p ->
          if not (Hashtbl.mem seen p.pt_program) then begin
            Hashtbl.add seen p.pt_program ();
            order := p.pt_program :: !order
          end)
        g.g_points)
    gens;
  List.rev_map
    (fun name ->
      let cells =
        List.map
          (fun g ->
            List.find_opt (fun p -> p.pt_program = name) g.g_points
            |> Option.map (fun p ->
                   (p.pt_selected, p.pt_dyn_ckpts, p.pt_cycles)))
          gens
      in
      let present = List.filter_map Fun.id cells in
      let dyn_delta, cyc_delta =
        match present with
        | (_, d0, c0) :: _ :: _ ->
            let _, dn, cn = List.nth present (List.length present - 1) in
            (delta_pct d0 dn, delta_pct c0 cn)
        | _ -> (None, None)
      in
      {
        tr_program = name;
        tr_cells = cells;
        tr_dyn_delta_pct = dyn_delta;
        tr_cycles_delta_pct = cyc_delta;
      })
    !order

let fmt_delta = function
  | None -> "-"
  | Some d -> Printf.sprintf "%+.1f%%" d

(* Throughput generations: emu artefacts only, in input order. *)
let throughput_gens gens = List.filter (fun g -> g.g_throughput <> []) gens

type throughput_row = {
  th_program : string;
  th_cells : tpoint option list;  (** aligned with the emu generations *)
  th_block_delta_pct : float option;
      (** block engine instr/s, oldest -> newest appearance *)
}

let throughput_trend (gens : generation list) : throughput_row list =
  let gens = throughput_gens gens in
  let order = ref [] and seen = Hashtbl.create 16 in
  List.iter
    (fun g ->
      List.iter
        (fun t ->
          if not (Hashtbl.mem seen t.tp_program) then begin
            Hashtbl.add seen t.tp_program ();
            order := t.tp_program :: !order
          end)
        g.g_throughput)
    gens;
  List.rev_map
    (fun name ->
      let cells =
        List.map
          (fun g ->
            List.find_opt (fun t -> t.tp_program = name) g.g_throughput)
          gens
      in
      let present = List.filter_map Fun.id cells in
      let delta =
        match present with
        | first :: _ :: _ ->
            let last = List.nth present (List.length present - 1) in
            if first.tp_block_ips <= 0. then None
            else
              Some
                (100.
                *. (last.tp_block_ips -. first.tp_block_ips)
                /. first.tp_block_ips)
        | _ -> None
      in
      { th_program = name; th_cells = cells; th_block_delta_pct = delta })
    !order

let render_trend (gens : generation list) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun g ->
      match g.g_emulator_ips with
      | Some ips ->
          Buffer.add_string b
            (Printf.sprintf "%s (%s%s): emulator fast path %.2fM instr/s\n"
               g.g_label g.g_kind
               (if g.g_small then ", small" else "")
               (ips /. 1e6))
      | None -> ())
    gens;
  List.iter
    (fun g ->
      match g.g_cache with
      | Some c ->
          Buffer.add_string b
            (Printf.sprintf
               "%s (cache%s): cold %.2fs -> warm %.2fs (%.1fx); %d hit(s), \
                %d miss(es), %d eviction(s)\n"
               g.g_label
               (if g.g_small then ", small" else "")
               c.cp_cold_s c.cp_warm_s c.cp_speedup c.cp_hits c.cp_misses
               c.cp_evictions)
      | None -> ())
    gens;
  let tgens = throughput_gens gens in
  (match throughput_trend gens with
  | [] -> ()
  | rows ->
      let header =
        ("program" :: List.map (fun g -> g.g_label ^ " M/s") tgens)
        @ [ "d-block" ]
      in
      let table_rows =
        List.map
          (fun r ->
            (r.th_program
            :: List.map
                 (function
                   | None -> "-"
                   | Some t ->
                       Printf.sprintf "%.0f/%.0f" (t.tp_ref_ips /. 1e6)
                         (t.tp_block_ips /. 1e6))
                 r.th_cells)
            @ [ fmt_delta r.th_block_delta_pct ])
          rows
      in
      Buffer.add_string b
        (Report.table
           ~title:
             "emulator throughput (reference/block M instr/s, \
              continuous power) across emu generations (delta: block \
              engine, oldest -> newest)"
           header table_rows);
      Buffer.add_char b '\n');
  let pgens = placement_gens gens in
  (match trend gens with
  | [] ->
      Buffer.add_string b
        "no placement generations loaded — nothing to trend\n"
  | rows ->
      let header =
        ("program" :: List.map (fun g -> g.g_label ^ " dyn/cyc") pgens)
        @ [ "d-dyn"; "d-cyc" ]
      in
      let table_rows =
        List.map
          (fun r ->
            (r.tr_program
            :: List.map
                 (function
                   | None -> "-"
                   | Some (_, d, c) -> Printf.sprintf "%d/%d" d c)
                 r.tr_cells)
            @ [ fmt_delta r.tr_dyn_delta_pct; fmt_delta r.tr_cycles_delta_pct ])
          rows
      in
      Buffer.add_string b
        (Report.table
           ~title:
             "selected-variant dyn ckpts / cycles across BENCH generations \
              (delta: oldest -> newest)"
           header table_rows);
      if List.length pgens < 2 then
        Buffer.add_string b
          "(single generation: deltas need at least two)\n");
  Buffer.contents b

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

type budget = {
  b_program : string;
  b_max_dyn_ckpts : int option;
  b_max_cycles : int option;
  b_min_instr_per_s : float option;
  b_max_warm_compile_s : float option;
  b_min_cache_speedup : float option;
}

let budgets_of_json (doc : J.t) : (budget list, string) result =
  let exception Bad of string in
  try
    let entries =
      match Option.bind (J.member "budgets" doc) J.to_list with
      | Some l -> l
      | None -> raise (Bad "budget file missing \"budgets\" array")
    in
    Ok
      (List.map
         (fun e ->
           let program =
             match Option.bind (J.member "program" e) J.to_string with
             | Some s -> s
             | None -> raise (Bad "budget entry missing \"program\"")
           in
           let opt_int field = Option.bind (J.member field e) J.to_int in
           {
             b_program = program;
             b_max_dyn_ckpts = opt_int "max_dyn_ckpts";
             b_max_cycles = opt_int "max_cycles";
             b_min_instr_per_s =
               Option.bind (J.member "min_instr_per_s" e) J.to_float;
             b_max_warm_compile_s =
               Option.bind (J.member "max_warm_compile_s" e) J.to_float;
             b_min_cache_speedup =
               Option.bind (J.member "min_cache_speedup" e) J.to_float;
           })
         entries)
  with Bad msg -> Error msg

type breach = {
  br_program : string;
  br_metric : string;
  br_actual : int option;
  br_limit : int;
}

let gate ~(budgets : budget list) (gens : generation list) : breach list =
  (* each program gates against its newest appearance *)
  let newest name =
    List.fold_left
      (fun acc g ->
        match List.find_opt (fun p -> p.pt_program = name) g.g_points with
        | Some p -> Some p
        | None -> acc)
      None gens
  in
  let newest_throughput name =
    List.fold_left
      (fun acc g ->
        match List.find_opt (fun t -> t.tp_program = name) g.g_throughput with
        | Some t -> Some t
        | None -> acc)
      None gens
  in
  (* cache artefacts carry one batch summary, not per-program points: a
     cache budget gates against the newest cache generation, whatever its
     label *)
  let newest_cache =
    List.fold_left
      (fun acc g -> match g.g_cache with Some c -> Some c | None -> acc)
      None gens
  in
  List.concat_map
    (fun b ->
      let placement_breaches =
        (* a placement budget names a program the placement generations
           must carry; a throughput-only budget does not *)
        if b.b_max_dyn_ckpts = None && b.b_max_cycles = None then []
        else
          match newest b.b_program with
          | None ->
              [
                {
                  br_program = b.b_program;
                  br_metric = "missing";
                  br_actual = None;
                  br_limit = 0;
                };
              ]
          | Some p ->
              let check metric actual = function
                | Some limit when actual > limit ->
                    [
                      {
                        br_program = b.b_program;
                        br_metric = metric;
                        br_actual = Some actual;
                        br_limit = limit;
                      };
                    ]
                | _ -> []
              in
              check "dyn_ckpts" p.pt_dyn_ckpts b.b_max_dyn_ckpts
              @ check "cycles" p.pt_cycles b.b_max_cycles
      in
      let throughput_breaches =
        (* inverted comparison: a floor, not a ceiling — the block engine
           falling under it is the regression *)
        match b.b_min_instr_per_s with
        | None -> []
        | Some floor -> (
            match newest_throughput b.b_program with
            | None ->
                [
                  {
                    br_program = b.b_program;
                    br_metric = "instr_per_s missing";
                    br_actual = None;
                    br_limit = int_of_float floor;
                  };
                ]
            | Some t when t.tp_block_ips < floor ->
                [
                  {
                    br_program = b.b_program;
                    br_metric = "instr_per_s";
                    br_actual = Some (int_of_float t.tp_block_ips);
                    br_limit = int_of_float floor;
                  };
                ]
            | Some _ -> [])
      in
      let cache_breaches =
        (* integer-rendered units: warm compile seconds as ms (ceiling),
           speedup as percent (floor) — keeps the breach record integral *)
        if b.b_max_warm_compile_s = None && b.b_min_cache_speedup = None then
          []
        else
          match newest_cache with
          | None ->
              [
                {
                  br_program = b.b_program;
                  br_metric = "cache missing";
                  br_actual = None;
                  br_limit = 0;
                };
              ]
          | Some c ->
              let ceiling =
                match b.b_max_warm_compile_s with
                | Some limit when c.cp_warm_s > limit ->
                    [
                      {
                        br_program = b.b_program;
                        br_metric = "warm_compile_ms";
                        br_actual = Some (int_of_float (c.cp_warm_s *. 1000.));
                        br_limit = int_of_float (limit *. 1000.);
                      };
                    ]
                | _ -> []
              in
              let floor =
                match b.b_min_cache_speedup with
                | Some limit when c.cp_speedup < limit ->
                    [
                      {
                        br_program = b.b_program;
                        br_metric = "cache_speedup_pct";
                        br_actual = Some (int_of_float (c.cp_speedup *. 100.));
                        br_limit = int_of_float (limit *. 100.);
                      };
                    ]
                | _ -> []
              in
              ceiling @ floor
      in
      placement_breaches @ throughput_breaches @ cache_breaches)
    budgets

let render_breaches (breaches : breach list) : string =
  match breaches with
  | [] -> "gate: all budgets respected\n"
  | _ ->
      let rows =
        List.map
          (fun br ->
            [
              br.br_program;
              br.br_metric;
              (match br.br_actual with
              | None -> "absent from every generation"
              | Some a -> string_of_int a);
              (match br.br_metric with
              | "missing" | "cache missing" -> "-"
              | "instr_per_s missing" | "instr_per_s" | "cache_speedup_pct" ->
                  ">= " ^ string_of_int br.br_limit
              | _ -> "<= " ^ string_of_int br.br_limit);
            ])
          breaches
      in
      Report.table
        ~title:
          (Printf.sprintf "gate: %d budget breach(es)" (List.length breaches))
        [ "program"; "metric"; "actual"; "budget" ]
        rows

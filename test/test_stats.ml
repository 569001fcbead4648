(* Run-artifact trend reporting and the regression gate (lib/core/stats),
   exercised on synthetic row generations, span trees and budgets —
   including every degenerate shape the renderers must survive: zero
   spans, a single generation, a zero baseline — and on the committed
   BENCH_*.json files against the committed budgets. *)

module St = Wario.Stats
module S = Wario_obs.Span
module R = Wario.Report
module J = Wario_support.Json

(* ------------------------------------------------------------------ *)
(* Fixtures                                                             *)
(* ------------------------------------------------------------------ *)

let row ?(better = St.Lower) ?(unit = "count") program metric value =
  {
    St.r_program = program;
    r_metric = metric;
    r_value = value;
    r_unit = unit;
    r_better = better;
  }

(* every fixture goes through the writer and the parser *)
let gen ?(small = false) label rows =
  match
    St.load_generation ~label (St.artefact_json ~bench:"test" ~small rows)
  with
  | Ok g -> g
  | Error e -> Alcotest.fail e

(* selected-variant numbers, as place6 writes them *)
let place_gen label progs =
  gen label
    (List.concat_map
       (fun (name, dyn, cyc) ->
         [
           row name "dyn_ckpts" (float_of_int dyn);
           row name "cycles" (float_of_int cyc);
         ])
       progs)

(* continuous-power engine throughput, as emu writes it *)
let emu_gen label progs =
  let ips = row ~better:St.Higher ~unit:"instr/s" in
  gen label
    (List.concat_map
       (fun (name, r, b) ->
         [ ips name "reference_instr_per_s" r; ips name "block_instr_per_s" b ])
       progs)

let contains s needle =
  let nl = String.length needle in
  let rec found i =
    i + nl <= String.length s && (String.sub s i nl = needle || found (i + 1))
  in
  found 0

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let mk_span ?(track = 0) ?(children = []) ?(counters = []) name t0 dur =
  {
    S.sp_name = name;
    sp_t0 = t0;
    sp_dur = dur;
    sp_track = track;
    sp_attrs = [];
    sp_counters = counters;
    sp_children = children;
  }

(* ------------------------------------------------------------------ *)
(* Generation parsing                                                   *)
(* ------------------------------------------------------------------ *)

let test_generation_parsing () =
  let rows =
    [
      row "crc" "dyn_ckpts" 100.;
      row ~unit:"s" "cache-sweep" "warm_s" 0.072948;
      row ~better:St.Higher ~unit:"ratio" "cache-sweep" "speedup" 14001.647;
    ]
  in
  let g = gen ~small:true "G1" rows in
  Alcotest.(check string) "label" "G1" g.St.g_label;
  Alcotest.(check bool) "small" true g.St.g_small;
  Alcotest.(check bool) "rows round-trip exactly" true (g.St.g_rows = rows);
  (* anything else is an error naming the file, never a silent zero *)
  let bad_row fields =
    Printf.sprintf {|{"bench":"t","small":false,"rows":[{%s}]}|} fields
  in
  List.iter
    (fun (what, body) ->
      match St.load_generation ~label:"BENCH_X" body with
      | Ok _ -> Alcotest.fail (what ^ " accepted")
      | Error e ->
          Alcotest.(check bool) (what ^ ": error names the file") true
            (String.starts_with ~prefix:"BENCH_X: " e))
    [
      ( "pre-row place6 shape",
        {|{"bench":"place6","small":false,"programs":[{"name":"x","selected":"g","variants":{"g":{"dyn_ckpts":1,"cycles":5}}}]}|}
      );
      ( "missing value",
        bad_row {|"program":"x","metric":"m","unit":"count","better":"lower"|} );
      ( "string value",
        bad_row
          {|"program":"x","metric":"m","value":"5","unit":"count","better":"lower"|}
      );
      ( "unknown direction",
        bad_row
          {|"program":"x","metric":"m","value":5,"unit":"count","better":"sideways"|}
      );
      ( "duplicate (program, metric)",
        {|{"bench":"t","small":false,"rows":[
           {"program":"x","metric":"m","value":1,"unit":"count","better":"lower"},
           {"program":"x","metric":"m","value":2,"unit":"count","better":"lower"}]}|}
      );
      ("missing small", {|{"bench":"t","rows":[]}|});
      ("missing bench", {|{"small":false,"rows":[]}|});
      ("not JSON", "{");
    ]

let test_emu_generation_parsing () =
  let g = emu_gen "E1" [ ("aes", 7.0e7, 2.2e8) ] in
  (match g.St.g_rows with
  | [ r; b ] ->
      Alcotest.(check string) "program" "aes" b.St.r_program;
      Alcotest.(check string) "metric" "block_instr_per_s" b.St.r_metric;
      Alcotest.(check bool) "reference ips" true (r.St.r_value = 7.0e7);
      Alcotest.(check bool) "block ips" true (b.St.r_value = 2.2e8);
      Alcotest.(check bool) "higher is better" true (b.St.r_better = St.Higher)
  | rs ->
      Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rs)));
  (* the pre-row emu shape (per-program engine objects) is refused *)
  let legacy =
    {|{"bench":"emu","small":false,"programs":[{"name":"x","continuous":{"reference_instr_per_s":1.0,"block_instr_per_s":3.0}}]}|}
  in
  match St.load_generation ~label:"BENCH_7" legacy with
  | Error e ->
      Alcotest.(check bool) "error names the file" true
        (String.starts_with ~prefix:"BENCH_7: " e)
  | Ok _ -> Alcotest.fail "pre-row emu artefact accepted"

let test_real_artifacts_load () =
  (* the committed artefacts parse, and the committed budgets pass over
     them — CI's positive gate; test/dune copies both next to the test
     directory *)
  let root =
    match
      List.find_opt
        (fun d -> Sys.file_exists (Filename.concat d "stats_budgets.json"))
        [ "."; ".." ]
    with
    | Some d -> d
    | None -> Alcotest.fail "stats_budgets.json not found"
  in
  let files =
    Sys.readdir root |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then Alcotest.fail "no committed BENCH_*.json";
  let gens =
    List.map
      (fun f ->
        match
          St.load_generation ~label:f (read (Filename.concat root f))
        with
        | Ok g -> g
        | Error e -> Alcotest.fail e)
      files
  in
  let budgets =
    match J.parse (read (Filename.concat root "stats_budgets.json")) with
    | Error e -> Alcotest.fail e
    | Ok doc -> (
        match St.budgets_of_json doc with
        | Ok b -> b
        | Error e -> Alcotest.fail e)
  in
  match St.gate ~budgets gens with
  | [] -> ()
  | bs -> Alcotest.fail (St.render_breaches bs)

(* ------------------------------------------------------------------ *)
(* Trend                                                                *)
(* ------------------------------------------------------------------ *)

let test_trend_deltas () =
  let g1 = place_gen "G1" [ ("crc", 100, 2000); ("sha", 50, 800) ] in
  let g2 = place_gen "G2" [ ("crc", 80, 1900); ("aes", 7, 70) ] in
  let rows = St.trend [ g1; g2 ] in
  Alcotest.(check (list (pair string string)))
    "rows in first-appearance order"
    [
      ("crc", "dyn_ckpts"); ("crc", "cycles"); ("sha", "dyn_ckpts");
      ("sha", "cycles"); ("aes", "dyn_ckpts"); ("aes", "cycles");
    ]
    (List.map (fun r -> (r.St.tr_program, r.St.tr_metric)) rows);
  let crc = List.hd rows in
  Alcotest.(check int) "cells aligned with generations" 2
    (List.length crc.St.tr_cells);
  (match crc.St.tr_delta_pct with
  | Some d when Float.abs (d +. 20.0) < 1e-9 -> ()
  | _ -> Alcotest.fail "crc dyn delta should be -20%");
  let sha = List.nth rows 2 in
  Alcotest.(check bool) "single appearance: no delta" true
    (sha.St.tr_delta_pct = None);
  Alcotest.(check bool) "absent cell" true
    (List.nth sha.St.tr_cells 1 = None)

let test_trend_degenerate () =
  Alcotest.(check bool) "no generations: no rows" true (St.trend [] = []);
  let single = place_gen "G" [ ("crc", 10, 100) ] in
  Alcotest.(check bool) "single generation: rows but no delta" true
    (List.for_all (fun r -> r.St.tr_delta_pct = None) (St.trend [ single ]));
  (* zero baseline: delta is None, never a division by zero *)
  let z1 = place_gen "Z1" [ ("p", 0, 0) ] in
  let z2 = place_gen "Z2" [ ("p", 5, 10) ] in
  Alcotest.(check bool) "zero-baseline deltas are None" true
    (List.for_all (fun r -> r.St.tr_delta_pct = None) (St.trend [ z1; z2 ]));
  (* rendering every degenerate shape must not raise or emit nan *)
  List.iter
    (fun gens ->
      Alcotest.(check bool) "no nan in render" false
        (contains (St.render_trend gens) "nan"))
    [ []; [ single ]; [ gen "E" [] ]; [ z1; z2 ] ]

let test_throughput_trend () =
  (* a higher-is-better metric trends like any other, next to placement
     rows: one table, one column per generation *)
  let e1 = emu_gen "E1" [ ("aes", 1e7, 1.0e8); ("sha", 1e7, 5e7) ] in
  let e2 = emu_gen "E2" [ ("aes", 1e7, 1.25e8) ] in
  let place = place_gen "G" [ ("crc", 10, 100) ] in
  let rows = St.trend [ place; e1; e2 ] in
  let find p m =
    List.find (fun r -> r.St.tr_program = p && r.St.tr_metric = m) rows
  in
  let aes = find "aes" "block_instr_per_s" in
  Alcotest.(check int) "cells aligned with every generation" 3
    (List.length aes.St.tr_cells);
  (match aes.St.tr_delta_pct with
  | Some d when Float.abs (d -. 25.0) < 1e-9 -> ()
  | _ -> Alcotest.fail "aes block delta should be +25%");
  Alcotest.(check bool) "single appearance: no delta" true
    ((find "sha" "block_instr_per_s").St.tr_delta_pct = None);
  let s = St.render_trend [ place; e1; e2 ] in
  Alcotest.(check bool) "render names the metric" true
    (contains s "block_instr_per_s");
  Alcotest.(check bool) "render shows the delta" true (contains s "+25.0%")

(* ------------------------------------------------------------------ *)
(* Span statistics                                                      *)
(* ------------------------------------------------------------------ *)

let test_top_spans () =
  let tree =
    mk_span "root" 0.0 100.0
      ~children:
        [
          mk_span "a" 0.0 60.0 ~children:[ mk_span "a1" 0.0 20.0 ];
          mk_span "w" 60.0 30.0 ~track:1;
        ]
  in
  let rows = St.top_spans ~k:2 [ tree ] in
  Alcotest.(check int) "k caps the rows" 2 (List.length rows);
  let root_row = List.hd rows in
  Alcotest.(check string) "slowest first" "/root" root_row.St.sr_path;
  (* self time subtracts same-track children only: 100 - 60 = 40 *)
  Alcotest.(check bool) "self excludes other tracks" true
    (Float.abs (root_row.St.sr_self_ms -. 40.0) < 1e-9);
  let a_row = List.nth rows 1 in
  Alcotest.(check string) "paths are root-to-span" "/root/a" a_row.St.sr_path;
  Alcotest.(check bool) "a self = 60 - 20" true
    (Float.abs (a_row.St.sr_self_ms -. 40.0) < 1e-9);
  Alcotest.(check bool) "zero spans: empty rows" true (St.top_spans [] = [])

let test_worker_utilization () =
  let worker k busy idle items =
    {
      (mk_span "worker" 0.0 (busy +. idle) ~track:(k + 1)
         ~counters:[ ("items", items) ])
      with
      S.sp_attrs =
        [ ("worker", S.Int k); ("busy_ms", S.Float busy);
          ("idle_ms", S.Float idle) ];
    }
  in
  let pool name ws = mk_span name 0.0 10.0 ~children:ws in
  let rows =
    St.worker_utilization
      [ pool "bench.place.map" [ worker 0 8.0 2.0 3; worker 1 6.0 4.0 2 ];
        pool "bench.place.map" [ worker 0 1.0 0.0 1 ] ]
  in
  (match rows with
  | [ r0; r1 ] ->
      Alcotest.(check string) "pool label" "bench.place.map" r0.St.wk_pool;
      Alcotest.(check int) "worker ids sorted" 0 r0.St.wk_worker;
      Alcotest.(check bool) "busy sums across invocations" true
        (Float.abs (r0.St.wk_busy_ms -. 9.0) < 1e-9);
      Alcotest.(check int) "items sum" 4 r0.St.wk_items;
      Alcotest.(check int) "second worker kept" 1 r1.St.wk_worker
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rs)));
  Alcotest.(check bool) "no workers: no rows" true
    (St.worker_utilization [ mk_span "lone" 0.0 1.0 ] = []);
  (* render paths on zero input: friendly text, no exception *)
  Alcotest.(check bool) "zero-span render is non-empty text" true
    (String.length (St.render_spans []) > 0)

(* ------------------------------------------------------------------ *)
(* Regression gate                                                      *)
(* ------------------------------------------------------------------ *)

let budgets_of_string s =
  match St.budgets_of_json (Result.get_ok (J.parse s)) with
  | Ok bs -> bs
  | Error e -> Alcotest.fail e

let breached (b : St.breach) =
  (b.St.br_budget.St.b_program, b.St.br_budget.St.b_metric)

let test_gate () =
  let budgets =
    budgets_of_string
      {|{"budgets":[{"program":"crc","metric":"dyn_ckpts","bound":100},
                    {"program":"crc","metric":"cycles","bound":3000},
                    {"program":"ghost","metric":"dyn_ckpts","bound":1}]}|}
  in
  let g1 = place_gen "G1" [ ("crc", 120, 2500) ] in
  let g2 = place_gen "G2" [ ("crc", 90, 2500) ] in
  (* the newest appearance wins: G2's 90 <= 100 passes even though G1 broke
     it; ghost appears nowhere and is its own breach *)
  (match St.gate ~budgets [ g1; g2 ] with
  | [ b ] ->
      Alcotest.(check (pair string string)) "missing program breaches"
        ("ghost", "dyn_ckpts") (breached b);
      Alcotest.(check bool) "no actual row" true (b.St.br_row = None)
  | bs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 breach, got %d" (List.length bs)));
  (* a +10% regression on a 5%-headroom budget must breach *)
  let tight =
    budgets_of_string
      {|{"budgets":[{"program":"crc","metric":"dyn_ckpts","bound":105}]}|}
  in
  let base = place_gen "B" [ ("crc", 100, 1000) ] in
  Alcotest.(check bool) "baseline passes" true
    (St.gate ~budgets:tight [ base ] = []);
  let regressed = place_gen "R" [ ("crc", 110, 1000) ] in
  (match St.gate ~budgets:tight [ base; regressed ] with
  | [ { St.br_row = Some r; _ } as b ] ->
      Alcotest.(check (pair string string)) "dyn budget breached"
        ("crc", "dyn_ckpts") (breached b);
      Alcotest.(check bool) "actual reported" true (r.St.r_value = 110.)
  | _ -> Alcotest.fail "regression not caught");
  (* the bound itself is inside the budget *)
  Alcotest.(check bool) "value equal to the bound passes" true
    (St.gate ~budgets:tight [ place_gen "E" [ ("crc", 105, 1000) ] ] = []);
  (* renderers survive both outcomes *)
  Alcotest.(check bool) "empty breach render" true
    (contains (St.render_breaches []) "all budgets respected");
  Alcotest.(check bool) "breach render names program and bound" true
    (let s = St.render_breaches (St.gate ~budgets:tight [ regressed ]) in
     contains s "crc" && contains s "<= 105")

let test_gate_floor () =
  let budgets =
    budgets_of_string
      {|{"budgets":[{"program":"aes","metric":"block_instr_per_s","bound":1.0e8},
                    {"program":"sha","metric":"block_instr_per_s","bound":5.0e7}]}|}
  in
  let healthy = emu_gen "E" [ ("aes", 7e7, 2.2e8) ] in
  (* aes clears its floor; sha appears in no generation *)
  (match St.gate ~budgets [ healthy ] with
  | [ b ] ->
      Alcotest.(check (pair string string)) "missing floor program"
        ("sha", "block_instr_per_s") (breached b);
      Alcotest.(check bool) "no actual" true (b.St.br_row = None)
  | bs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 breach, got %d" (List.length bs)));
  let aes_only =
    budgets_of_string
      {|{"budgets":[{"program":"aes","metric":"block_instr_per_s","bound":1.0e8}]}|}
  in
  Alcotest.(check bool) "floor-only budget passes without placement rows"
    true
    (St.gate ~budgets:aes_only [ healthy ] = []);
  (* falling under the floor breaches: the row's direction inverts the
     comparison *)
  let regressed = emu_gen "R" [ ("aes", 7e7, 0.5e8) ] in
  (match St.gate ~budgets:aes_only [ regressed ] with
  | [ { St.br_row = Some r; _ } ] ->
      Alcotest.(check bool) "actual reported" true (r.St.r_value = 0.5e8);
      Alcotest.(check bool) "breach renders as a floor" true
        (contains (St.render_breaches (St.gate ~budgets:aes_only [ regressed ]))
           ">= 100000000")
  | _ -> Alcotest.fail "throughput regression not caught");
  (* the newest appearance wins: a recovered run clears an old breach *)
  Alcotest.(check bool) "newest generation wins" true
    (St.gate ~budgets:aes_only [ regressed; healthy ] = []);
  (* ceiling and floor rows for one program, from two artefacts *)
  let mixed =
    budgets_of_string
      {|{"budgets":[{"program":"aes","metric":"dyn_ckpts","bound":100},
                    {"program":"aes","metric":"block_instr_per_s","bound":1.0e8}]}|}
  in
  let place = place_gen "P" [ ("aes", 90, 1000) ] in
  Alcotest.(check bool) "ceiling + floor both satisfied" true
    (St.gate ~budgets:mixed [ place; healthy ] = []);
  match St.gate ~budgets:mixed [ place; regressed ] with
  | [ b ] ->
      Alcotest.(check (pair string string)) "only the floor trips"
        ("aes", "block_instr_per_s") (breached b)
  | bs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 breach, got %d" (List.length bs))

let test_budget_typos () =
  (* a misspelled or missing budget field is a parse error: read as
     "no budget" it would pass the gate unchecked *)
  List.iter
    (fun (what, body) ->
      match St.budgets_of_json (Result.get_ok (J.parse body)) with
      | Ok _ -> Alcotest.fail (what ^ " accepted")
      | Error _ -> ())
    [
      ("old-style misspelled key", {|{"budgets":[{"program":"crc","max_dyn_ckpt":1}]}|});
      ( "unknown extra field",
        {|{"budgets":[{"program":"crc","metric":"dyn_ckpts","bound":1,"min_instr_per_second":1e12}]}|}
      );
      ("missing bound", {|{"budgets":[{"program":"crc","metric":"dyn_ckpts"}]}|});
      ("missing metric", {|{"budgets":[{"program":"crc","bound":1}]}|});
      ( "string bound",
        {|{"budgets":[{"program":"crc","metric":"dyn_ckpts","bound":"1"}]}|} );
      ("not an object", {|{"budgets":[1]}|});
      ("no budgets array", {|{"budget":[]}|});
    ]

let test_budget_absent_metric () =
  (* a well-formed budget naming a metric no generation carries (here a
     typo in the metric's value) is a breach, not a pass *)
  let budgets =
    budgets_of_string
      {|{"budgets":[{"program":"cache-sweep","metric":"speedups","bound":1e9}]}|}
  in
  let cache =
    gen "C"
      [ row ~better:St.Higher ~unit:"ratio" "cache-sweep" "speedup" 20. ]
  in
  match St.gate ~budgets [ place_gen "P" [ ("crc", 1, 1) ]; cache ] with
  | [ { St.br_row = None; _ } as b ] ->
      Alcotest.(check (pair string string)) "absent metric breaches"
        ("cache-sweep", "speedups") (breached b);
      Alcotest.(check bool) "renders as absent" true
        (contains (St.render_breaches [ b ]) "absent from every generation")
  | _ -> Alcotest.fail "a budget on an absent metric passed the gate"

(* ------------------------------------------------------------------ *)
(* Report.table degenerate inputs                                       *)
(* ------------------------------------------------------------------ *)

let test_table_degenerate () =
  (* no columns at all: the rule width must not go negative *)
  Alcotest.(check bool) "zero-column table renders" true
    (String.length (R.table [] []) >= 0);
  Alcotest.(check bool) "zero-row table renders" true
    (String.length (R.table [ "a"; "b" ] []) > 0);
  Alcotest.(check bool) "empty-string cells render" true
    (String.length (R.table [ "" ] [ [ "" ] ]) > 0)

let suite =
  [
    Alcotest.test_case "stats: generation parsing" `Quick
      test_generation_parsing;
    Alcotest.test_case "stats: emu generation parsing" `Quick
      test_emu_generation_parsing;
    Alcotest.test_case "stats: committed artifacts load" `Quick
      test_real_artifacts_load;
    Alcotest.test_case "stats: trend deltas" `Quick test_trend_deltas;
    Alcotest.test_case "stats: trend degenerate inputs" `Quick
      test_trend_degenerate;
    Alcotest.test_case "stats: top spans and self time" `Quick test_top_spans;
    Alcotest.test_case "stats: worker utilization" `Quick
      test_worker_utilization;
    Alcotest.test_case "stats: throughput trend" `Quick test_throughput_trend;
    Alcotest.test_case "stats: regression gate" `Quick test_gate;
    Alcotest.test_case "stats: throughput floor gate" `Quick test_gate_floor;
    Alcotest.test_case "stats: budget typos are parse errors" `Quick
      test_budget_typos;
    Alcotest.test_case "stats: budget on an absent metric breaches" `Quick
      test_budget_absent_metric;
    Alcotest.test_case "report: degenerate tables" `Quick
      test_table_degenerate;
  ]

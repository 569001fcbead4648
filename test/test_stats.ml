(* Run-artifact trend reporting and the regression gate (lib/core/stats),
   exercised on synthetic BENCH generations, span trees and budgets —
   including every degenerate shape the renderers must survive: zero
   spans, a single generation, an empty campaign, a zero baseline. *)

module St = Wario.Stats
module S = Wario_obs.Span
module R = Wario.Report
module J = Wario_support.Json

(* ------------------------------------------------------------------ *)
(* Fixtures                                                             *)
(* ------------------------------------------------------------------ *)

let place_gen label progs =
  let prog (name, selected, dyn, cyc) =
    Printf.sprintf
      {|{"name":%S,"class":"micro","selected":%S,"variants":{%S:{"dyn_ckpts":%d,"cycles":%d}}}|}
      name selected selected dyn cyc
  in
  let body =
    Printf.sprintf
      {|{"bench":"place","small":false,"programs":[%s]}|}
      (String.concat "," (List.map prog progs))
  in
  match St.generation_of_json ~label (Result.get_ok (J.parse body)) with
  | Ok g -> g
  | Error e -> Alcotest.fail (label ^ ": " ^ e)

let perf_gen label =
  let body =
    {|{"bench":"perf","small":true,"emulator":{"fast_instr_per_s":1.0e8}}|}
  in
  match St.generation_of_json ~label (Result.get_ok (J.parse body)) with
  | Ok g -> g
  | Error e -> Alcotest.fail (label ^ ": " ^ e)

let emu_gen label progs =
  let prog (name, r, b) =
    Printf.sprintf
      {|{"name":%S,"continuous":{"reference_instr_per_s":%f,"block_instr_per_s":%f}}|}
      name r b
  in
  let body =
    Printf.sprintf
      {|{"bench":"emu","small":false,"programs":[%s]}|}
      (String.concat "," (List.map prog progs))
  in
  match St.generation_of_json ~label (Result.get_ok (J.parse body)) with
  | Ok g -> g
  | Error e -> Alcotest.fail (label ^ ": " ^ e)

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
  let g = place_gen "G1" [ ("crc", "greedy", 100, 2000) ] in
  Alcotest.(check string) "label" "G1" g.St.g_label;
  Alcotest.(check string) "kind" "place" g.St.g_kind;
  (match g.St.g_points with
  | [ p ] ->
      Alcotest.(check string) "program" "crc" p.St.pt_program;
      Alcotest.(check string) "selected" "greedy" p.St.pt_selected;
      Alcotest.(check int) "dyn ckpts" 100 p.St.pt_dyn_ckpts;
      Alcotest.(check int) "cycles" 2000 p.St.pt_cycles
  | ps -> Alcotest.fail (Printf.sprintf "expected 1 point, got %d" (List.length ps)));
  let p = perf_gen "P" in
  Alcotest.(check bool) "perf has no points" true (p.St.g_points = []);
  Alcotest.(check bool) "perf carries ips" true
    (p.St.g_emulator_ips = Some 1.0e8);
  (* a malformed selected variant is an error, not a silent zero *)
  let bad =
    {|{"bench":"place","programs":[{"name":"x","selected":"g","variants":{"g":{"cycles":5}}}]}|}
  in
  match St.generation_of_json ~label:"B" (Result.get_ok (J.parse bad)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing dyn_ckpts accepted"

let test_emu_generation_parsing () =
  let g = emu_gen "E1" [ ("aes", 7.0e7, 2.2e8) ] in
  Alcotest.(check string) "kind" "emu" g.St.g_kind;
  Alcotest.(check bool) "emu has no placement points" true (g.St.g_points = []);
  (match g.St.g_throughput with
  | [ t ] ->
      Alcotest.(check string) "program" "aes" t.St.tp_program;
      Alcotest.(check bool) "reference ips" true (t.St.tp_ref_ips = 7.0e7);
      Alcotest.(check bool) "block ips" true (t.St.tp_block_ips = 2.2e8)
  | ts ->
      Alcotest.fail
        (Printf.sprintf "expected 1 tpoint, got %d" (List.length ts)));
  (* placement generations carry no throughput points *)
  let p = place_gen "G" [ ("crc", "g", 10, 100) ] in
  Alcotest.(check bool) "place has no throughput" true (p.St.g_throughput = []);
  (* older generations also measured a uop engine: the field is ignored *)
  let legacy =
    {|{"bench":"emu","programs":[{"name":"x","continuous":{"reference_instr_per_s":1.0,"uop_instr_per_s":2.0,"block_instr_per_s":3.0}}]}|}
  in
  (match St.generation_of_json ~label:"L" (Result.get_ok (J.parse legacy)) with
  | Ok { St.g_throughput = [ t ]; _ } ->
      Alcotest.(check bool) "legacy block ips" true (t.St.tp_block_ips = 3.0)
  | _ -> Alcotest.fail "legacy emu generation with uop fields rejected");
  (* a missing engine field is an error, not a silent zero *)
  let bad =
    {|{"bench":"emu","programs":[{"name":"x","continuous":{"block_instr_per_s":1.0}}]}|}
  in
  match St.generation_of_json ~label:"B" (Result.get_ok (J.parse bad)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing reference_instr_per_s accepted"

let test_real_artifacts_load () =
  (* the committed artifacts must stay parseable by the stats engine *)
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun file ->
      if Sys.file_exists file then
        match St.load_generation ~label:file (read file) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (file ^ ": " ^ e))
    [ "BENCH_4.json"; "BENCH_5.json"; "BENCH_6.json"; "BENCH_7.json";
      "../BENCH_4.json"; "../BENCH_5.json"; "../BENCH_6.json";
      "../BENCH_7.json" ]

(* ------------------------------------------------------------------ *)
(* Trend                                                                *)
(* ------------------------------------------------------------------ *)

let test_trend_deltas () =
  let g1 = place_gen "G1" [ ("crc", "greedy", 100, 2000); ("sha", "g", 50, 800) ] in
  let g2 =
    place_gen "G2" [ ("crc", "inter", 80, 1900); ("aes", "g", 7, 70) ]
  in
  let rows = St.trend [ g1; g2 ] in
  Alcotest.(check (list string)) "rows in first-appearance order"
    [ "crc"; "sha"; "aes" ]
    (List.map (fun r -> r.St.tr_program) rows);
  let crc = List.hd rows in
  Alcotest.(check int) "cells aligned with generations" 2
    (List.length crc.St.tr_cells);
  (match crc.St.tr_dyn_delta_pct with
  | Some d when Float.abs (d +. 20.0) < 1e-9 -> ()
  | _ -> Alcotest.fail "crc dyn delta should be -20%");
  let sha = List.nth rows 1 in
  Alcotest.(check bool) "single appearance: no delta" true
    (sha.St.tr_dyn_delta_pct = None && sha.St.tr_cycles_delta_pct = None);
  (* perf generations don't contribute placement columns *)
  let rows' = St.trend [ perf_gen "P"; g1 ] in
  Alcotest.(check int) "perf gen adds no cells" 1
    (List.length (List.hd rows').St.tr_cells)

let test_trend_degenerate () =
  Alcotest.(check bool) "no generations: no rows" true (St.trend [] = []);
  let single = place_gen "G" [ ("crc", "g", 10, 100) ] in
  let rows = St.trend [ single ] in
  Alcotest.(check bool) "single generation: row but no delta" true
    (match rows with
    | [ r ] -> r.St.tr_dyn_delta_pct = None
    | _ -> false);
  (* zero baseline: delta is None, never a division by zero *)
  let z1 = place_gen "Z1" [ ("p", "g", 0, 0) ] in
  let z2 = place_gen "Z2" [ ("p", "g", 5, 10) ] in
  (match St.trend [ z1; z2 ] with
  | [ r ] ->
      Alcotest.(check bool) "zero-baseline deltas are None" true
        (r.St.tr_dyn_delta_pct = None && r.St.tr_cycles_delta_pct = None)
  | _ -> Alcotest.fail "expected one row");
  (* rendering every degenerate shape must not raise or emit nan *)
  List.iter
    (fun gens ->
      let s = St.render_trend gens in
      Alcotest.(check bool) "no nan in render" false
        (let rec has_nan i =
           i + 3 <= String.length s
           && (String.sub s i 3 = "nan" || has_nan (i + 1))
         in
         has_nan 0))
    [ []; [ single ]; [ perf_gen "P" ]; [ z1; z2 ] ]

let test_throughput_trend () =
  let e1 = emu_gen "E1" [ ("aes", 1e7, 1.0e8); ("sha", 1e7, 5e7) ] in
  let e2 = emu_gen "E2" [ ("aes", 1e7, 1.25e8) ] in
  let place = place_gen "G" [ ("crc", "g", 10, 100) ] in
  let rows = St.throughput_trend [ place; e1; e2 ] in
  Alcotest.(check (list string)) "rows in first-appearance order"
    [ "aes"; "sha" ]
    (List.map (fun r -> r.St.th_program) rows);
  let aes = List.hd rows in
  (* cells align with the emu generations only: the placement generation
     contributes no column *)
  Alcotest.(check int) "cells aligned with emu generations" 2
    (List.length aes.St.th_cells);
  (match aes.St.th_block_delta_pct with
  | Some d when Float.abs (d -. 25.0) < 1e-9 -> ()
  | _ -> Alcotest.fail "aes block delta should be +25%");
  let sha = List.nth rows 1 in
  Alcotest.(check bool) "single appearance: no delta" true
    (sha.St.th_block_delta_pct = None);
  Alcotest.(check bool) "placement-only input: no throughput rows" true
    (St.throughput_trend [ place ] = []);
  (* the emu table renders without nan alongside placement tables *)
  let s = St.render_trend [ place; e1; e2 ] in
  Alcotest.(check bool) "render mentions block column" true
    (let needle = "d-block" in
     let nl = String.length needle in
     let rec found i =
       i + nl <= String.length s
       && (String.sub s i nl = needle || found (i + 1))
     in
     found 0)

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

let test_gate () =
  let budgets =
    budgets_of_string
      {|{"budgets":[{"program":"crc","max_dyn_ckpts":100,"max_cycles":3000},
                    {"program":"ghost","max_dyn_ckpts":1}]}|}
  in
  let g1 = place_gen "G1" [ ("crc", "g", 120, 2500) ] in
  let g2 = place_gen "G2" [ ("crc", "g", 90, 2500) ] in
  (* the newest appearance wins: G2's 90 <= 100 passes even though G1 broke
     it; ghost appears nowhere and is its own breach *)
  (match St.gate ~budgets [ g1; g2 ] with
  | [ b ] ->
      Alcotest.(check string) "missing program breaches" "ghost"
        b.St.br_program;
      Alcotest.(check string) "metric is missing" "missing" b.St.br_metric;
      Alcotest.(check bool) "no actual value" true (b.St.br_actual = None)
  | bs -> Alcotest.fail (Printf.sprintf "expected 1 breach, got %d" (List.length bs)));
  (* a +10% regression on a 5%-headroom budget must breach *)
  let tight = budgets_of_string {|{"budgets":[{"program":"crc","max_dyn_ckpts":105}]}|} in
  let base = place_gen "B" [ ("crc", "g", 100, 1000) ] in
  Alcotest.(check bool) "baseline passes" true (St.gate ~budgets:tight [ base ] = []);
  let regressed = place_gen "R" [ ("crc", "g", 110, 1000) ] in
  (match St.gate ~budgets:tight [ base; regressed ] with
  | [ b ] ->
      Alcotest.(check string) "dyn budget breached" "dyn_ckpts" b.St.br_metric;
      Alcotest.(check bool) "actual reported" true (b.St.br_actual = Some 110);
      Alcotest.(check int) "limit reported" 105 b.St.br_limit
  | _ -> Alcotest.fail "regression not caught");
  (* renderers survive both outcomes *)
  Alcotest.(check bool) "empty breach render" true
    (String.length (St.render_breaches []) >= 0);
  Alcotest.(check bool) "breach render mentions the program" true
    (let s = St.render_breaches (St.gate ~budgets:tight [ regressed ]) in
     let needle = "crc" in
     let nl = String.length needle in
     let rec found i =
       i + nl <= String.length s
       && (String.sub s i nl = needle || found (i + 1))
     in
     found 0)

let test_gate_floor () =
  let budgets =
    budgets_of_string
      {|{"budgets":[{"program":"aes","min_instr_per_s":1.0e8},
                    {"program":"sha","min_instr_per_s":5.0e7}]}|}
  in
  let healthy = emu_gen "E" [ ("aes", 7e7, 2.2e8) ] in
  (* aes clears its floor; sha appears in no emu generation *)
  (match St.gate ~budgets [ healthy ] with
  | [ b ] ->
      Alcotest.(check string) "missing floor program" "sha" b.St.br_program;
      Alcotest.(check string) "metric" "instr_per_s missing" b.St.br_metric;
      Alcotest.(check bool) "no actual" true (b.St.br_actual = None)
  | bs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 breach, got %d" (List.length bs)));
  (* a floor-only budget must NOT demand a placement appearance *)
  let aes_only =
    budgets_of_string {|{"budgets":[{"program":"aes","min_instr_per_s":1.0e8}]}|}
  in
  Alcotest.(check bool) "floor-only budget passes without placement gens" true
    (St.gate ~budgets:aes_only [ healthy ] = []);
  (* falling under the floor breaches, with the actual and the floor *)
  let regressed = emu_gen "R" [ ("aes", 7e7, 0.5e8) ] in
  (match St.gate ~budgets:aes_only [ regressed ] with
  | [ b ] ->
      Alcotest.(check string) "floor breached" "instr_per_s" b.St.br_metric;
      Alcotest.(check bool) "actual reported" true
        (b.St.br_actual = Some 50_000_000);
      Alcotest.(check int) "floor reported" 100_000_000 b.St.br_limit
  | _ -> Alcotest.fail "throughput regression not caught");
  (* the newest emu appearance wins: a recovered run clears an old breach *)
  Alcotest.(check bool) "newest generation wins" true
    (St.gate ~budgets:aes_only [ regressed; healthy ] = []);
  (* mixed ceiling + floor budgets check both artefact kinds at once *)
  let mixed =
    budgets_of_string
      {|{"budgets":[{"program":"aes","max_dyn_ckpts":100,"min_instr_per_s":1.0e8}]}|}
  in
  let place = place_gen "P" [ ("aes", "g", 90, 1000) ] in
  Alcotest.(check bool) "ceiling + floor both satisfied" true
    (St.gate ~budgets:mixed [ place; healthy ] = []);
  match St.gate ~budgets:mixed [ place; regressed ] with
  | [ b ] -> Alcotest.(check string) "only the floor trips" "instr_per_s" b.St.br_metric
  | bs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 breach, got %d" (List.length bs))

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
    Alcotest.test_case "report: degenerate tables" `Quick
      test_table_degenerate;
  ]

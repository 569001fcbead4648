(* Tests for the parallel experiment engine (lib/exec).

   The contract under test is determinism: [Exec.map] returns results in
   input order, re-raises the lowest-indexed failure, and produces
   structurally identical results for every [jobs] value — which is what
   lets the verify campaign and the bench driver parallelise without
   changing a byte of their output.  The harness round-trip at the bottom
   holds the integrated stack to that equation. *)

module X = Wario_exec.Exec
module P = Wario.Pipeline
module Cm = Wario_verify.Campaign

let test_map_input_order () =
  let items = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results land in input slots"
    (List.map (fun i -> i * i) items)
    (X.map ~jobs:4 (fun i -> i * i) items)

let test_map_jobs_invariant () =
  (* a job function with uneven per-item cost, so domains genuinely
     interleave when jobs > 1 *)
  let f i =
    let acc = ref i in
    for _ = 1 to 1000 * (i mod 7) do
      acc := (!acc * 31) land 0xffff
    done;
    (i, !acc)
  in
  let items = List.init 64 Fun.id in
  let seq = X.map ~jobs:1 f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "jobs=%d equals jobs=1" jobs)
        seq
        (X.map ~jobs f items))
    [ 2; 3; 8 ]

let test_map_more_jobs_than_items () =
  Alcotest.(check (list int))
    "jobs may exceed items"
    [ 2; 4 ]
    (X.map ~jobs:16 (fun x -> 2 * x) [ 1; 2 ])

let test_map_empty () =
  Alcotest.(check (list int)) "empty input" [] (X.map ~jobs:8 Fun.id [])

let test_map_invalid_jobs () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d rejected" jobs)
        (Invalid_argument
           (Printf.sprintf "Exec.map: jobs must be >= 0 (got %d)" jobs))
        (fun () -> ignore (X.map ~jobs Fun.id [ 1 ])))
    [ -1; -8 ]

let test_map_jobs_zero_auto () =
  (* jobs = 0 sizes the pool to the host (sequential on a single-core
     host) and must agree with the sequential results either way *)
  let items = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "jobs=0 equals jobs=1"
    (X.map ~jobs:1 (fun i -> i * 3) items)
    (X.map ~jobs:0 (fun i -> i * 3) items)

let test_map_lowest_failure_wins () =
  (* items 3 and 7 both fail; whatever the domain timing, the caller must
     always see item 3's exception *)
  let f i = if i = 3 || i = 7 then failwith (string_of_int i) else i in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "lowest index re-raised (jobs=%d)" jobs)
        (Failure "3")
        (fun () -> ignore (X.map ~jobs f (List.init 10 Fun.id))))
    [ 1; 4 ]

let test_serialized_sink () =
  let buf = Buffer.create 4096 in
  let log = X.serialized (fun s -> Buffer.add_string buf (s ^ "\n")) in
  let items = List.init 200 Fun.id in
  ignore (X.map ~jobs:8 (fun i -> log (Printf.sprintf "item-%04d" i)) items);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "every line arrives exactly once, never torn"
    (List.map (fun i -> Printf.sprintf "item-%04d" i) items)
    lines

(* The integrated contract: a verify campaign case — including one with
   real failures — yields an identical report whether the schedule
   fan-out runs on one domain or several. *)
let harness_case_report jobs =
  (* byte_ops + Drop_ckpt 1 is the proven sabotage from
     test_verify.ml: it reliably re-opens a WAR window, so the failure
     path (reproducer, failure accounting) is exercised *)
  let m = Wario_workloads.Micro.find "byte_ops" in
  let config =
    {
      Cm.default_config with
      Cm.budget = 40;
      opts = { P.default_options with P.sabotage = Some (P.Drop_ckpt 1) };
      jobs;
    }
  in
  Cm.run_case config
    ~workload:(m.Wario_workloads.Micro.name, m.Wario_workloads.Micro.source)
    ~env:P.Wario

let test_harness_jobs_deterministic () =
  let seq = harness_case_report 1 in
  let par = harness_case_report 3 in
  Alcotest.(check bool)
    "sabotaged byte_ops case finds failures" true
    (seq.Cm.k_failures <> []);
  Alcotest.(check bool) "report identical for jobs=1 and jobs=3" true (seq = par)

let suite =
  [
    Alcotest.test_case "map: input order" `Quick test_map_input_order;
    Alcotest.test_case "map: jobs-invariant results" `Quick
      test_map_jobs_invariant;
    Alcotest.test_case "map: more jobs than items" `Quick
      test_map_more_jobs_than_items;
    Alcotest.test_case "map: empty input" `Quick test_map_empty;
    Alcotest.test_case "map: jobs=0 is auto" `Quick test_map_jobs_zero_auto;
    Alcotest.test_case "map: invalid jobs rejected" `Quick
      test_map_invalid_jobs;
    Alcotest.test_case "map: lowest-indexed failure wins" `Quick
      test_map_lowest_failure_wins;
    Alcotest.test_case "serialized: single-writer funnel" `Quick
      test_serialized_sink;
    Alcotest.test_case "harness: report identical across jobs" `Quick
      test_harness_jobs_deterministic;
  ]

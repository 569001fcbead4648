(* End-to-end benchmark of the toolchain: the commands people run — a
   verify campaign, `iclang pgo`, an `iclang serve` batch — driven through
   the public library functions, timed as a user sees them, and (in a
   separate traced run) broken down by layer from one span tree.

     dune exec bench/e2e/e2e.exe -- --seed 1                 # all workloads
     dune exec bench/e2e/e2e.exe -- --workload pgo --seed 1 --seconds 20
     dune exec bench/e2e/e2e.exe -- --workload serve --trace 1 \
       --span-jsonl spans.jsonl                               # per-layer run
     dune exec bench/e2e/e2e.exe -- --smoke BENCHMARK.json    # CI smoke

   A run repeats its workload's round until --seconds have elapsed and
   reports the best round, as the emulator bench reports best-of-7: on a
   shared host, noise only ever slows a round down.  Outputs are checked against the
   independent semantics (Ir_interp on unoptimized IR) after timing; on
   any mismatch the run prints its result with "correct": false and exits
   nonzero.  The last stdout line is one JSON object
   {correct, attempted, failed, metrics}.  See README.md for the
   workloads, the metric table and the layer map. *)

module P = Wario.Pipeline
module Cache = Wario.Cache
module Sv = Wario.Serve
module Pgo = Wario.Pgo
module Emu = Wario_emulator.Emulator
module Power = Wario_emulator.Power
module S = Wario_obs.Span
module J = Wario_support.Json
module Campaign = Wario_verify.Campaign
module Oracle = Wario_verify.Oracle
module X = Wario_exec.Exec
module Micro = Wario_workloads.Micro
module Programs = Wario_workloads.Programs

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile, [p] in (0, 1] *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let sumf = List.fold_left ( +. ) 0.
let fmin = function [] -> 0. | x :: xs -> List.fold_left Float.min x xs
let fmax = function [] -> 0. | x :: xs -> List.fold_left Float.max x xs

(* ------------------------------------------------------------------ *)
(* Metric names                                                         *)
(* ------------------------------------------------------------------ *)

(* Every workload reports every metric: a layer a workload does not
   exercise reads 0, which is the "stays flat" prediction of the layer
   map in README.md. *)
let e2e_metrics =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("ops_per_s", "1/s");
    ("peak_rss_mb", "MiB");
    ("text_bytes", "B");
    ("dyn_ckpts", "count");
    ("active_cycles", "count");
    ("intermittent_cycles", "count");
  ]

let layer_metrics =
  [
    ("emulator.create_ms", "ms");
    ("emulator.nv_digest_ms", "ms");
    ("emulator.create_alloc_mb", "MiB");
    ("emulator.ref_verify_minstr_per_s", "Minstr/s");
    ("emulator.block_minstr_per_s", "Minstr/s");
    ("verify.golden_ms", "ms");
    ("verify.adversary_ms", "ms");
    ("verify.adversary_probes", "count");
    ("verify.plan_ms", "ms");
    ("verify.execute_ms", "ms");
    ("verify.schedules", "count");
    ("verify.execute_ms_per_schedule", "ms");
    ("verify.mopup_ms", "ms");
    ("verify.failures", "count");
    ("verify.check_schedule_ms", "ms");
    ("verify.boundary_coverage_pct", "%");
    ("exec.busy_ms", "ms");
    ("exec.idle_ms", "ms");
    ("minic.frontend_ms", "ms");
    ("transforms.opt_pipeline_ms", "ms");
    ("transforms.loop_write_clusterer_ms", "ms");
    ("transforms.checkpoint_inserter_ms", "ms");
    ("analysis.hs_nodes", "count");
    ("analysis.callgraph_place_ms", "ms");
    ("backend.ms", "ms");
    ("backend.link_ms", "ms");
    ("transforms.expander_trials_ms", "ms");
    ("transforms.expander_candidates", "count");
    ("transforms.expander_inlined", "count");
    ("transforms.expander_accept_ratio", "ratio");
    ("core.elide_ms", "ms");
    ("core.motion_ms", "ms");
    ("certify.rechecks", "count");
    ("certify.recheck_ms", "ms");
    ("certify.certify_ms", "ms");
    ("core.pgo.pilot_ms", "ms");
    ("core.pgo.audition_ms", "ms");
    ("core.pgo.measure_ms", "ms");
    ("core.pgo.candidates", "count");
    ("core.cache.hits", "count");
    ("core.cache.misses", "count");
    ("core.cache.puts", "count");
    ("core.cache.store_mb", "MiB");
    ("core.cache.image_key_ms", "ms");
    ("core.serve.parse_ms", "ms");
    ("core.serve.plan_ms", "ms");
    ("core.serve.dedup_ratio", "ratio");
    ("core.serve.cold_job_ms_p50", "ms");
    ("core.serve.cold_job_ms_p90", "ms");
    ("core.serve.warm_job_ms_p50", "ms");
    ("core.serve.warm_job_ms_p99", "ms");
    ("layer.compiler_self_ms", "ms");
    ("layer.verify_self_ms", "ms");
    ("layer.emulator_self_ms", "ms");
    ("layer.attributed_pct", "%");
    ("trace.overhead_ratio", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Run state: output checks and operation counts                        *)
(* ------------------------------------------------------------------ *)

let problems : string list ref = ref []
let failed_ops = ref 0

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then problems := msg :: !problems) fmt

(* The independent semantics: the unoptimized IR straight out of the
   front end, interpreted. *)
let reference src =
  let r = Wario_ir.Ir_interp.run (Wario_minic.Minic.compile src) in
  (r.Wario_ir.Ir_interp.output, r.Wario_ir.Ir_interp.ret)

let check_run ~what (want_out, want_exit) (r : Emu.result) =
  check (r.Emu.output = want_out) "%s: output differs from the reference" what;
  check (r.Emu.exit_code = want_exit) "%s: exit code %ld, reference %ld" what
    r.Emu.exit_code want_exit;
  check (r.Emu.violations = []) "%s: %d WAR violation(s)" what
    (List.length r.Emu.violations)

(* The paper's code-quality numbers, summed over a workload's binaries:
   .text size (Table 2), dynamic checkpoints (Table 1), cycles under
   continuous power (Fig. 4) and under a 100k-cycle periodic supply
   (Table 3). *)
type exact = { text : int; dyn : int; active : int; inter : int }

let no_exact = { text = 0; dyn = 0; active = 0; inter = 0 }
let intermittent = Power.Periodic 100_000

let add_exact e ~text (cont : Emu.result) (per : Emu.result) =
  {
    text = e.text + text;
    dyn = e.dyn + cont.Emu.checkpoints_total;
    active = e.active + cont.Emu.cycles;
    inter = e.inter + per.Emu.cycles;
  }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec du path =
  match Sys.is_directory path with
  | true ->
      Array.fold_left
        (fun a f -> a + du (Filename.concat path f))
        0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop () =
          let l = input_line ic in
          if String.starts_with ~prefix:"VmHWM:" l then
            Scanf.sscanf
              (String.sub l 6 (String.length l - 6))
              " %d kB"
              (fun kb -> float kb /. 1024.)
          else loop ()
        in
        loop ())
  in
  try from_proc ()
  with _ ->
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type size = {
  tiny_budget : int;
  tiny : string list;
  dense_budget : int;
  pgo_programs : string list;
  serve_distinct : int;
  serve_dups : int;
  warm_passes : int;
  setup_reps : int;  (** set-ups per run, reported as the fastest *)
  probe_reps : int;  (** repetitions of each emulator probe *)
  check_reps : int;  (** Oracle.check_schedule calls the probe averages *)
  trace_rounds : int;  (** fewest rounds of a traced run *)
}

let full =
  {
    tiny_budget = 100;
    tiny = [ "arith"; "struct_list"; "byte_ops" ];
    dense_budget = 100;
    pgo_programs = [ "crc"; "sha"; "dijkstra" ];
    serve_distinct = 96;
    serve_dups = 32;
    warm_passes = 20;
    setup_reps = 5;
    probe_reps = 20;
    check_reps = 50;
    trace_rounds = 2;
  }

(* one program per workload, an 8-job batch: the `dune runtest` rule *)
let smoke =
  {
    tiny_budget = 20;
    tiny = [ "arith" ];
    dense_budget = 20;
    pgo_programs = [ "sha" ];
    serve_distinct = 6;
    serve_dups = 2;
    warm_passes = 2;
    setup_reps = 1;
    probe_reps = 1;
    check_reps = 5;
    trace_rounds = 1;
  }

type workload = {
  programs : (string * string) list;
      (** (name, MiniC source): each set-up compiles them under the
          default pipeline and runs the golden (continuous, verified) run *)
  probe : string;  (** the program the emulator probes run *)
  prepare : unit -> unit;  (** seed-derived input generation (set-up) *)
  round : spans:S.t -> int -> int;
      (** one round of the timed work; returns the operations attempted *)
  finish : (P.compiled * Oracle.golden) list -> exact;
      (** after timing, given the set-up results: output checks and the
          exact metrics *)
  layers : unit -> (string * float) list;
      (** per-layer values the workload measures itself *)
}

(* --- verify: Campaign.run_case under wario --------------------------- *)

let verify_workload ~budget ~seed names =
  let programs = List.map (fun n -> (n, (Micro.find n).Micro.source)) names in
  let reports = ref [] in
  let config =
    {
      Campaign.default_config with
      Campaign.envs = [ P.Wario ];
      workloads = programs;
      budget;
      seed = Int64.of_int seed;
      jobs = 1;
    }
  in
  let round ~spans _ =
    List.fold_left
      (fun ops workload ->
        let rep =
          S.with_span spans "e2e.run_case" (fun () ->
              Campaign.run_case ~spans config ~workload ~env:P.Wario)
        in
        reports := rep :: !reports;
        ops + rep.Campaign.k_schedules + rep.Campaign.k_probes)
      0 programs
  in
  let finish goldens =
    List.iter
      (fun (rep : Campaign.case_report) ->
        failed_ops := !failed_ops + rep.Campaign.k_failures_total;
        check
          (rep.Campaign.k_failures_total = 0)
          "%s: %d failing schedule(s)" rep.Campaign.k_workload
          rep.Campaign.k_failures_total;
        let pct = Campaign.boundary_pct rep.Campaign.k_coverage in
        check (pct >= 95.) "%s: boundary coverage %.1f%% < 95%%"
          rep.Campaign.k_workload pct)
      !reports;
    (* the campaign's golden run is Oracle.golden of this very compile *)
    List.fold_left2
      (fun e (name, src) ((c : P.compiled), (g : Oracle.golden)) ->
        let want = reference src in
        check_run ~what:(name ^ " golden") want g.Oracle.g_result;
        let per = Emu.run ~supply:intermittent c.P.image in
        check_run ~what:(name ^ " periodic") want per;
        add_exact e ~text:c.P.text_bytes g.Oracle.g_result per)
      no_exact programs goldens
  in
  {
    programs;
    probe = List.hd names;
    prepare = ignore;
    round;
    finish;
    layers =
      (fun () ->
        [ ("verify.boundary_coverage_pct", Campaign.min_boundary_pct !reports) ]);
  }

(* --- pgo: what `iclang pgo` does, cache off --------------------------- *)

let pgo_variants = [ Pgo.Greedy; Pgo.Static; Pgo.Profile; Pgo.Inter ]

let pgo_workload names =
  let programs =
    List.map (fun n -> (n, (Programs.find n).Programs.source)) names
  in
  let opts = { P.default_options with P.elide = true; motion = true } in
  (* per round, per program: the selected binary's continuous and
     periodic final runs *)
  let runs = ref [] in
  let round ~spans _ =
    let per_program =
      X.map ~jobs:1 ~spans ~label:"e2e.pgo.map"
        (fun (name, src) ->
          let cs =
            S.with_span spans "e2e.compile_candidates" (fun () ->
                Pgo.compile_candidates ~opts ~spans ~cache:Cache.disabled
                  P.Wario src)
          in
          List.iter
            (fun v ->
              match
                S.with_span spans "e2e.certify" (fun () ->
                    P.certify (Pgo.compiled_of cs v))
              with
              | Wario_certify.Certify.Certified _ -> ()
              | Wario_certify.Certify.Rejected _ ->
                  incr failed_ops;
                  check false "%s: the %s candidate failed certification" name
                    (Pgo.variant_name v))
            pgo_variants;
          let best = Pgo.compiled_of cs cs.Pgo.pilot.Pgo.selected in
          let final supply =
            S.with_span spans
              ~attrs:[ ("supply", S.Str (Power.describe supply)) ]
              "e2e.final_run"
              (fun () -> Emu.run ~supply best.P.image)
          in
          let cont = final Power.Continuous in
          let per = final intermittent in
          (* keep what the checks need, not the compiled binaries: what
             the process holds across rounds shows in peak_rss_mb *)
          let slim (r : Emu.result) =
            { r with Emu.region_sizes = []; failure_sites = [] }
          in
          (name, best.P.text_bytes, slim cont, slim per))
        programs
    in
    runs := per_program :: !runs;
    List.length pgo_variants * List.length programs
  in
  let finish _ =
    let want = List.map (fun (name, src) -> (name, reference src)) programs in
    let exact_of per_program =
      List.fold_left
        (fun e (name, text, cont, per) ->
          check_run ~what:(name ^ " continuous") (List.assoc name want) cont;
          check_run ~what:(name ^ " periodic") (List.assoc name want) per;
          add_exact e ~text cont per)
        no_exact per_program
    in
    match List.map exact_of !runs with
    | [] -> no_exact
    | e :: rest ->
        check
          (List.for_all (( = ) e) rest)
          "pgo: selected binaries differ between rounds";
        e
  in
  print_endline "pgo: deterministic compile loop, --seed does not apply";
  {
    programs;
    probe = "sha";
    prepare = ignore;
    round;
    finish;
    layers = (fun () -> []);
  }

(* --- serve: a seeded JSONL batch through the Serve protocol ---------- *)

type spec = {
  bench : string;
  env : P.environment;
  placement : string;
  elide : bool;
  unroll : int;
}

(* aes and picojpeg are left out: their cost-guided compiles take
   1.5-6.6 s each, so one cold pass of them would not fit a run *)
let serve_benchmarks = [ "crc"; "sha"; "dijkstra"; "coremark" ]

(* 96 distinct jobs: four environments at unroll 8, plus the two whose
   loop write clusterer reads the unroll factor at 4.  No
   interprocedural jobs: trial auditions belong to the pgo workload. *)
let serve_grid =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun (env, unroll) ->
          List.concat_map
            (fun placement ->
              List.map
                (fun elide -> { bench; env; placement; elide; unroll })
                [ false; true ])
            [ "greedy"; "cost-guided" ])
        (List.map (fun e -> (e, 8)) [ P.Ratchet; P.R_pdg; P.Wario; P.Wario_expander ]
        @ List.map (fun e -> (e, 4)) [ P.Wario; P.Wario_expander ]))
    serve_benchmarks

(* A duplicate is the same job spelled differently — defaults omitted,
   fields reordered — so deduplication has to go through the canonical
   image key. *)
let job_line ~id ~alt s =
  let f = Printf.sprintf in
  let fields =
    if not alt then
      [
        f {|"id":"%s"|} id;
        f {|"benchmark":"%s"|} s.bench;
        f {|"env":"%s"|} (P.environment_name s.env);
        f {|"placement":"%s"|} s.placement;
        f {|"elide":%b|} s.elide;
        f {|"unroll":%d|} s.unroll;
      ]
    else
      let opt c x = if c then [ x ] else [] in
      opt (s.unroll <> 8) (f {|"unroll":%d|} s.unroll)
      @ opt s.elide {|"elide":true|}
      @ opt (s.placement <> "cost-guided") (f {|"placement":"%s"|} s.placement)
      @ opt (s.env <> P.Wario) (f {|"env":"%s"|} (P.environment_name s.env))
      @ [ f {|"benchmark":"%s"|} s.bench; f {|"id":"%s"|} id ]
  in
  "{" ^ String.concat "," fields ^ "}"

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let serve_batch ~seed ~distinct ~dups =
  let rng = Random.State.make [| seed |] in
  let grid = Array.of_list serve_grid in
  shuffle rng grid;
  let d = Array.sub grid 0 distinct in
  let entries =
    Array.append
      (Array.map (fun s -> (s, false)) d)
      (Array.init dups (fun _ -> (d.(Random.State.int rng distinct), true)))
  in
  shuffle rng entries;
  Array.to_list
    (Array.mapi
       (fun i (s, alt) -> job_line ~id:(Printf.sprintf "j%03d" i) ~alt s)
       entries)

let lookup name =
  List.find_opt (fun (b : Programs.benchmark) -> b.Programs.name = name)
    Programs.all
  |> Option.map (fun (b : Programs.benchmark) -> b.Programs.source)

type pass = {
  out : string list;  (** stats-only result lines, input order *)
  jobs : Sv.job array;
  plan : Sv.plan;
  images : (int, Wario_emulator.Image.t * int) Hashtbl.t;
      (** distinct job index -> linked image and its .text bytes; the
          rest of each compile is dropped, so that what the process holds
          between rounds stays small next to a round's own peak *)
  job_ms : float list;  (** one per distinct compile *)
}

(* One `iclang serve --stats-only --jobs 1` pass over the batch. *)
let serve_pass ~spans ~cache lines =
  S.with_span spans "e2e.serve.pass" @@ fun () ->
  let parsed =
    S.with_span spans "serve.parse" (fun () ->
        List.mapi (fun index l -> Sv.job_of_line ~lookup ~index l) lines)
  in
  List.iter
    (function
      | Ok _ -> ()
      | Error e ->
          incr failed_ops;
          check false "serve: job rejected: %s" e)
    parsed;
  let jobs = Array.of_list (List.filter_map Result.to_option parsed) in
  let plan = S.with_span spans "serve.plan" (fun () -> Sv.plan (Array.to_list jobs)) in
  let results =
    X.map ~jobs:1 ~spans ~label:"serve.map"
      (fun idx ->
        let j = jobs.(idx) in
        let (c, stages), dt =
          time (fun () ->
              P.compile_with_report ~opts:j.Sv.j_opts ~spans ~cache j.Sv.j_env
                j.Sv.j_source)
        in
        (idx, (c, stages, dt *. 1000.)))
      plan.Sv.p_distinct
  in
  let compiled = Hashtbl.of_seq (List.to_seq results) in
  let out =
    S.with_span spans "serve.emit" (fun () ->
        List.mapi
          (fun p job ->
            let canon = plan.Sv.p_canonical.(p) in
            let c, stages, ms = Hashtbl.find compiled canon in
            Sv.result_line ~stats_only:true ~job ~key:plan.Sv.p_keys.(p)
              ~dedup_of:(if canon = p then None else Some jobs.(canon).Sv.j_id)
              ~stages ~wall_ms:ms c)
          (Array.to_list jobs))
  in
  let images =
    List.to_seq results
    |> Seq.map (fun (idx, ((c : P.compiled), _, _)) ->
           (idx, (c.P.image, c.P.text_bytes)))
    |> Hashtbl.of_seq
  in
  { out; jobs; plan; images; job_ms = List.map (fun (_, (_, _, ms)) -> ms) results }

let serve_workload ~size ~seed ~root =
  let programs =
    List.map (fun n -> (n, (Programs.find n).Programs.source)) serve_benchmarks
  in
  let lines = ref [] in
  let cold_ms = ref [] and warm_ms = ref [] in
  let cache_rounds = ref [] and last = ref None in
  (* a round: one cold pass into a fresh cache directory (store writes),
     then warm passes over the same batch (store reads + unmarshal) *)
  let round ~spans r =
    let traced = S.is_enabled spans in
    let dir = Filename.concat root (Printf.sprintf "round-%d" r) in
    rm_rf dir;
    let cache = Cache.create dir in
    let cold = serve_pass ~spans ~cache !lines in
    let store = du dir in
    for _ = 1 to size.warm_passes do
      let warm = serve_pass ~spans ~cache !lines in
      check (warm.out = cold.out) "serve: warm results differ from cold ones";
      if not traced then warm_ms := List.rev_append warm.job_ms !warm_ms
    done;
    if not traced then cold_ms := List.rev_append cold.job_ms !cold_ms;
    cache_rounds := (Cache.counters cache, store) :: !cache_rounds;
    last := Some cold;
    rm_rf dir;
    List.length !lines * (1 + size.warm_passes)
  in
  let finish _ =
    match !last with
    | None -> no_exact
    | Some cold ->
        let n = Array.length cold.jobs in
        let d = List.length cold.plan.Sv.p_distinct in
        Printf.printf
          "serve: batch of %d jobs from seed %d, %d distinct, %d duplicates\n" n
          seed d (n - d);
        check
          (d = size.serve_distinct && n - d = size.serve_dups)
          "serve: %d distinct + %d duplicate jobs, expected %d + %d" d (n - d)
          size.serve_distinct size.serve_dups;
        (* warm = cold is checked per pass; cold must also equal a
           cache-free compile, on 8 seeded jobs *)
        let rng = Random.State.make [| seed; 8 |] in
        for _ = 1 to min 8 n do
          let p = Random.State.int rng n in
          let job = cold.jobs.(p) and canon = cold.plan.Sv.p_canonical.(p) in
          let c, stages =
            P.compile_with_report ~opts:job.Sv.j_opts ~cache:Cache.disabled
              job.Sv.j_env job.Sv.j_source
          in
          let line =
            Sv.result_line ~stats_only:true ~job ~key:cold.plan.Sv.p_keys.(p)
              ~dedup_of:
                (if canon = p then None else Some cold.jobs.(canon).Sv.j_id)
              ~stages ~wall_ms:0. c
          in
          check (line = List.nth cold.out p)
            "serve: job %s differs from an uncached compile" job.Sv.j_id
        done;
        let refs = Hashtbl.create 8 in
        List.fold_left
          (fun e idx ->
            let job = cold.jobs.(idx) in
            let want =
              match Hashtbl.find_opt refs job.Sv.j_program with
              | Some r -> r
              | None ->
                  let r = reference job.Sv.j_source in
                  Hashtbl.replace refs job.Sv.j_program r;
                  r
            in
            let image, text = Hashtbl.find cold.images idx in
            let cont = Emu.run ~verify:false image in
            let per = Emu.run ~verify:false ~supply:intermittent image in
            check_run ~what:("serve " ^ job.Sv.j_id) want cont;
            check_run ~what:("serve " ^ job.Sv.j_id ^ " periodic") want per;
            add_exact e ~text cont per)
          no_exact cold.plan.Sv.p_distinct
  in
  let layers () =
    let rounds = float (max 1 (List.length !cache_rounds)) in
    let avg f = sumf (List.map f !cache_rounds) /. rounds in
    let jobs, distinct =
      match !last with
      | Some c -> (Array.length c.jobs, List.length c.plan.Sv.p_distinct)
      | None -> (0, 0)
    in
    [
      ("core.cache.hits", avg (fun (c, _) -> float c.Cache.hits));
      ("core.cache.misses", avg (fun (c, _) -> float c.Cache.misses));
      ("core.cache.puts", avg (fun (c, _) -> float c.Cache.puts));
      ("core.cache.store_mb", avg (fun (_, b) -> float b /. 1048576.));
      ( "core.serve.dedup_ratio",
        if jobs = 0 then 0. else 1. -. (float distinct /. float jobs) );
      ("core.serve.cold_job_ms_p50", percentile 0.5 !cold_ms);
      ("core.serve.cold_job_ms_p90", percentile 0.9 !cold_ms);
      ("core.serve.warm_job_ms_p50", percentile 0.5 !warm_ms);
      ("core.serve.warm_job_ms_p99", percentile 0.99 !warm_ms);
    ]
  in
  {
    programs;
    probe = "sha";
    prepare =
      (fun () ->
        lines :=
          serve_batch ~seed ~distinct:size.serve_distinct ~dups:size.serve_dups);
    round;
    finish;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer numbers                                                    *)
(* ------------------------------------------------------------------ *)

let rec flatten (s : S.span) = s :: List.concat_map flatten s.S.sp_children

type layer = Compiler | Verify | Emulator | Bench

(* Which layer owns a span's self time.  A bench-side span around a
   public call takes the layer of the call; only the benchmark's own
   structure (rounds, serve passes) is [Bench]. *)
let layer_of = function
  | "e2e.round" | "e2e.serve.pass" -> Bench
  | "e2e.run_case" -> Verify
  | "e2e.final_run" | "pgo.pilot" | "pgo.measure" -> Emulator
  | n when String.starts_with ~prefix:"campaign." n -> Verify
  | _ -> Compiler

(* Self time counts only same-track children: worker spans sit on their
   own tracks as utilization overlays of the pool span's window. *)
let self_ms (s : S.span) =
  s.S.sp_dur
  -. sumf
       (List.filter_map
          (fun (c : S.span) ->
            if c.S.sp_track = s.S.sp_track then Some c.S.sp_dur else None)
          s.S.sp_children)

(* Per-round means over the traced rounds' span trees. *)
let span_layers (rounds : S.span list) : (string * float) list =
  let all = List.concat_map flatten rounds in
  let n = float (max 1 (List.length rounds)) in
  let named name = List.filter (fun (s : S.span) -> s.S.sp_name = name) all in
  let ms name = sumf (List.map (fun (s : S.span) -> s.S.sp_dur) (named name)) /. n in
  let count name = float (List.length (named name)) /. n in
  let counter span key =
    float
      (List.fold_left
         (fun a (s : S.span) ->
           a + Option.value ~default:0 (List.assoc_opt key s.S.sp_counters))
         0 (named span))
    /. n
  in
  let worker key =
    sumf
      (List.filter_map
         (fun (s : S.span) ->
           match List.assoc_opt key s.S.sp_attrs with
           | Some (S.Float f) -> Some f
           | _ -> None)
         (named "worker"))
    /. n
  in
  let self l =
    sumf
      (List.filter_map
         (fun (s : S.span) ->
           if s.S.sp_track = 0 && layer_of s.S.sp_name = l then Some (self_ms s)
           else None)
         all)
    /. n
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let schedules = counter "campaign.execute" "schedules" in
  let candidates = counter "middle.expander_trials" "candidates" in
  let inlined = counter "middle.expander_trials" "inlined" in
  let attributed = self Compiler +. self Verify +. self Emulator in
  [
    ("verify.golden_ms", ms "campaign.golden");
    ("verify.adversary_ms", ms "campaign.adversary");
    ("verify.adversary_probes", counter "campaign.adversary" "probes");
    ("verify.plan_ms", ms "campaign.plan");
    ("verify.execute_ms", ms "campaign.execute");
    ("verify.schedules", schedules);
    ("verify.execute_ms_per_schedule", ratio (ms "campaign.execute") schedules);
    ("verify.mopup_ms", ms "campaign.mopup");
    ("verify.failures", counter "campaign.execute" "failures");
    ("exec.busy_ms", worker "busy_ms");
    ("exec.idle_ms", worker "idle_ms");
    ("minic.frontend_ms", ms "frontend");
    ("transforms.opt_pipeline_ms", ms "middle.opt_pipeline");
    ("transforms.loop_write_clusterer_ms", ms "middle.loop_write_clusterer");
    ("transforms.checkpoint_inserter_ms", ms "middle.checkpoint_inserter");
    ("analysis.hs_nodes", counter "middle.checkpoint_inserter" "hs_nodes");
    ("analysis.callgraph_place_ms", ms "middle.callgraph_place");
    ("backend.ms", ms "backend");
    ("backend.link_ms", ms "link");
    ("transforms.expander_trials_ms", ms "middle.expander_trials");
    ("transforms.expander_candidates", candidates);
    ("transforms.expander_inlined", inlined);
    ("transforms.expander_accept_ratio", ratio inlined candidates);
    ("core.elide_ms", ms "backend.elide");
    ("core.motion_ms", ms "backend.motion");
    ("certify.rechecks", count "certify.recheck_removal" +. count "certify.recheck");
    ("certify.recheck_ms", ms "certify.recheck_removal" +. ms "certify.recheck");
    ("certify.certify_ms", ms "e2e.certify");
    ("core.pgo.pilot_ms", ms "pgo.pilot");
    ("core.pgo.audition_ms", ms "pgo.audition");
    ("core.pgo.measure_ms", ms "pgo.measure");
    ( "core.pgo.candidates",
      ratio (count "pgo.audition") (count "e2e.compile_candidates") );
    ("core.serve.parse_ms", ms "serve.parse");
    ("core.serve.plan_ms", ms "serve.plan");
    ("layer.compiler_self_ms", self Compiler);
    ("layer.verify_self_ms", self Verify);
    ("layer.emulator_self_ms", self Emulator);
    ("layer.attributed_pct", 100. *. ratio attributed (ms "e2e.round"));
  ]

(* Emulator and oracle costs measured by calls the benchmark makes
   itself, on one of the workload's programs. *)
let probe_layers ~spans ~(size : size) (c : P.compiled) (g : Oracle.golden) src :
    (string * float) list =
  S.with_span spans "e2e.probes" @@ fun () ->
  let probe name f = S.with_span spans ("e2e.probe." ^ name) f in
  let ms_of f = snd (time f) *. 1000. in
  let img = c.P.image in
  let create_ms =
    probe "create" (fun () ->
        median
          (List.init size.probe_reps (fun _ ->
               ms_of (fun () -> ignore (Sys.opaque_identity (Emu.create img))))))
  in
  let alloc_mb =
    let a0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Emu.create img));
    (Gc.allocated_bytes () -. a0) /. 1048576.
  in
  let halted = Emu.create img in
  while not (Emu.halted halted) do
    ignore (Emu.run_batch halted 65536)
  done;
  let digest_ms =
    probe "nv_digest" (fun () ->
        median
          (List.init size.probe_reps (fun _ ->
               ms_of (fun () -> ignore (Emu.nv_digest halted)))))
  in
  let minstr engine verify =
    median
      (List.init (min 3 size.probe_reps) (fun _ ->
           let r, dt = time (fun () -> Emu.run ~engine ~verify img) in
           float r.Emu.instrs /. dt /. 1e6))
  in
  let ref_mips = probe "ref_verify" (fun () -> minstr Emu.Reference true) in
  let block_mips = probe "block" (fun () -> minstr Emu.Block false) in
  let cut = [| max 1 (g.Oracle.g_result.Emu.cycles / 2) |] in
  let check_ms =
    probe "check_schedule" (fun () ->
        ms_of (fun () ->
            for _ = 1 to size.check_reps do
              match Oracle.check_schedule g c cut with
              | Ok () -> ()
              | Error d ->
                  check false "probe: a mid-run cut diverges: %s"
                    (Oracle.string_of_divergence d)
            done)
        /. float size.check_reps)
  in
  let key_ms =
    probe "image_key" (fun () ->
        ms_of (fun () ->
            for _ = 1 to 20 do
              ignore (P.image_key P.Wario src)
            done)
        /. 20.)
  in
  [
    ("emulator.create_ms", create_ms);
    ("emulator.nv_digest_ms", digest_ms);
    ("emulator.create_alloc_mb", alloc_mb);
    ("emulator.ref_verify_minstr_per_s", ref_mips);
    ("emulator.block_minstr_per_s", block_mips);
    ("verify.check_schedule_ms", check_ms);
    ("core.cache.image_key_ms", key_ms);
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let workload_names = [ "verify-tiny"; "verify-dense"; "pgo"; "serve" ]

let make_workload ~size ~seed ~root = function
  | "verify-tiny" -> verify_workload ~budget:size.tiny_budget ~seed size.tiny
  | "verify-dense" -> verify_workload ~budget:size.dense_budget ~seed [ "fib" ]
  | "pgo" -> pgo_workload size.pgo_programs
  | "serve" -> serve_workload ~size ~seed ~root
  | w -> invalid_arg ("unknown workload " ^ w)

type round = { wall : float; ops : int; roots : S.span list }

(* Repeat the round while the previous one still fits in [seconds].
   Traced runs alternate traced and untraced rounds, so the overhead
   ratio compares rounds of the same run. *)
let drive ~seconds ~trace ~min_rounds (w : workload) : round list =
  let t_start = now () in
  let rec loop r acc =
    let spans = if trace && r mod 2 = 0 then S.create () else S.disabled in
    let ops, wall =
      time (fun () ->
          S.with_span spans ~attrs:[ ("round", S.Int r) ] "e2e.round" (fun () ->
              w.round ~spans r))
    in
    let acc = { wall; ops; roots = S.roots spans } :: acc in
    if r + 1 < min_rounds || now () -. t_start +. wall <= seconds then
      loop (r + 1) acc
    else List.rev acc
  in
  loop 0 []

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * string * float) list;
  layers : (string * string * float) list;
}

let with_units table values =
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value ~default:0. (List.assoc_opt name values)))
    table

let print_table title rows =
  Printf.printf "-- %s\n" title;
  List.iter
    (fun (name, unit, v) ->
      Printf.printf "  %-36s %16s %s\n" name (J.float_repr v) unit)
    rows

let run_workload ~size ~name ~seed ~seconds ~trace ~span_jsonl : outcome =
  problems := [];
  failed_ops := 0;
  let root =
    Filename.concat (Sys.getcwd ()) (Printf.sprintf ".e2e-cache-%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let w = make_workload ~size ~seed ~root name in
  (* set-up, [setup_reps] times: seeded inputs, and for each program one
     default-pipeline compile and its golden run (the probes' and the
     checks' subjects) *)
  let setups =
    List.init size.setup_reps (fun _ ->
        time (fun () ->
            w.prepare ();
            List.map
              (fun (_, src) ->
                let c = P.compile ~cache:Cache.disabled P.Wario src in
                (c, Oracle.golden c))
              w.programs))
  in
  let goldens = fst (List.hd setups) in
  let rounds =
    drive ~seconds ~trace ~min_rounds:(if trace then size.trace_rounds else 1) w
  in
  let rss = peak_rss_mb () in
  let exact, check_s = time (fun () -> w.finish goldens) in
  let untraced = List.filter (fun r -> r.roots = []) rounds in
  let traced = List.filter (fun r -> r.roots <> []) rounds in
  (* a smoke run has a single, traced round *)
  let timed = if untraced = [] then rounds else untraced in
  let walls rs = List.map (fun r -> r.wall) rs in
  let ops rs = List.fold_left (fun a r -> a + r.ops) 0 rs in
  let e2e =
    with_units e2e_metrics
      [
        ("setup_s", fmin (List.map snd setups));
        ("wall_s", fmin (walls timed));
        ( "ops_per_s",
          fmax (List.map (fun r -> float r.ops /. r.wall) timed) );
        ("peak_rss_mb", rss);
        ("text_bytes", float exact.text);
        ("dyn_ckpts", float exact.dyn);
        ("active_cycles", float exact.active);
        ("intermittent_cycles", float exact.inter);
      ]
  in
  let layers =
    if not trace then []
    else begin
      let pspans = S.create () in
      let (_, src), (c, g) =
        List.find (fun ((n, _), _) -> n = w.probe) (List.combine w.programs goldens)
      in
      let probes, dt = time (fun () -> probe_layers ~spans:pspans ~size c g src) in
      Printf.printf "probes on %s: %.1f s\n" w.probe dt;
      let round_roots = List.concat_map (fun r -> r.roots) traced in
      let all_roots = round_roots @ S.roots pspans in
      (match S.check all_roots with
      | Ok () -> ()
      | Error e -> check false "span self-check: %s" e);
      if span_jsonl <> "" then
        Out_channel.with_open_bin span_jsonl (fun oc ->
            output_string oc (S.to_jsonl all_roots));
      with_units layer_metrics
        (span_layers round_roots @ probes @ w.layers ()
        @
        if untraced = [] then []
        else
          [ ("trace.overhead_ratio", fmin (walls traced) /. fmin (walls untraced)) ])
    end
  in
  Printf.printf
    "== %s: seed %d, %d round(s) (%d traced), %.1f s of rounds, %.1f s of \
     output checks\n"
    name seed (List.length rounds) (List.length traced) (sumf (walls rounds))
    check_s;
  Printf.printf "round walls (s):%s\n"
    (String.concat "" (List.map (fun r -> Printf.sprintf " %.3f" r.wall) rounds));
  print_table "end to end (untraced rounds)" e2e;
  if trace then print_table "per layer (traced rounds, per-round means)" layers;
  List.iter (fun p -> Printf.eprintf "CHECK FAILED: %s\n" p) (List.rev !problems);
  {
    correct = !problems = [];
    attempted = ops rounds;
    failed = !failed_ops;
    e2e;
    layers;
  }

let num v = if Float.is_finite v then J.float_repr v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (num v) unit)
          metrics))

(* All workloads, each in its own child process so memory and set-up are
   per workload; the last line merges their results under
   "<workload>.<metric>". *)
let run_all ~seed ~seconds ~trace ~span_jsonl =
  let results =
    List.map
      (fun w ->
        let spans =
          if span_jsonl = "" then []
          else
            [ "--span-jsonl";
              Filename.remove_extension span_jsonl ^ "." ^ w
              ^ Filename.extension span_jsonl ]
        in
        let args =
          [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
            "--seconds"; num seconds; "--trace"; (if trace then "1" else "0") ]
          @ spans
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        let last = ref "" in
        (try
           while true do
             let l = input_line ic in
             print_endline l;
             last := l
           done
         with End_of_file -> ());
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        (w, ok, J.parse !last))
      workload_names
  in
  let field k conv j = Option.bind (J.member k j) conv in
  let correct = ref true and attempted = ref 0 and failed = ref 0 in
  let metrics =
    List.concat_map
      (fun (w, ok, parsed) ->
        match parsed with
        | Ok j when ok ->
            let count k = Option.value ~default:0 (field k J.to_int j) in
            attempted := !attempted + count "attempted";
            failed := !failed + count "failed";
            Option.value ~default:[] (field "metrics" J.obj_fields j)
            |> List.filter_map (fun (name, m) ->
                   match (field "value" J.to_float m, field "unit" J.to_string m) with
                   | Some v, Some u -> Some (w ^ "." ^ name, u, v)
                   | _ -> None)
        | _ ->
            correct := false;
            [])
      results
  in
  print_endline
    (result_line ~correct:!correct ~attempted:!attempted ~failed:!failed metrics);
  if not !correct then exit 1

(* Every workload at smoke size, one traced round each:
   every metric BENCHMARK.json names must be reported with its unit, and
   every output check must pass. *)
let run_smoke bench_json =
  let spec =
    match J.parse (In_channel.with_open_bin bench_json In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (bench_json ^ ": " ^ e)
  in
  let entries key =
    Option.value ~default:[] (Option.bind (J.member key spec) J.to_list)
  in
  let str k j = Option.bind (J.member k j) J.to_string in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("smoke: " ^ m);
        ok := false)
      fmt
  in
  List.iter
    (fun j ->
      match str "name" j with
      | Some w when List.mem w workload_names -> ()
      | w -> fail "unknown workload %s" (Option.value ~default:"?" w))
    (entries "workloads");
  List.iter
    (fun name ->
      let o, dt =
        time (fun () ->
            run_workload ~size:smoke ~name ~seed:1 ~seconds:0. ~trace:true
              ~span_jsonl:"")
      in
      Printf.printf "smoke: %s took %.1f s\n%!" name dt;
      if not o.correct then fail "%s: output checks failed" name;
      List.iter
        (fun (key, printed) ->
          List.iter
            (fun j ->
              match (str "name" j, str "unit" j) with
              | Some m, Some u ->
                  if not (List.exists (fun (m', u', _) -> m = m' && u = u') printed)
                  then fail "%s: metric %s (%s) not reported" name m u
              | _ -> fail "malformed %s entry" key)
            (entries key))
        [ ("end_to_end", o.e2e); ("per_layer", o.layers) ])
    workload_names;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25. in
  let trace = ref 0 and span_jsonl = ref "" and smoke_spec = ref "" in
  let usage = "e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " workload_names
        ^ " (default: all, one child process each)" );
      ("--seed", Arg.Set_int seed, "N campaign seed and serve batch seed");
      ( "--seconds",
        Arg.Set_float seconds,
        "S how long one workload's rounds run (default 25)" );
      ("--trace", Arg.Set_int trace, "0|1 1: traced run, per-layer metrics");
      ( "--span-jsonl",
        Arg.Set_string span_jsonl,
        "FILE write the traced run's spans as JSONL" );
      ( "--smoke",
        Arg.Set_string smoke_spec,
        "BENCHMARK.json every workload at smoke size; check metric names" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (* an ambient compile cache would turn the campaigns' compiles into hits *)
  Unix.putenv "WARIO_CACHE_DIR" "";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let trace = !trace = 1 in
  if !smoke_spec <> "" then run_smoke !smoke_spec
  else if !workload = "" then
    run_all ~seed:!seed ~seconds:!seconds ~trace ~span_jsonl:!span_jsonl
  else if not (List.mem !workload workload_names) then (
    prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
    exit 2)
  else begin
    let o =
      run_workload ~size:full ~name:!workload ~seed:!seed ~seconds:!seconds ~trace
        ~span_jsonl:!span_jsonl
    in
    print_endline
      (result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
         (if trace then o.layers else o.e2e));
    if not o.correct then exit 1
  end

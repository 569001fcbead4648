(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) on the TM2 emulator.  The compiler's own pass timings
   are per-layer metrics of the end-to-end benchmark (bench/e2e).

     dune exec bench/main.exe                     # everything
     dune exec bench/main.exe fig4                # one artefact
     dune exec bench/main.exe fig4 tab3           # several
     dune exec bench/main.exe -- --list           # artefact names
     dune exec bench/main.exe -- --out-dir d fig4 # write d/fig4.txt
     dune exec bench/main.exe -- --jobs 8 place6  # place6 + BENCH_6.json
     dune exec bench/main.exe -- --small --artefact emu    # CI smoke

   Artefacts: fig4 fig5 tab1 tab2 fig6 fig7 tab3 tab4 ext profile emu
   place6 cache.  The three gated ones (emu, place6, cache)
   each write a BENCH_*.json of (program, metric, value, unit, better)
   rows, the one schema [iclang stats] reads.  The compile+run cache is
   prefilled on --jobs domains (default and 0: the host's domain count;
   results are identical for any value).
   Absolute numbers differ from the paper (different substrate,
   scaled inputs — see DESIGN.md §7); the comparisons and shapes are the
   result. *)

module P = Wario.Pipeline
module E = Wario_emulator
module O = Wario_obs
module Report = Wario.Report
module W = Wario_workloads.Programs
module X = Wario_exec.Exec

let benchmarks = W.all

(* Span recording: live exactly when --span-out/--span-jsonl was given.
   The driver wraps every artefact in a "bench.<name>" span and the
   parallel fan-outs below contribute pool/worker utilization spans; the
   recorder is only ever touched by the driver domain. *)
let opt_span_out : string option ref = ref None
let opt_span_jsonl : string option ref = ref None
let spans = ref O.Span.disabled

let instrumented_envs =
  [ P.Ratchet; P.R_pdg; P.Epilog_opt; P.Write_cluster; P.Loop_cluster;
    P.Wario; P.Wario_expander ]

(* ------------------------------------------------------------------ *)
(* Cached compile+run                                                   *)
(* ------------------------------------------------------------------ *)

type entry = { compiled : P.compiled; run : E.Emulator.result }

let cache : (string * string, entry) Hashtbl.t = Hashtbl.create 64

let key_of ~unroll (b : W.benchmark) env =
  (b.W.name, P.environment_name env ^ "@" ^ string_of_int unroll)

let compute ~unroll (b : W.benchmark) (env : P.environment) : entry =
  let opts = { P.default_options with unroll_factor = unroll } in
  let compiled = P.compile ~opts env b.source in
  let run = E.Emulator.run ~verify:(env <> P.Plain) compiled.P.image in
  { compiled; run }

let warn_violations (b : W.benchmark) env e =
  match e.run.E.Emulator.violations with
  | _ :: _ when env <> P.Plain ->
      Printf.eprintf "*** %s [%s]: %d WAR violations!\n" b.name
        (P.environment_name env)
        (List.length e.run.E.Emulator.violations)
  | _ -> ()

let get ?(unroll = 8) (b : W.benchmark) (env : P.environment) : entry =
  let key = key_of ~unroll b env in
  match Hashtbl.find_opt cache key with
  | Some e -> e
  | None ->
      let e = compute ~unroll b env in
      warn_violations b env e;
      Hashtbl.replace cache key e;
      e

(* Warm the cache for a grid of cases on [jobs] domains.  The Hashtbl is
   not domain-safe, so the jobs only compile and run (each builds its own
   program and emulator); the fill — and the violation warnings — happen
   here, sequentially, in input order. *)
let prefill ~jobs ?(unroll = 8) (grid : (W.benchmark * P.environment) list) =
  let missing =
    List.filter (fun (b, env) -> not (Hashtbl.mem cache (key_of ~unroll b env))) grid
  in
  X.map ~jobs ~spans:!spans ~label:"bench.prefill"
    (fun (b, env) -> compute ~unroll b env)
    missing
  |> List.iter2
       (fun (b, env) e ->
         warn_violations b env e;
         Hashtbl.replace cache (key_of ~unroll b env) e)
       missing

let norm_time b env =
  let plain = (get b P.Plain).run.E.Emulator.cycles in
  float_of_int (get b env).run.E.Emulator.cycles /. float_of_int plain

(* ------------------------------------------------------------------ *)
(* Figure 4: normalized execution time                                  *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  print_endline
    "\n=== Figure 4: execution time normalized to uninstrumented C ===\n";
  let header = "benchmark" :: List.map P.environment_name instrumented_envs in
  let rows =
    List.map
      (fun b ->
        b.W.name
        :: List.map
             (fun env -> Printf.sprintf "%.3f" (norm_time b env))
             instrumented_envs)
      benchmarks
  in
  let avg env =
    let xs = List.map (fun b -> norm_time b env) benchmarks in
    List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let avg_row =
    "AVERAGE"
    :: List.map (fun env -> Printf.sprintf "%.3f" (avg env)) instrumented_envs
  in
  print_string (Report.table header (rows @ [ avg_row ]));
  let overhead env = avg env -. 1. in
  let reduction base target =
    100. *. (overhead base -. overhead target) /. overhead base
  in
  Printf.printf
    "\ncheckpoint overhead of WARio vs Ratchet: %.1f%% lower (paper: 45.6%%)\n"
    (reduction P.Ratchet P.Wario);
  Printf.printf
    "checkpoint overhead of WARio vs R-PDG:  %.1f%% lower (paper: 27.7%%)\n"
    (reduction P.R_pdg P.Wario);
  Printf.printf
    "WARio+Expander vs Ratchet: %.1f%% lower (paper: 58.1%%); vs R-PDG: %.1f%% \
     (paper: 44.3%%)\n"
    (reduction P.Ratchet P.Wario_expander)
    (reduction P.R_pdg P.Wario_expander);
  (* decompose the overhead: which cycles are first-execution work and
     which are the intermittent tax (boot, restore replay, re-execution)?
     Under continuous power only the initial boot is overhead, so the
     interesting split needs an intermittent supply. *)
  print_endline
    "\n-- wasted-cycle decomposition (wario-expander, periodic 100k-cycle \
     on-period) --";
  let rows =
    List.map
      (fun b ->
        match
          E.Emulator.run
            ~supply:(E.Power.Periodic 100_000)
            ~verify:false
            (get b P.Wario_expander).compiled.P.image
        with
        | r ->
            let w = r.E.Emulator.waste in
            let pct n =
              Printf.sprintf "%.2f%%"
                (100. *. float_of_int n /. float_of_int r.E.Emulator.cycles)
            in
            [
              b.W.name;
              string_of_int r.E.Emulator.cycles;
              pct w.E.Emulator.w_useful;
              pct w.E.Emulator.w_boot;
              pct w.E.Emulator.w_restore;
              pct w.E.Emulator.w_reexec;
            ]
        | exception E.Emulator.No_forward_progress _ ->
            [ b.W.name; "stuck"; "-"; "-"; "-"; "-" ])
      benchmarks
  in
  print_string
    (Report.table
       [ "benchmark"; "cycles"; "useful"; "boot"; "restore"; "re-executed" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Figure 5: checkpoint causes, relative to R-PDG                       *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  print_endline
    "\n=== Figure 5: executed checkpoints by cause (% of R-PDG total) ===\n";
  List.iter
    (fun b ->
      let base =
        float_of_int (get b P.R_pdg).run.E.Emulator.checkpoints_total
      in
      Printf.printf "%s:\n" b.W.name;
      let header =
        [ "environment"; "fn exit %"; "fn entry %"; "back-end %";
          "middle-end %"; "total %" ]
      in
      let rows =
        List.map
          (fun env ->
            let c = (get b env).run.E.Emulator.checkpoints in
            let pct n =
              Printf.sprintf "%.1f" (100. *. float_of_int n /. base)
            in
            [
              P.environment_name env;
              pct c.E.Emulator.c_exit;
              pct c.E.Emulator.c_entry;
              pct c.E.Emulator.c_backend;
              pct c.E.Emulator.c_middle;
              pct
                (c.E.Emulator.c_exit + c.E.Emulator.c_entry
               + c.E.Emulator.c_backend + c.E.Emulator.c_middle);
            ])
          [ P.R_pdg; P.Epilog_opt; P.Write_cluster; P.Loop_cluster; P.Wario;
            P.Wario_expander ]
      in
      print_string (Report.table header rows);
      print_newline ())
    benchmarks

(* ------------------------------------------------------------------ *)
(* Table 1: executed checkpoints vs Ratchet                             *)
(* ------------------------------------------------------------------ *)

let tab1 () =
  print_endline
    "\n=== Table 1: change in executed checkpoints vs Ratchet ===\n";
  let delta b env =
    let r = float_of_int (get b P.Ratchet).run.E.Emulator.checkpoints_total in
    let v = float_of_int (get b env).run.E.Emulator.checkpoints_total in
    100. *. (v -. r) /. r
  in
  let rows =
    List.map
      (fun b ->
        [
          b.W.name;
          Printf.sprintf "%.1f%%" (delta b P.Wario);
          Printf.sprintf "%.1f%%" (delta b P.Wario_expander);
        ])
      benchmarks
  in
  let avg env =
    let xs = List.map (fun b -> delta b env) benchmarks in
    Printf.sprintf "%.1f%%"
      (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))
  in
  print_string
    (Report.table
       [ "benchmark"; "WARio"; "WARio+Expander" ]
       (rows @ [ [ "average"; avg P.Wario; avg P.Wario_expander ] ]));
  print_endline "(paper: average -47.6% / -50.2%)"

(* ------------------------------------------------------------------ *)
(* Table 2: code size                                                   *)
(* ------------------------------------------------------------------ *)

let tab2 () =
  print_endline "\n=== Table 2: .text size increase vs uninstrumented C ===\n";
  let delta b env =
    let plain = float_of_int (get b P.Plain).compiled.P.text_bytes in
    let v = float_of_int (get b env).compiled.P.text_bytes in
    100. *. (v -. plain) /. plain
  in
  let rows =
    List.map
      (fun b ->
        [
          b.W.name;
          string_of_int (get b P.Plain).compiled.P.text_bytes;
          Printf.sprintf "%+.1f%%" (delta b P.Ratchet);
          Printf.sprintf "%+.1f%%" (delta b P.Wario);
          Printf.sprintf "%+.1f%%" (delta b P.Wario_expander);
          Printf.sprintf "+%dB"
            ((get b P.Wario).compiled.P.text_bytes
            - (get b P.Plain).compiled.P.text_bytes);
        ])
      benchmarks
  in
  let avg env =
    let xs = List.map (fun b -> delta b env) benchmarks in
    Printf.sprintf "%+.1f%%"
      (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))
  in
  print_string
    (Report.table
       [ "benchmark"; "plain B"; "Ratchet"; "WARio"; "WARio+Expander";
         "WARio abs" ]
       (rows
       @ [ [ "average"; ""; avg P.Ratchet; avg P.Wario; avg P.Wario_expander;
             "" ] ]));
  print_endline
    "(paper: average +18.4% / +18.7% / +32.9%.  Relative growth diverges\n\
    \ here because our ports are almost entirely hot loop: unrolling the\n\
    \ loops that ARE the benchmark multiplies .text, where the paper's\n\
    \ binaries amortise it over large cold sections.  Ratchet's +7% and the\n\
    \ absolute deltas of a few KiB match the paper's observation that a\n\
    \ checkpoint is just one jump instruction.)"

(* ------------------------------------------------------------------ *)
(* Figure 6: unroll factor sweep                                        *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print_endline
    "\n=== Figure 6: Loop Write Clusterer unroll factor N (SHA, Tiny AES, \
     CoreMark) ===\n";
  let subset =
    List.filter
      (fun b -> List.mem b.W.name [ "sha"; "aes"; "coremark" ])
      benchmarks
  in
  let factors = [ 1; 2; 4; 6; 8; 10; 15; 20; 25; 30 ] in
  List.iter
    (fun b ->
      Printf.printf "%s:\n" b.W.name;
      let base = get ~unroll:1 b P.Loop_cluster in
      let b_mid = base.run.E.Emulator.checkpoints.E.Emulator.c_middle in
      let b_cyc = base.run.E.Emulator.cycles in
      let rows =
        List.map
          (fun n ->
            let e = get ~unroll:n b P.Loop_cluster in
            let c = e.run.E.Emulator.checkpoints in
            [
              string_of_int n;
              Printf.sprintf "%.1f"
                (100. *. float_of_int c.E.Emulator.c_middle
                /. float_of_int (max 1 b_mid));
              string_of_int c.E.Emulator.c_backend;
              Printf.sprintf "%.1f"
                (100.
                *. float_of_int (b_cyc - e.run.E.Emulator.cycles)
                /. float_of_int b_cyc);
              string_of_int e.run.E.Emulator.checkpoints_total;
            ])
          factors
      in
      print_string
        (Report.table
           [ "N"; "middle-end ckpts %"; "back-end ckpts";
             "time reduction %"; "total ckpts" ]
           rows);
      print_newline ())
    subset;
  print_endline
    "(paper: substantial improvement already at N=2; plateau around N=8; \
     back-end\n checkpoints grow with N)"

(* ------------------------------------------------------------------ *)
(* Figure 7: idempotent region sizes                                    *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  print_endline
    "\n=== Figure 7: idempotent region sizes (cycles between checkpoints) \
     ===\n";
  List.iter
    (fun b ->
      Printf.printf "%s:\n" b.W.name;
      let rows =
        List.map
          (fun env ->
            let s =
              Report.summarize_regions (get b env).run.E.Emulator.region_sizes
            in
            [
              P.environment_name env;
              string_of_int s.Report.rs_p25;
              string_of_int s.Report.rs_median;
              string_of_int s.Report.rs_p75;
              Printf.sprintf "%.0f" s.Report.rs_mean;
              string_of_int s.Report.rs_max;
            ])
          [ P.Ratchet; P.R_pdg; P.Wario ]
      in
      print_string
        (Report.table
           [ "environment"; "p25"; "median"; "p75"; "mean"; "max" ]
           rows);
      print_newline ())
    benchmarks;
  print_endline
    "(paper: medians barely move; means and maxima grow — the removed\n\
    \ checkpoints sat in small regions)"

(* ------------------------------------------------------------------ *)
(* Table 3: intermittent power                                          *)
(* ------------------------------------------------------------------ *)

let tab3 () =
  print_endline
    "\n=== Table 3: re-execution overhead O and power failures P \
     (WARio+Expander) ===\n";
  let supplies =
    [
      ("50k cyc {6.2ms@8MHz}", E.Power.Periodic 50_000);
      ("100k cyc {12.5ms}", E.Power.Periodic 100_000);
      ("1M cyc {125ms}", E.Power.Periodic 1_000_000);
      ("5M cyc {625ms}", E.Power.Periodic 5_000_000);
      ("trace theta (rf)", E.Power.Trace (E.Traces.rf_trace ()));
      ("trace beta (solar)", E.Power.Trace (E.Traces.solar_trace ()));
    ]
  in
  let header =
    "power on duration"
    :: List.concat_map (fun (b : W.benchmark) -> [ b.name ^ " O"; "P" ])
         benchmarks
  in
  let rows =
    List.map
      (fun (name, supply) ->
        name
        :: List.concat_map
             (fun b ->
               let cont = (get b P.Wario_expander).run.E.Emulator.cycles in
               match
                 E.Emulator.run ~supply ~verify:false
                   (get b P.Wario_expander).compiled.P.image
               with
               | r ->
                   [
                     Printf.sprintf "%.2f%%"
                       (100.
                       *. float_of_int (r.E.Emulator.cycles - cont)
                       /. float_of_int cont);
                     string_of_int r.E.Emulator.power_failures;
                   ]
               | exception E.Emulator.No_forward_progress _ ->
                   [ "stuck"; "-" ])
             benchmarks)
      supplies
  in
  print_string (Report.table header rows);
  print_endline
    "\n(paper: overhead < 1% except at very short on-times; P falls as the\n\
    \ on-period grows.  Our benchmarks finish in fewer cycles than the\n\
    \ paper's, so P is proportionally smaller at equal on-times.)"

(* ------------------------------------------------------------------ *)
(* Extensions (paper §6 discussion items, implemented here)             *)
(* ------------------------------------------------------------------ *)

let ext () =
  print_endline
    "\n=== Extensions: profile-guided Expander and region bounding (paper      §6) ===\n";
  (* profile-guided expander ablation *)
  print_endline "-- Expander: structural guess vs call-count profile --";
  let rows =
    List.filter_map
      (fun b ->
        if not (List.mem b.W.name [ "crc"; "aes"; "picojpeg" ]) then None
        else begin
          let blind = get b P.Wario_expander in
          let profile = blind.run.E.Emulator.call_counts in
          let opts =
            { P.default_options with expander_profile = Some profile }
          in
          let guided = P.compile ~opts P.Wario_expander b.W.source in
          let rg = E.Emulator.run guided.P.image in
          Some
            [
              b.W.name;
              string_of_int blind.run.E.Emulator.checkpoints_total;
              string_of_int rg.E.Emulator.checkpoints_total;
              Printf.sprintf "%.2f"
                (float_of_int rg.E.Emulator.cycles
                /. float_of_int (get b P.Plain).run.E.Emulator.cycles);
            ]
        end)
      benchmarks
  in
  print_string
    (Report.table
       [ "benchmark"; "ckpts (blind)"; "ckpts (profiled)"; "norm time" ]
       rows);
  (* region bounding ablation: minimum viable on-period *)
  print_endline
    "\n-- Region bounder: maximum region size and minimum viable on-time --";
  let b = W.find "sha" in
  let rows =
    List.map
      (fun bound ->
        let opts = { P.default_options with max_region = bound } in
        let c = P.compile ~opts P.Wario b.W.source in
        let r = E.Emulator.run c.P.image in
        let s = Report.summarize_regions r.E.Emulator.region_sizes in
        [
          (match bound with None -> "unbounded" | Some n -> string_of_int n);
          string_of_int s.Report.rs_max;
          string_of_int r.E.Emulator.checkpoints_total;
          Printf.sprintf "%.3f"
            (float_of_int r.E.Emulator.cycles
            /. float_of_int (get b P.Plain).run.E.Emulator.cycles);
          Printf.sprintf "%.2f ms"
            (float_of_int (s.Report.rs_max + 500) /. 8000.);
        ])
      [ None; Some 2000; Some 500; Some 120 ]
  in
  print_string
    (Report.table
       [ "bound"; "max region"; "ckpts"; "norm time"; "min on-time @8MHz" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Profile: traced per-function attribution (lib/obs)                   *)
(* ------------------------------------------------------------------ *)

let profile () =
  print_endline
    "\n=== Profile: traced per-function cycle attribution (lib/obs) ===\n";
  List.iter
    (fun b ->
      Printf.printf "%s:\n" b.W.name;
      let traced env =
        let compiled = (get b env).compiled in
        let sink = O.Trace.ring () in
        let r = E.Emulator.run ~verify:false ~tracer:sink compiled.P.image in
        (r, O.Profile.of_events (O.Trace.events sink))
      in
      let rows =
        List.map
          (fun env ->
            let r, p = traced env in
            let total = max 1 p.O.Profile.total_cycles in
            let ckpt_cycles =
              List.fold_left
                (fun a (fr : O.Profile.fn_row) -> a + fr.O.Profile.fn_ckpt_cycles)
                0 p.O.Profile.rows
            in
            let hottest =
              match p.O.Profile.rows with
              | [] -> "-"
              | fr :: _ ->
                  Printf.sprintf "%s (%.1f%%)" fr.O.Profile.fn_name
                    (100.
                    *. float_of_int fr.O.Profile.fn_cycles
                    /. float_of_int total)
            in
            [
              P.environment_name env;
              string_of_int r.E.Emulator.cycles;
              string_of_int r.E.Emulator.checkpoints_total;
              Printf.sprintf "%.1f%%"
                (100. *. float_of_int ckpt_cycles /. float_of_int total);
              hottest;
            ])
          instrumented_envs
      in
      print_string
        (Report.table
           [ "environment"; "cycles"; "ckpts"; "commit %"; "hottest function" ]
           rows);
      (* detailed per-function breakdown for the flagship environment *)
      let _, p = traced P.Wario_expander in
      Printf.printf "\n%s, wario-expander, per function:\n" b.W.name;
      print_string (Report.profile_table ~top:6 p);
      print_newline ())
    benchmarks;
  print_endline
    "(self cycles per function from the event trace; commit %% is the share\n\
    \ of cycles spent inside checkpoint commits.  [iclang trace] emits the\n\
    \ same data as Chrome JSON for Perfetto.)"

(* ------------------------------------------------------------------ *)
(* Table 4                                                              *)
(* ------------------------------------------------------------------ *)

let tab4 () =
  print_newline ();
  print_string (Report.table4 ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Gated artefacts: settings, timing and the row writer                 *)
(* ------------------------------------------------------------------ *)

(* Set by the driver before artefacts run. *)
let opt_jobs = ref 0 (* 0 = not set: use X.default_jobs () *)
let opt_small = ref false
let opt_out_dir : string option ref = ref None

let resolved_jobs () = if !opt_jobs >= 1 then !opt_jobs else X.default_jobs ()

let time_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* best-of-N wall-clock (min, the standard throughput estimator) *)
let best_of reps f =
  let r, t0 = time_of f in
  let best = ref t0 in
  for _ = 2 to reps do
    let _, t = time_of f in
    if t < !best then best := t
  done;
  (r, !best)

let row ?(unit = "count") ?(better = Wario.Stats.Lower) program metric value =
  {
    Wario.Stats.r_program = program;
    r_metric = metric;
    r_value = value;
    r_unit = unit;
    r_better = better;
  }

(* Write [rows] as BENCH file [file] (into --out-dir when given). *)
let write_rows ~bench file rows =
  let dir = match !opt_out_dir with Some d -> d | None -> "." in
  let path = Filename.concat dir file in
  let oc = open_out path in
  output_string oc (Wario.Stats.artefact_json ~bench ~small:!opt_small rows);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Emu: engine throughput (BENCH_7.json)                                 *)
(* ------------------------------------------------------------------ *)

(* Per-engine wall time of one run configuration; every engine's [result]
   is asserted byte-identical before any number is recorded. *)
type engine_row = { er_instrs : int; er_ref_s : float; er_blk_s : float }

let emu () =
  print_endline
    "\n=== Emu: engine (reference / block) throughput, BENCH_7.json ===\n";
  let reps = if !opt_small then 2 else 7 in
  let progs =
    if !opt_small then
      List.filter
        (fun b -> List.mem b.W.name [ "crc"; "sha"; "aes" ])
        benchmarks
    else benchmarks
  in
  prefill ~jobs:(resolved_jobs ()) (List.map (fun b -> (b, P.Wario)) progs);
  (* one on-period for every engine of a program, so the intermittent
     numbers are comparable; generous enough that every workload makes
     forward progress *)
  let on_period = 100_000 in
  let measure image supply =
    let attempt engine () =
      E.Emulator.run ~verify:false ~supply ~engine image
    in
    let r_ref, t_ref = best_of reps (attempt E.Emulator.Reference) in
    let r_blk, t_blk = best_of reps (attempt E.Emulator.Block) in
    if r_blk <> r_ref then failwith "emu: block engine diverged from reference";
    { er_instrs = r_ref.E.Emulator.instrs; er_ref_s = t_ref; er_blk_s = t_blk }
  in
  (* block-engine telemetry: one stepping run, untimed *)
  let block_stats image =
    let st = E.Emulator.create ~verify:false image in
    while not (E.Emulator.halted st) do
      ignore (E.Emulator.run_batch ~engine:E.Emulator.Block st 65536)
    done;
    E.Emulator.engine_stats st
  in
  let ips instrs t = float_of_int instrs /. t in
  let rows =
    List.map
      (fun b ->
        let image = (get b P.Wario).compiled.P.image in
        let cont = measure image E.Power.Continuous in
        let im = measure image (E.Power.Periodic on_period) in
        let es = block_stats image in
        (b.W.name, cont, im, es))
      progs
  in
  print_string
    (Report.table
       [ "benchmark"; "engine"; "continuous"; "intermittent"; "blk/ref" ]
       (List.concat_map
          (fun (name, c, im, _) ->
            List.map
              (fun (ename, pick) ->
                [
                  name; ename;
                  Printf.sprintf "%.2fM instr/s" (ips c.er_instrs (pick c) /. 1e6);
                  Printf.sprintf "%.2fM instr/s" (ips im.er_instrs (pick im) /. 1e6);
                  (if ename = "block" then
                     Printf.sprintf "%.2f" (c.er_ref_s /. c.er_blk_s)
                   else "");
                ])
              [ ("reference", fun r -> r.er_ref_s);
                ("block", fun r -> r.er_blk_s) ])
          rows));
  let aes_speedup =
    List.fold_left
      (fun acc (name, c, _, _) ->
        if name = "aes" then c.er_ref_s /. c.er_blk_s else acc)
      0. rows
  in
  Printf.printf
    "\nboth engines byte-identical on every run above: true\n\
     aes block speedup vs reference (continuous): %.2fx\n\n"
    aes_speedup;
  print_string
    (Report.table
       ~title:"block engine, one untimed stepping run"
       [ "benchmark"; "blocks"; "compile ms"; "dispatches"; "fallback steps" ]
       (List.map
          (fun (name, _, _, es) ->
            [
              name;
              string_of_int es.E.Emulator.es_blocks;
              Printf.sprintf "%.3f" es.E.Emulator.es_compile_ms;
              string_of_int es.E.Emulator.es_dispatches;
              string_of_int es.E.Emulator.es_fallback_steps;
            ])
          rows));
  (* instr/s, rounded: the digits below one instruction are noise *)
  let ips_row name metric r t =
    row ~unit:"instr/s" ~better:Wario.Stats.Higher name metric
      (Float.round (ips r.er_instrs t))
  in
  write_rows ~bench:"emu" "BENCH_7.json"
    (List.concat_map
       (fun (name, c, im, _) ->
         List.concat_map
           (fun (prefix, r) ->
             [
               ips_row name (prefix ^ "reference_instr_per_s") r r.er_ref_s;
               ips_row name (prefix ^ "block_instr_per_s") r r.er_blk_s;
             ])
           [ ("", c); ("intermittent.", im) ])
       rows)

(* ------------------------------------------------------------------ *)
(* Place6: interprocedural placement (BENCH_6.json)                      *)
(* ------------------------------------------------------------------ *)

(* Every placement variant — greedy, the intraprocedural cost-guided
   pair (static-weighted, profile-guided) and the interprocedural policy
   (call-graph weights, measured-trial expansion, boundary elision,
   certifier-validated motion) — on every program, and hard gates: every
   variant certified, none executing more checkpoints than greedy on a
   micro, every motion move applied iff certified, and inter strictly
   beating the other three on crc, sha and dijkstra.  Those three
   benchmarks ride along even under --small — they are the point of the
   artefact. *)

let place6 () =
  print_endline
    "\n=== Placement: greedy vs cost-guided vs interprocedural \
     (BENCH_6.json) ===\n";
  let micros =
    List.map
      (fun (m : Wario_workloads.Micro.t) ->
        (m.Wario_workloads.Micro.name, m.Wario_workloads.Micro.source, false))
      Wario_workloads.Micro.all
  in
  let gate_names = [ "crc"; "sha"; "dijkstra" ] in
  let benches =
    List.map (fun (b : W.benchmark) -> (b.W.name, b.W.source, true)) benchmarks
  in
  let progs =
    micros
    @ List.filter
        (fun (n, _, _) -> (not !opt_small) || List.mem n gate_names)
        benches
  in
  let opts = { P.default_options with P.elide = true; motion = true } in
  let variants =
    [ Wario.Pgo.Greedy; Wario.Pgo.Static; Wario.Pgo.Profile; Wario.Pgo.Inter ]
  in
  let rows =
    X.map ~jobs:(resolved_jobs ()) ~spans:!spans ~label:"bench.place6.map"
      (fun (name, src, is_bench) ->
        let cs = Wario.Pgo.compile_candidates ~opts P.Wario src in
        let images =
          List.map (fun v -> (v, Wario.Pgo.compiled_of cs v)) variants
        in
        let rec measure_im period =
          try
            ( period,
              List.map
                (fun (_, c) ->
                  E.Emulator.run
                    ~supply:(E.Power.Periodic period)
                    ~verify:false c.P.image)
                images )
          with E.Emulator.No_forward_progress _ -> measure_im (10 * period)
        in
        let period, ims = measure_im (if is_bench then 100_000 else 5_000) in
        let placed =
          List.map2
            (fun (v, c) im ->
              let cont = E.Emulator.run ~verify:false c.P.image in
              ( v,
                c,
                (match P.certify c with
                | Wario_certify.Certify.Certified _ -> true
                | Wario_certify.Certify.Rejected _ -> false),
                cont,
                im ))
            images ims
        in
        (name, is_bench, period, cs.Wario.Pgo.pilot, placed))
      progs
  in
  let find v placed =
    let (_, c, cert, cont, im) =
      List.find (fun (v', _, _, _, _) -> v' = v) placed
    in
    (c, cert, cont, im)
  in
  let dyn_of v placed =
    let (_, _, cont, _) = find v placed in
    cont.E.Emulator.checkpoints_total
  in
  let table_rows =
    List.map
      (fun (name, _, _, pilot, placed) ->
        let (ic, _, _, _) = find Wario.Pgo.Inter placed in
        let moved =
          match ic.P.motion with
          | Some m -> m.Wario.Motion.applied
          | None -> 0
        in
        let brackets =
          match ic.P.elision with
          | Some e -> e.Wario.Elide.boundary_elided
          | None -> 0
        in
        let inlined =
          match ic.P.middle.P.expander with
          | Some s -> s.Wario_transforms.Expander.inlined
          | None -> 0
        in
        [
          name;
          string_of_int (dyn_of Wario.Pgo.Greedy placed);
          string_of_int (dyn_of Wario.Pgo.Static placed);
          string_of_int (dyn_of Wario.Pgo.Profile placed);
          string_of_int (dyn_of Wario.Pgo.Inter placed);
          string_of_int inlined;
          string_of_int brackets;
          string_of_int moved;
          Wario.Pgo.variant_name pilot.Wario.Pgo.selected;
        ])
      rows
  in
  print_string
    (Report.table
       [
         "program"; "greedy"; "static"; "pgo"; "inter"; "inlined";
         "brackets"; "moved"; "selected";
       ]
       table_rows);
  (* hard gates *)
  List.iter
    (fun (name, _, _, _, placed) ->
      List.iter
        (fun (v, _, cert, _, _) ->
          if not cert then
            failwith
              (Printf.sprintf "place6: %s [%s] rejected by the certifier"
                 name
                 (Wario.Pgo.variant_name v)))
        placed)
    rows;
  List.iter
    (fun (name, is_bench, _, _, placed) ->
      if not is_bench then begin
        let g = dyn_of Wario.Pgo.Greedy placed in
        List.iter
          (fun (v, _, _, cont, _) ->
            if cont.E.Emulator.checkpoints_total > g then
              failwith
                (Printf.sprintf
                   "place6: %s [%s] executes more checkpoints than greedy \
                    (%d > %d)"
                   name
                   (Wario.Pgo.variant_name v)
                   cont.E.Emulator.checkpoints_total g))
          placed
      end)
    rows;
  (* every motion decision must carry the certifier's verdict, applied
     iff certified *)
  List.iter
    (fun (name, _, _, _, placed) ->
      let (ic, _, _, _) = find Wario.Pgo.Inter placed in
      match ic.P.motion with
      | None -> failwith (Printf.sprintf "place6: %s ran without motion" name)
      | Some m ->
          List.iter
            (fun (mv : Wario.Motion.move) ->
              if String.length mv.Wario.Motion.mv_verdict = 0 then
                failwith
                  (Printf.sprintf "place6: %s has a move without a verdict"
                     name);
              if
                mv.Wario.Motion.mv_applied
                <> (mv.Wario.Motion.mv_verdict = "certified")
              then
                failwith
                  (Printf.sprintf
                     "place6: %s applied a move the certifier rejected" name))
            m.Wario.Motion.moves)
    rows;
  (* gate benchmarks: inter strictly beats every other variant *)
  let gate name =
    match
      List.find_opt (fun (n, _, _, _, _) -> n = name) rows
    with
    | None -> (false, false)
    | Some (_, _, _, pilot, placed) ->
        let i = dyn_of Wario.Pgo.Inter placed in
        let others =
          List.map
            (fun v -> dyn_of v placed)
            [ Wario.Pgo.Greedy; Wario.Pgo.Static; Wario.Pgo.Profile ]
        in
        let (_, _, _, i_im) = find Wario.Pgo.Inter placed in
        let (_, _, _, g_im) = find Wario.Pgo.Greedy placed in
        ( List.for_all (fun d -> i < d) others
          && i_im.E.Emulator.cycles <= g_im.E.Emulator.cycles,
          pilot.Wario.Pgo.selected = Wario.Pgo.Inter )
  in
  let crc_improved, crc_no_rescue = gate "crc" in
  let sha_improved, _ = gate "sha" in
  let dijkstra_improved, _ = gate "dijkstra" in
  List.iter
    (fun (flag, msg) -> if not flag then failwith ("place6: " ^ msg))
    [
      (crc_improved, "crc: inter does not strictly beat every variant");
      ( crc_no_rescue,
        "crc: the measured guard had to rescue the interprocedural binary" );
      (sha_improved, "sha: inter does not strictly beat every variant");
      ( dijkstra_improved,
        "dijkstra: inter does not strictly beat every variant" );
    ];
  Printf.printf
    "\ngates: crc improved=%b (no rescue=%b), sha improved=%b, dijkstra \
     improved=%b\n"
    crc_improved crc_no_rescue sha_improved dijkstra_improved;
  (* motion decisions go to the text table: the JSON holds only rows *)
  let moves =
    List.concat_map
      (fun (name, _, _, _, placed) ->
        List.concat_map
          (fun (v, c, _, _, _) ->
            match c.P.motion with
            | None -> []
            | Some m ->
                List.map
                  (fun (mv : Wario.Motion.move) ->
                    [
                      name;
                      Wario.Pgo.variant_name v;
                      mv.Wario.Motion.mv_func;
                      (match mv.Wario.Motion.mv_kind with
                      | Wario.Motion.Hoist -> "hoist"
                      | Wario.Motion.Sink -> "sink");
                      mv.Wario.Motion.mv_from;
                      mv.Wario.Motion.mv_to;
                      mv.Wario.Motion.mv_verdict;
                    ])
                  m.Wario.Motion.moves)
          placed)
      rows
  in
  print_newline ();
  print_string
    (Report.table ~title:"motion moves (applied iff certified)"
       [ "program"; "variant"; "function"; "kind"; "from"; "to"; "verdict" ]
       moves);
  let count name metric n = row name metric (float_of_int n) in
  (* per variant, continuous and intermittent; the selected variant's
     continuous numbers again under the bare metric names the budgets
     gate *)
  let prog_rows (name, _, _, pilot, placed) =
    let (_, _, sel, _) = find pilot.Wario.Pgo.selected placed in
    List.concat_map
      (fun (v, _, _, cont, im) ->
        let vn = Wario.Pgo.variant_name v in
        [
          count name (vn ^ ".dyn_ckpts") cont.E.Emulator.checkpoints_total;
          count name (vn ^ ".cycles") cont.E.Emulator.cycles;
          count name (vn ^ ".intermittent.dyn_ckpts")
            im.E.Emulator.checkpoints_total;
          count name (vn ^ ".intermittent.cycles") im.E.Emulator.cycles;
        ])
      placed
    @ [
        count name "dyn_ckpts" sel.E.Emulator.checkpoints_total;
        count name "cycles" sel.E.Emulator.cycles;
      ]
  in
  write_rows ~bench:"place6" "BENCH_6.json" (List.concat_map prog_rows rows)

(* ------------------------------------------------------------------ *)
(* Cache: content-addressed compile cache, cold vs warm (BENCH_8.json)   *)
(* ------------------------------------------------------------------ *)

(* The compile side of the place6 sweep — every program × the placement
   variant matrix — run twice against one on-disk cache: once cold
   (every stage misses and is stored) and once warm (every compile
   replays from the image stage).  Before any number is written, every
   (program, variant) is re-asserted in-process: the warm-cache compile
   must be byte-identical (Marshal) to a fresh uncached one.  The
   speedup is a hard gate here AND a budget in stats_budgets.json. *)

let cache_variants =
  let base = P.default_options in
  let cg = Wario_transforms.Checkpoint_inserter.Cost_guided in
  [
    ("greedy", { base with P.placement = Wario_transforms.Checkpoint_inserter.Greedy });
    ("cost-guided", { base with P.placement = cg });
    (* differs from cost-guided only in [elide]: warm-from-cold this is
       an image-stage recompile (re-link), the incremental path *)
    ("cost-guided+elide", { base with P.placement = cg; elide = true });
    ( "interprocedural",
      {
        base with
        P.placement = Wario_transforms.Checkpoint_inserter.Interprocedural;
        elide = true;
        motion = true;
      } );
  ]

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun n -> remove_tree (Filename.concat path n))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let cache_bench () =
  print_endline
    "\n=== Compile cache: cold vs warm placement-variant sweep \
     (BENCH_8.json) ===\n";
  let micros =
    List.map
      (fun (m : Wario_workloads.Micro.t) ->
        (m.Wario_workloads.Micro.name, m.Wario_workloads.Micro.source))
      Wario_workloads.Micro.all
  in
  let benches = List.map (fun (b : W.benchmark) -> (b.W.name, b.W.source)) benchmarks in
  let progs = if !opt_small then micros else micros @ benches in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wario-bench-cache-%d" (Unix.getpid ()))
  in
  remove_tree dir;
  let cache = Wario.Cache.create dir in
  let sweep label c =
    let t0 = Unix.gettimeofday () in
    let _ : string list =
      X.map ~jobs:(resolved_jobs ()) ~spans:!spans ~label
        (fun (name, src) ->
          List.iter
            (fun (_, opts) -> ignore (P.compile ~opts ~cache:c P.Wario src))
            cache_variants;
          name)
        progs
    in
    Unix.gettimeofday () -. t0
  in
  let cold_s = sweep "bench.cache.cold" cache in
  (* identity gate BEFORE timing the warm sweep or writing any number:
     for every (program, variant), a cached compile and a fresh
     uncached compile must agree byte-for-byte on the linked image *)
  let mismatches =
    X.map ~jobs:(resolved_jobs ()) ~spans:!spans ~label:"bench.cache.identity"
      (fun (name, src) ->
        List.filter_map
          (fun (vname, opts) ->
            let cached = P.compile ~opts ~cache P.Wario src in
            let fresh = P.compile ~opts ~cache:Wario.Cache.disabled P.Wario src in
            if
              Marshal.to_string cached.P.image []
              = Marshal.to_string fresh.P.image []
            then None
            else Some (name ^ "/" ^ vname))
          cache_variants)
      progs
    |> List.concat
  in
  if mismatches <> [] then
    failwith
      ("cache: warm compile not byte-identical to fresh for "
      ^ String.concat ", " mismatches);
  Printf.printf
    "identity: %d program(s) x %d variant(s), cached == fresh byte-for-byte\n"
    (List.length progs)
    (List.length cache_variants);
  let warm_s = sweep "bench.cache.warm" cache in
  let speedup = cold_s /. Float.max 1e-6 warm_s in
  let ctr = Wario.Cache.counters cache in
  print_string
    (Report.table
       [ "sweep"; "wall s"; "hits"; "misses"; "evictions" ]
       [
         [ "cold"; Printf.sprintf "%.3f" cold_s; "-"; "-"; "-" ];
         [
           "warm";
           Printf.sprintf "%.3f" warm_s;
           string_of_int ctr.Wario.Cache.hits;
           string_of_int ctr.Wario.Cache.misses;
           string_of_int ctr.Wario.Cache.evictions;
         ];
       ]);
  Printf.printf "\nwarm speedup: %.1fx (gate: >= 3x)\n" speedup;
  (* the acceptance gates, enforced in-process so a regression fails the
     artefact itself, not just the downstream stats gate *)
  if speedup < 3.0 then
    failwith
      (Printf.sprintf "cache: warm sweep only %.2fx faster than cold" speedup);
  if ctr.Wario.Cache.hits = 0 then
    failwith "cache: the warm sweep never hit the cache";
  if ctr.Wario.Cache.evictions <> 0 then
    failwith
      (Printf.sprintf "cache: the bench cache evicted %d entries"
         ctr.Wario.Cache.evictions);
  let sweep_row ?unit ?better = row ?unit ?better "cache-sweep"
  and count n = float_of_int n in
  write_rows ~bench:"cache" "BENCH_8.json"
    [
      sweep_row ~unit:"s" "cold_s" cold_s;
      sweep_row ~unit:"s" "warm_s" warm_s;
      sweep_row ~unit:"ratio" ~better:Wario.Stats.Higher "speedup" speedup;
      sweep_row ~better:Wario.Stats.Higher "hits" (count ctr.Wario.Cache.hits);
      sweep_row "misses" (count ctr.Wario.Cache.misses);
      sweep_row "evictions" (count ctr.Wario.Cache.evictions);
    ];
  remove_tree dir

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let artefacts =
  [
    ("fig4", fig4); ("fig5", fig5); ("tab1", tab1); ("tab2", tab2);
    ("fig6", fig6); ("fig7", fig7); ("tab3", tab3); ("tab4", tab4);
    ("ext", ext); ("profile", profile);
    ("emu", emu); ("place6", place6); ("cache", cache_bench);
  ]

(* Redirect stdout to [path] for the duration of [f] (artefact functions
   print; --out-dir captures that into per-artefact files). *)
let with_stdout_to path f =
  flush stdout;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let () =
  let rec parse out_dir names = function
    | [] -> (out_dir, List.rev names)
    | "--list" :: _ ->
        List.iter (fun (n, _) -> print_endline n) artefacts;
        exit 0
    | "--out-dir" :: dir :: rest -> parse (Some dir) names rest
    | [ "--out-dir" ] ->
        prerr_endline "bench: --out-dir requires a directory argument";
        exit 1
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 0 ->
            (* 0 = auto, same as the default *)
            opt_jobs := j;
            parse out_dir names rest
        | _ ->
            prerr_endline "bench: --jobs requires an integer >= 0 (0 = auto)";
            exit 1)
    | [ "--jobs" ] ->
        prerr_endline "bench: --jobs requires an integer >= 0 (0 = auto)";
        exit 1
    | "--small" :: rest ->
        opt_small := true;
        parse out_dir names rest
    | "--span-out" :: path :: rest ->
        opt_span_out := Some path;
        parse out_dir names rest
    | [ "--span-out" ] ->
        prerr_endline "bench: --span-out requires a file argument";
        exit 1
    | "--span-jsonl" :: path :: rest ->
        opt_span_jsonl := Some path;
        parse out_dir names rest
    | [ "--span-jsonl" ] ->
        prerr_endline "bench: --span-jsonl requires a file argument";
        exit 1
    | "--artefact" :: name :: rest -> parse out_dir (name :: names) rest
    | [ "--artefact" ] ->
        prerr_endline "bench: --artefact requires an artefact name";
        exit 1
    | name :: rest -> parse out_dir (name :: names) rest
  in
  let out_dir, requested = parse None [] (List.tl (Array.to_list Sys.argv)) in
  opt_out_dir := out_dir;
  let requested =
    match requested with [] -> List.map fst artefacts | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name artefacts) then begin
        Printf.eprintf "unknown artefact %s (have: %s)\n" name
          (String.concat " " (List.map fst artefacts));
        exit 1
      end)
    requested;
  (match out_dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  if !opt_span_out <> None || !opt_span_jsonl <> None then
    spans := O.Span.create ();
  let t0 = Unix.gettimeofday () in
  (* warm the compile+run cache for the unroll-8 grid on all domains:
     every artefact after this hits the cache instead of recompiling *)
  O.Span.with_span !spans "bench.prefill_grid" (fun () ->
      prefill ~jobs:(resolved_jobs ())
        (List.concat_map
           (fun b ->
             List.map (fun env -> (b, env)) (P.Plain :: instrumented_envs))
           benchmarks));
  List.iter
    (fun name ->
      let f = List.assoc name artefacts in
      let f () = O.Span.with_span !spans ("bench." ^ name) f in
      match out_dir with
      | None -> f ()
      | Some d ->
          let path = Filename.concat d (name ^ ".txt") in
          Printf.eprintf "[bench] %s -> %s\n%!" name path;
          with_stdout_to path f)
    requested;
  (* span artefacts: self-check attribution before anything is written —
     a trace whose children overflow their parents must fail the run *)
  (if O.Span.is_enabled !spans then begin
     let roots = O.Span.roots !spans in
     (match O.Span.check roots with
     | Ok () -> ()
     | Error e ->
         Printf.eprintf "bench: span self-check failed: %s\n" e;
         exit 1);
     let write path body =
       let oc = open_out_bin path in
       output_string oc body;
       close_out oc;
       Printf.printf "wrote %s\n" path
     in
     Option.iter
       (fun p -> write p (O.Span.to_chrome_json ~process_name:"bench" roots))
       !opt_span_out;
     Option.iter (fun p -> write p (O.Span.to_jsonl roots)) !opt_span_jsonl
   end);
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)

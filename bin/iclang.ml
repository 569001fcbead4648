(* iclang: the WARio compilation driver (paper §4.6).

   Replaces `clang` for intermittently-powered targets: compiles MiniC
   sources through a selected software environment and can run the result on
   the emulator under a chosen power supply.

     iclang compile prog.mc -e wario --dump-asm
     iclang run prog.mc -e ratchet --power 50000 --stats
     iclang run --benchmark sha -e wario-expander --trace rf
     iclang trace -e wario -b crc --out t.json --metrics m.jsonl --profile
     iclang pgo -b dijkstra -e wario --stats
     iclang list-benchmarks
     iclang verify                          # fault-injection sweep
     iclang verify --repro '(repro (workload rmw_loop) (env wario) ...)'
     iclang dump-ir prog.mc -e wario *)

module P = Wario.Pipeline
module R = Wario.Run
module E = Wario_emulator
module W = Wario_workloads.Programs
module V = Wario_verify
module O = Wario_obs
module X = Wario_exec.Exec
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_source file benchmark =
  match (file, benchmark) with
  | Some f, None -> Ok (read_file f)
  | None, Some b -> (
      match List.find_opt (fun (x : W.benchmark) -> x.name = b) W.all with
      | Some x -> Ok x.source
      | None ->
          Error
            (Printf.sprintf "unknown benchmark %s (see list-benchmarks)" b))
  | _ -> Error "provide exactly one of FILE or --benchmark"

(* --- common options --- *)

let env_conv =
  let parse s =
    match P.environment_of_name s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown environment %s (choose from: %s)" s
               (String.concat ", "
                  (List.map P.environment_name P.all_environments))))
  in
  Arg.conv (parse, fun fmt e -> Format.pp_print_string fmt (P.environment_name e))

let env_arg =
  Arg.(
    value
    & opt env_conv P.Wario
    & info [ "e"; "environment" ] ~docv:"ENV"
        ~doc:"Software environment (plain-c, ratchet, r-pdg, ..., wario).")

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file.")

let benchmark_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "benchmark"; "b" ] ~docv:"NAME" ~doc:"Use a built-in benchmark.")

let unroll_arg =
  Arg.(
    value & opt int 8
    & info [ "unroll"; "N" ] ~docv:"N"
        ~doc:"Loop Write Clusterer unroll factor (paper default 8).")

let max_region_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-region" ] ~docv:"CYCLES"
        ~doc:
          "Bound idempotent regions to roughly CYCLES estimated cycles            (location-specific checkpoints, an extension of the paper's §6).")

let profile_guided_arg =
  Arg.(
    value & flag
    & info [ "profile-guided" ]
        ~doc:
          "Run once to collect a call-count profile, then recompile with the            profile-guided Expander (only meaningful with -e wario-expander).")

let no_opt_arg =
  Arg.(
    value & flag
    & info [ "O0"; "no-opt" ]
        ~doc:
          "Skip the generic -O3 substitute (mem2reg/inlining/folding) before            the WARio transformations.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel work (default and 0: auto — the            host's recommended domain count, which on a single-core host is            the sequential path; 1 = sequential).  Results and output            ordering are identical for every N.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Content-addressed compile cache (created if missing; bounded,            LRU-evicted).  Defaults to $(b,WARIO_CACHE_DIR) when that is set;            without either the compile is uncached.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ignore --cache-dir and WARIO_CACHE_DIR: always recompile.")

let cache_of ~cache_dir ~no_cache =
  if no_cache then Wario.Cache.disabled
  else
    match cache_dir with
    | Some dir -> Wario.Cache.create dir
    | None -> Wario.Cache.from_env ()

(* default and 0 = auto (host-sized); anything below 0 is a usage error *)
let resolve_jobs = function
  | None | Some 0 -> Ok (X.default_jobs ())
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "--jobs must be >= 0 (got %d; 0 = auto)" n)

let engine_arg =
  let engines =
    [
      ("auto", E.Emulator.Auto);
      ("reference", E.Emulator.Reference);
      ("uop", E.Emulator.Uop);
      ("block", E.Emulator.Block);
    ]
  in
  Arg.(
    value
    & opt (enum engines) E.Emulator.Auto
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Emulator engine: $(b,auto) (default — the block translator when            the run is eligible, the instrumented reference interpreter            otherwise), $(b,reference), $(b,uop) (the predecoded micro-op            loop), or $(b,block) (basic blocks fused into closures).  Every            engine produces byte-identical results; the selection only            changes throughput.")

let opts_of ?max_region ?profile ~no_opt unroll =
  {
    P.default_options with
    unroll_factor = unroll;
    max_region;
    expander_profile = profile;
    optimize = not no_opt;
  }

let placement_conv =
  Arg.enum [ ("greedy", `Greedy); ("cost", `Cost); ("inter", `Inter) ]

let placement_arg =
  Arg.(
    value
    & opt placement_conv `Cost
    & info [ "placement" ] ~docv:"POLICY"
        ~doc:
          "Checkpoint placement policy: greedy (unweighted baseline), cost            (static cost model, the default) or inter (interprocedural            call-graph weights with cost-coupled expansion and            certifier-validated elision and motion).")

let apply_placement pl (opts : P.options) =
  let module T = Wario_transforms.Checkpoint_inserter in
  match pl with
  | `Greedy -> { opts with P.placement = T.Greedy }
  | `Cost -> opts
  | `Inter ->
      {
        opts with
        P.placement = T.Interprocedural;
        elide = true;
        motion = true;
      }

let supply_of power trace =
  match (power, trace) with
  | Some p, _ -> Ok (E.Power.Periodic p)
  | None, Some "rf" -> Ok (E.Power.Trace (E.Traces.rf_trace ()))
  | None, Some "solar" -> Ok (E.Power.Trace (E.Traces.solar_trace ()))
  | None, Some t -> Error ("unknown trace " ^ t ^ " (rf|solar)")
  | None, None -> Ok E.Power.Continuous

(* --- span output (--span-out / --span-jsonl) --- *)

let span_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "span-out" ] ~docv:"FILE"
        ~doc:
          "Write the hierarchical span trace of this invocation (pipeline            stages, certifier rechecks, PGO auditions, campaign phases,            worker utilization) as Chrome trace-event JSON to FILE (load in            Perfetto or chrome://tracing).")

let span_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "span-jsonl" ] ~docv:"FILE"
        ~doc:
          "Write the same spans as JSONL (one span per line) to FILE — the            input format of $(b,iclang stats --spans).")

(* A live recorder exactly when some span output was requested; everywhere
   else the disabled recorder keeps the instrumentation free. *)
let span_recorder span_out span_jsonl =
  if span_out <> None || span_jsonl <> None then O.Span.create ()
  else O.Span.disabled

let write_span_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Self-check before writing: a trace whose children overflow their
   parents is an attribution bug, and shipping it would poison every
   downstream trend report. *)
let flush_spans ~process_name spans span_out span_jsonl =
  if O.Span.is_enabled spans then begin
    let roots = O.Span.roots spans in
    (match O.Span.check roots with
    | Ok () -> ()
    | Error e -> failwith ("span self-check failed: " ^ e));
    Option.iter
      (fun p ->
        write_span_file p (O.Span.to_chrome_json ~process_name roots);
        Printf.printf "spans: wrote Chrome trace to %s\n" p)
      span_out;
    Option.iter
      (fun p ->
        write_span_file p (O.Span.to_jsonl roots);
        Printf.printf "spans: wrote JSONL to %s\n" p)
      span_jsonl
  end

(* --- --explain: per-checkpoint placement rationale --- *)

let write_text path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One JSON object per compile: where every middle-end checkpoint went and
   why (solver weight, interprocedural frequency, WAR sets covered), plus
   what the certifier-validated elision/motion passes did about it. *)
let explain_json (c : P.compiled) : string =
  let module T = Wario_transforms.Checkpoint_inserter in
  let module M = Wario.Motion in
  let b = Buffer.create 4096 in
  let freqs = c.P.middle.P.func_freqs in
  let freq f =
    match List.assoc_opt f freqs with Some x -> x | None -> 1.0
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"environment\": \"%s\",\n"
       (json_escape (P.environment_name c.P.env)));
  Buffer.add_string b "  \"function_frequencies\": {";
  let nf = List.length freqs in
  List.iteri
    (fun i (f, x) ->
      Buffer.add_string b
        (Printf.sprintf "%s\"%s\": %.6g%s"
           (if i = 0 then "" else " ")
           (json_escape f) x
           (if i = nf - 1 then "" else ",")))
    freqs;
  Buffer.add_string b "},\n";
  Buffer.add_string b "  \"checkpoints\": [\n";
  let ps = c.P.middle.P.placements in
  let np = List.length ps in
  List.iteri
    (fun i (p : T.placement_info) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"function\": \"%s\", \"block\": \"%s\", \"index\": %d, \
            \"weight\": %.6g, \"function_frequency\": %.6g, \
            \"wars_covered\": %d}%s\n"
           (json_escape p.T.pi_func) (json_escape p.T.pi_block) p.T.pi_index
           p.T.pi_weight (freq p.T.pi_func) p.T.pi_wars
           (if i = np - 1 then "" else ",")))
    ps;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"elided\": %d,\n"
       (match c.P.elision with
       | Some s -> s.Wario.Elide.elided
       | None -> 0));
  Buffer.add_string b
    (Printf.sprintf "  \"boundary_elided\": %d,\n"
       (match c.P.elision with
       | Some s -> s.Wario.Elide.boundary_elided
       | None -> 0));
  (match c.P.motion with
  | None -> Buffer.add_string b "  \"motion\": null\n"
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf
           "  \"motion\": {\"proposed\": %d, \"applied\": %d, \"hoisted\": \
            %d, \"sunk\": %d, \"rejected\": %d, \"moves\": [\n"
           s.M.proposed s.M.applied s.M.hoisted s.M.sunk s.M.rejected);
      let nm = List.length s.M.moves in
      List.iteri
        (fun i (m : M.move) ->
          Buffer.add_string b
            (Printf.sprintf
               "    {\"function\": \"%s\", \"kind\": \"%s\", \"cause\": \
                \"%s\", \"from\": \"%s\", \"to\": \"%s\", \"weight_from\": \
                %.6g, \"weight_to\": %.6g, \"applied\": %b, \"verdict\": \
                \"%s\"}%s\n"
               (json_escape m.M.mv_func)
               (match m.M.mv_kind with M.Hoist -> "hoist" | M.Sink -> "sink")
               (match m.M.mv_cause with
               | Wario_machine.Isa.Middle_end_war -> "middle-end-war"
               | Wario_machine.Isa.Back_end_war -> "back-end-war"
               | Wario_machine.Isa.Function_entry -> "entry"
               | Wario_machine.Isa.Function_exit -> "exit")
               (json_escape m.M.mv_from) (json_escape m.M.mv_to) m.M.mv_w_from
               m.M.mv_w_to m.M.mv_applied
               (json_escape m.M.mv_verdict)
               (if i = nm - 1 then "" else ",")))
        s.M.moves;
      Buffer.add_string b "  ]}\n");
  Buffer.add_string b "}\n";
  Buffer.contents b

let explain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"FILE"
        ~doc:
          "Write the per-checkpoint placement rationale as JSON to FILE:            solver weight, interprocedural function frequency and WAR sets            covered for every middle-end checkpoint, plus every            elision/motion decision with its certifier verdict.")

(* --- compile --- *)

let do_compile file benchmark env unroll max_region no_opt placement explain
    dump_ir dump_asm cache_dir no_cache =
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok src -> (
      try
        let opts =
          apply_placement placement (opts_of ?max_region ~no_opt unroll)
        in
        let cache = cache_of ~cache_dir ~no_cache in
        let c = P.compile ~opts ~cache env src in
        if dump_ir then
          print_string (Wario_ir.Ir_printer.program_to_string c.P.ir);
        if dump_asm then
          List.iter
            (fun f ->
              Format.printf "%a@." Wario_machine.Isa.pp_mfunc f)
            c.P.mprog.Wario_machine.Isa.mfuncs;
        Printf.printf
          "compiled [%s]: %d bytes of text, %d data, %d middle-end WARs, %d \
           middle-end checkpoints, %d spill WARs, %d spill checkpoints\n"
          (P.environment_name env) c.P.text_bytes
          c.P.image.E.Image.data_bytes c.P.middle.P.wars_found
          c.P.middle.P.middle_ckpts c.P.backend.spill_wars
          c.P.backend.spill_ckpts;
        (match c.P.elision with
        | None -> ()
        | Some e when e.Wario.Elide.boundary_tried > 0 ->
            Printf.printf
              "elision: %d coalesced, %d of %d entry/exit brackets removed \
               (certifier-validated)\n"
              e.Wario.Elide.elided e.Wario.Elide.boundary_elided
              e.Wario.Elide.boundary_tried
        | Some _ -> ());
        (match c.P.motion with
        | None -> ()
        | Some m ->
            Printf.printf
              "motion: %d proposed, %d applied (%d hoisted, %d sunk), %d \
               rejected by the certifier\n"
              m.Wario.Motion.proposed m.Wario.Motion.applied
              m.Wario.Motion.hoisted m.Wario.Motion.sunk
              m.Wario.Motion.rejected);
        (match explain with
        | None -> ()
        | Some path ->
            write_text path (explain_json c);
            Printf.printf "placement rationale written to %s\n" path);
        `Ok ()
      with
      | Wario_minic.Minic.Error e -> `Error (false, e)
      | Wario_backend.Isel.Isel_error e -> `Error (false, e))

let compile_cmd =
  let dump_ir =
    Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the final WIR.")
  in
  let dump_asm =
    Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the TM2 assembly.")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile MiniC through a software environment")
    Term.(
      ret
        (const do_compile $ file_arg $ benchmark_arg $ env_arg $ unroll_arg
       $ max_region_arg $ no_opt_arg $ placement_arg $ explain_arg $ dump_ir
       $ dump_asm $ cache_dir_arg $ no_cache_arg))

(* --- run --- *)

let do_run file benchmark env unroll max_region no_opt profile_guided power
    trace irq stats no_verify engine =
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok src -> (
      try
        let c = P.compile ~opts:(opts_of ?max_region ~no_opt unroll) env src in
        let c =
          if not profile_guided then c
          else begin
            (* pilot run: collect the call-count profile, then recompile *)
            let pilot = E.Emulator.run ~verify:false ~engine c.P.image in
            P.compile
              ~opts:
                (opts_of ?max_region ~no_opt
                   ~profile:pilot.E.Emulator.call_counts unroll)
              env src
          end
        in
        let supply =
          match supply_of power trace with
          | Ok s -> s
          | Error e -> failwith e
        in
        let r =
          E.Emulator.run ~supply ~irq_period:irq ~verify:(not no_verify)
            ~engine c.P.image
        in
        List.iter (fun v -> Printf.printf "%ld\n" v) r.E.Emulator.output;
        Printf.printf "exit=%ld\n" r.E.Emulator.exit_code;
        if stats then begin
          let ck = r.E.Emulator.checkpoints in
          Printf.printf
            "cycles=%d instrs=%d checkpoints=%d (entry=%d exit=%d \
             middle-end=%d back-end=%d) power-failures=%d boots=%d irqs=%d\n"
            r.E.Emulator.cycles r.E.Emulator.instrs
            r.E.Emulator.checkpoints_total ck.c_entry ck.c_exit ck.c_middle
            ck.c_backend r.E.Emulator.power_failures r.E.Emulator.boots
            r.E.Emulator.irqs_taken;
          match r.E.Emulator.region_sizes with
          | [] -> ()
          | rs ->
              Printf.printf
                "idempotent regions: n=%d median=%d mean=%.0f max=%d cycles\n"
                (List.length rs)
                (Wario_support.Util.percentile 50. rs)
                (Wario_support.Util.mean rs)
                (List.fold_left max 0 rs)
        end;
        (match r.E.Emulator.violations with
        | [] -> `Ok ()
        | v ->
            Printf.printf "*** %d WAR violations detected!\n" (List.length v);
            `Error (false, "WAR violations detected"))
      with
      | Wario_minic.Minic.Error e -> `Error (false, e)
      | E.Emulator.No_forward_progress supply ->
          `Error
            (false, "no forward progress under power supply " ^ supply))

let run_cmd =
  let power =
    Arg.(
      value
      & opt (some int) None
      & info [ "power" ] ~docv:"CYCLES" ~doc:"Intermittent power: fixed on-period.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"NAME" ~doc:"Harvester trace: rf or solar.")
  in
  let irq =
    Arg.(
      value & opt int 0
      & info [ "irq" ] ~docv:"CYCLES" ~doc:"Fire an interrupt every N cycles.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print run statistics.") in
  let no_verify =
    Arg.(value & flag & info [ "no-verify" ] ~doc:"Disable the WAR verifier.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and run on the emulator")
    Term.(
      ret
        (const do_run $ file_arg $ benchmark_arg $ env_arg $ unroll_arg
       $ max_region_arg $ no_opt_arg $ profile_guided_arg $ power $ trace
       $ irq $ stats $ no_verify $ engine_arg))

(* --- trace --- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let do_trace file benchmark env unroll max_region no_opt power trace irq out
    metrics_out folded_out show_profile ring_cap jobs span_out span_jsonl
    engine =
  match resolve_jobs jobs with
  | Error e -> `Error (true, e)
  | Ok jobs -> (
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok src -> (
      try
        (* --metrics is a projection of the span tree, so it needs a live
           recorder too *)
        let spans =
          if metrics_out <> None then O.Span.create ()
          else span_recorder span_out span_jsonl
        in
        let c =
          P.compile ~opts:(opts_of ?max_region ~no_opt unroll) ~spans env src
        in
        let supply =
          match supply_of power trace with Ok s -> s | Error e -> failwith e
        in
        let sink = O.Trace.ring ~capacity:ring_cap () in
        let r =
          O.Span.with_span spans "emulator.run" (fun () ->
              let r =
                E.Emulator.run ~supply ~irq_period:irq ~tracer:sink ~engine
                  c.P.image
              in
              let w = r.E.Emulator.waste in
              List.iter
                (fun (name, by) -> O.Span.add_counter ~by spans name)
                [
                  ("cycles", r.E.Emulator.cycles);
                  ("dyn_ckpts", r.E.Emulator.checkpoints_total);
                  ("instrs", r.E.Emulator.instrs);
                  ("power_failures", r.E.Emulator.power_failures);
                  ("boots", r.E.Emulator.boots);
                  ("irqs_taken", r.E.Emulator.irqs_taken);
                  ("useful_cycles", w.E.Emulator.w_useful);
                  ("boot_cycles", w.E.Emulator.w_boot);
                  ("restore_cycles", w.E.Emulator.w_restore);
                  ("reexec_cycles", w.E.Emulator.w_reexec);
                  ("trace_events", O.Trace.length sink);
                  ("trace_dropped", O.Trace.dropped sink);
                ];
              r)
        in
        let w = r.E.Emulator.waste in
        (* projected before trace.render opens, so the file cannot depend
           on its own rendering *)
        let metrics = O.Span.to_metrics_jsonl (O.Span.roots spans) in
        let evs = O.Trace.events sink in
        let name =
          match (benchmark, file) with
          | Some b, _ -> b
          | None, Some f -> Filename.basename f
          | None, None -> "?"
        in
        let prof = O.Profile.of_events evs in
        (* render the requested artefacts on parallel domains — each is a
           pure function of the already-collected run data — then write and
           report from here, in input order, so output never interleaves *)
        let requested =
          List.filter_map Fun.id
            [
              Option.map (fun p -> (`Chrome, p)) out;
              Option.map (fun p -> (`Metrics, p)) metrics_out;
              Option.map (fun p -> (`Folded, p)) folded_out;
            ]
        in
        let rendered =
          X.map ~jobs ~spans ~label:"trace.render"
            (fun (kind, path) ->
              let body =
                match kind with
                | `Chrome ->
                    O.Trace.to_chrome_json
                      ~process_name:
                        (name ^ " [" ^ P.environment_name env ^ "]")
                      evs
                | `Metrics -> metrics
                | `Folded -> O.Profile.folded prof
              in
              (kind, path, body))
            requested
        in
        List.iter
          (fun (kind, path, body) ->
            write_file path body;
            match kind with
            | `Chrome ->
                Printf.printf "trace: wrote %d events to %s%s\n"
                  (O.Trace.length sink) path
                  (match O.Trace.dropped sink with
                  | 0 -> ""
                  | n -> Printf.sprintf " (%d dropped by the ring)" n)
            | `Metrics ->
                Printf.printf "metrics: wrote %d entries to %s\n"
                  (List.length (String.split_on_char '\n' body) - 1)
                  path
            | `Folded -> Printf.printf "folded stacks: %s\n" path)
          rendered;
        if show_profile then begin
          print_newline ();
          print_string (Wario.Report.waste_table w);
          print_newline ();
          print_string (Wario.Report.profile_table prof);
          print_newline ();
          print_string (Wario.Report.regions_table ~top:10 prof);
          print_newline ()
        end;
        Printf.printf
          "run: %d cycles (%d useful, %d boot, %d restore, %d re-executed), \
           %d checkpoints, %d power failures\n"
          r.E.Emulator.cycles w.E.Emulator.w_useful w.E.Emulator.w_boot
          w.E.Emulator.w_restore w.E.Emulator.w_reexec
          r.E.Emulator.checkpoints_total r.E.Emulator.power_failures;
        (* self-check: trace contents must agree with the statistics
           (checkpoint commits and — with a complete trace — the
           per-function cycle attribution) *)
        let module Pr = O.Profile in
        if O.Trace.dropped sink = 0 then begin
          if prof.Pr.checkpoints <> r.E.Emulator.checkpoints_total then
            failwith
              (Printf.sprintf
                 "trace inconsistency: %d checkpoint events vs %d in stats"
                 prof.Pr.checkpoints r.E.Emulator.checkpoints_total);
          let attributed =
            List.fold_left
              (fun acc (row : Pr.fn_row) -> acc + row.Pr.fn_cycles)
              0 prof.Pr.rows
          in
          if attributed <> r.E.Emulator.cycles then
            failwith
              (Printf.sprintf
                 "trace inconsistency: %d attributed cycles vs %d total"
                 attributed r.E.Emulator.cycles)
        end;
        flush_spans
          ~process_name:("iclang trace " ^ name) spans span_out span_jsonl;
        `Ok ()
      with
      | Wario_minic.Minic.Error e -> `Error (false, e)
      | Failure e -> `Error (false, e)
      | E.Emulator.No_forward_progress supply ->
          `Error (false, "no forward progress under power supply " ^ supply)))

let trace_cmd =
  let power =
    Arg.(
      value
      & opt (some int) None
      & info [ "power" ] ~docv:"CYCLES" ~doc:"Intermittent power: fixed on-period.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"NAME" ~doc:"Harvester trace: rf or solar.")
  in
  let irq =
    Arg.(
      value & opt int 0
      & info [ "irq" ] ~docv:"CYCLES" ~doc:"Fire an interrupt every N cycles.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Write the Chrome trace-event JSON here (load in Perfetto or            chrome://tracing).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write compile and run metrics as JSONL here: the span tree            projected onto per-name totals ($(i,SPAN).ms summed over every            span of that name, $(i,SPAN).$(i,COUNTER) summed likewise).")
  in
  let folded_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:"Write flamegraph folded-stack lines here.")
  in
  let show_profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print the per-function and per-region profile tables and the            wasted-cycle decomposition.")
  in
  let ring_cap =
    Arg.(
      value & opt int 0
      & info [ "ring" ] ~docv:"N"
          ~doc:
            "Keep only the newest N events (0 = unbounded).  A capped ring            disables the profile's completeness self-checks.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Compile, run on the emulator with the execution tracer, and emit            Chrome trace JSON / metrics JSONL / profile tables")
    Term.(
      ret
        (const do_trace $ file_arg $ benchmark_arg $ env_arg $ unroll_arg
       $ max_region_arg $ no_opt_arg $ power $ trace $ irq $ out $ metrics_out
       $ folded_out $ show_profile $ ring_cap $ jobs_arg $ span_out_arg
       $ span_jsonl_arg $ engine_arg))

(* --- verify --- *)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* machine-readable coverage artifact for CI upload *)
let coverage_json (reports : V.Campaign.case_report list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"min_boundary_pct\": %.1f,\n"
       (V.Campaign.min_boundary_pct reports));
  Buffer.add_string b
    (Printf.sprintf "  \"total_failures\": %d,\n"
       (V.Campaign.total_failures reports));
  Buffer.add_string b "  \"cases\": [\n";
  let n = List.length reports in
  List.iteri
    (fun i (r : V.Campaign.case_report) ->
      let c = r.V.Campaign.k_coverage in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"env\": \"%s\", \"schedules\": %d, \
            \"probes\": %d, \"boundaries\": %d, \"boundaries_cut\": %d, \
            \"boundary_pct\": %.1f, \"regions\": %d, \"regions_cut\": %d, \
            \"boot_cut\": %b, \"worst_reexec\": %d, \"failures\": %d}%s\n"
           r.V.Campaign.k_workload
           (P.environment_name r.V.Campaign.k_env)
           r.V.Campaign.k_schedules r.V.Campaign.k_probes
           c.V.Campaign.cov_boundaries c.V.Campaign.cov_boundaries_cut
           (V.Campaign.boundary_pct c) c.V.Campaign.cov_regions
           c.V.Campaign.cov_regions_cut c.V.Campaign.cov_boot_cut
           r.V.Campaign.k_worst_reexec r.V.Campaign.k_failures_total
           (if i = n - 1 then "" else ",")))
    reports;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* replay a persisted regression corpus; the CI hard gate *)
let do_corpus dir =
  let entries, errs = V.Corpus.load_dir dir in
  Printf.printf "corpus %s: %d entr(ies)%s\n%!" dir (List.length entries)
    (match errs with
    | [] -> ""
    | es -> Printf.sprintf ", %d unreadable" (List.length es));
  List.iter
    (fun (path, e) -> Printf.printf "  FAIL %s — cannot parse: %s\n%!" path e)
    errs;
  let bad = ref (List.length errs) and stale_paths = ref [] in
  List.iter
    (fun (path, entry) ->
      let v = V.Corpus.replay entry in
      if v.V.Corpus.v_stale then stale_paths := path :: !stale_paths;
      if not v.V.Corpus.v_ok then incr bad;
      Printf.printf "  %s %s — %s\n%!"
        (if v.V.Corpus.v_ok then "ok  " else "FAIL")
        (Filename.basename path) v.V.Corpus.v_message)
    entries;
  (* stale entries still replay, but their fingerprint no longer matches
     what the compiler produces today — surface them loudly so they get
     re-recorded instead of silently rotting *)
  (match List.rev !stale_paths with
  | [] -> ()
  | ps ->
      Printf.printf
        "warning: %d stale entr(ies) — the recorded program fingerprint no \
         longer matches the current compiler output:\n%!"
        (List.length ps);
      List.iter
        (fun p -> Printf.printf "  STALE %s\n%!" (Filename.basename p))
        ps;
      Printf.printf
        "  re-record with `iclang verify --campaign --corpus-out %s` to \
         refresh the expectations\n%!"
        dir);
  Printf.printf "corpus replay: %d ok, %d failed, %d stale\n"
    (List.length entries + List.length errs - !bad)
    !bad
    (List.length !stale_paths);
  if !bad = 0 then `Ok ()
  else `Error (false, "corpus replay: expectations not upheld")

let do_campaign ~config_envs ~workloads ~schedules ~small ~min_coverage
    ~corpus_out ~coverage_out ~seed ~opts ~jobs ~engine ~spans =
  let budget =
    match schedules with
    | Some n -> n
    | None ->
        if small then V.Campaign.small_budget else V.Campaign.default_budget
  in
  let config =
    {
      V.Campaign.envs = config_envs;
      workloads;
      budget;
      seed;
      opts;
      jobs;
      max_shrunk_per_case = 5;
      engine;
    }
  in
  let log = X.serialized (fun s -> Printf.printf "  %s\n%!" s) in
  Printf.printf
    "campaign: %d environment(s) × %d workload(s), budget %d schedules per \
     case, seed %Ld, %d job(s)\n%!"
    (List.length config_envs) (List.length workloads) budget seed jobs;
  let reports = V.Campaign.run ~log ~spans config in
  print_string (Wario.Report.campaign_table (V.Campaign.report_rows reports));
  (match coverage_out with
  | None -> ()
  | Some path ->
      write_file path (coverage_json reports);
      Printf.printf "coverage report written to %s\n%!" path);
  (match corpus_out with
  | None -> ()
  | Some dir ->
      let entries = V.Campaign.corpus_entries reports in
      let added =
        List.filter
          (fun e ->
            match V.Corpus.save ~dir e with
            | `Added _ -> true
            | `Exists _ -> false)
          entries
      in
      Printf.printf "corpus: %d new entr(ies) in %s (%d already present)\n%!"
        (List.length added) dir
        (List.length entries - List.length added));
  let minpct = V.Campaign.min_boundary_pct reports in
  let failures = V.Campaign.total_failures reports in
  Printf.printf
    "campaign: %d case(s), minimum commit-boundary coverage %.1f%% (gate \
     %d%%), %d consistency failure(s)\n"
    (List.length reports) minpct min_coverage failures;
  if failures > 0 then `Error (false, "crash-consistency violations detected")
  else if minpct < float_of_int min_coverage then
    `Error
      ( false,
        Printf.sprintf "coverage gate not met: %.1f%% < %d%%" minpct
          min_coverage )
  else `Ok ()

let do_verify envs workloads schedules seed exhaustive_limit unroll max_region
    drop_ckpt placement jobs repro campaign small min_coverage corpus_out
    coverage_out corpus span_out span_jsonl engine =
  match resolve_jobs jobs with
  | Error e -> `Error (true, e)
  | Ok jobs -> (
  let spans = span_recorder span_out span_jsonl in
  let finish name r =
    match r with
    | `Ok () ->
        (try
           flush_spans ~process_name:name spans span_out span_jsonl;
           `Ok ()
         with Failure e -> `Error (false, e))
    | err ->
        (* still flush on gate failures: the trace of a failing campaign is
           exactly the one worth keeping *)
        (try flush_spans ~process_name:name spans span_out span_jsonl
         with Failure e -> Printf.eprintf "%s\n" e);
        err
  in
  match repro with
  | Some line -> (
      match V.Repro.of_string line with
      | Error e -> `Error (false, "bad reproducer: " ^ e)
      | Ok r -> (
          Printf.printf "replaying %s\n%!" (V.Repro.to_string r);
          match V.Harness.replay r with
          | Ok () ->
              Printf.printf "reproducer no longer fails (fixed?)\n";
              `Ok ()
          | Error d -> `Error (false, "reproduced: " ^ d)))
  | None -> (
  match corpus with
  | Some dir -> do_corpus dir
  | None -> (
      let config_envs =
        match envs with
        | [] -> V.Harness.instrumented_environments
        | es -> es
      in
      let named_workloads =
        match workloads with
        | [] -> Ok V.Harness.default_config.V.Harness.workloads
        | ws ->
            List.fold_left
              (fun acc w ->
                match (acc, V.Repro.source_of_workload w) with
                | Error e, _ -> Error e
                | _, Error e -> Error e
                | Ok l, Ok src -> Ok (l @ [ (w, src) ]))
              (Ok []) ws
      in
      match named_workloads with
      | Error e -> `Error (false, e)
      | Ok workloads when campaign ->
          finish "iclang verify --campaign"
            (do_campaign ~config_envs ~workloads ~schedules ~small
               ~min_coverage ~corpus_out ~coverage_out ~seed
               ~opts:
                 (apply_placement placement
                    {
                      P.default_options with
                      unroll_factor = unroll;
                      max_region;
                      drop_middle_ckpt = drop_ckpt;
                    })
               ~jobs ~engine ~spans)
      | Ok workloads ->
          let schedules = Option.value schedules ~default:200 in
          let config =
            {
              V.Harness.envs = config_envs;
              workloads;
              schedules_per_case = schedules;
              exhaustive_limit;
              max_failures_per_case = 3;
              seed;
              opts =
                (apply_placement placement
                   {
                     P.default_options with
                     unroll_factor = unroll;
                     max_region;
                     drop_middle_ckpt = drop_ckpt;
                   });
              jobs;
              engine;
            }
          in
          (* progress lines may be emitted while worker domains are live:
             funnel them through one mutex so lines never interleave *)
          let log = X.serialized (fun s -> Printf.printf "  %s\n%!" s) in
          Printf.printf
            "static pre-check: certifying %d environment(s) × %d workload(s)\n%!"
            (List.length config_envs) (List.length workloads);
          let rejected = V.Harness.static_precheck ~log config in
          Printf.printf "static pre-check: %d rejection(s)\n%!"
            (List.length rejected);
          Printf.printf
            "fault-injection sweep: %d environment(s) × %d workload(s), ≥%d \
             schedules each, seed %Ld, %d job(s)\n%!"
            (List.length config_envs) (List.length workloads) schedules seed
            jobs;
          let reports =
            O.Span.with_span spans "verify.sweep" (fun () ->
                let reports = V.Harness.sweep ~log config in
                O.Span.add_counter spans "schedules"
                  ~by:
                    (List.fold_left
                       (fun acc r -> acc + r.V.Harness.c_schedules)
                       0 reports);
                reports)
          in
          let total =
            List.fold_left
              (fun acc r -> acc + r.V.Harness.c_schedules)
              0 reports
          in
          let failures = V.Harness.total_failures reports in
          Printf.printf
            "%d case(s), %d schedule(s) injected, %d consistency failure(s), \
             %d static rejection(s)\n"
            (List.length reports) total failures (List.length rejected);
          finish "iclang verify"
            (if failures = 0 && rejected = [] then `Ok ()
             else if failures = 0 then
               `Error (false, "static certifier rejected some builds")
             else `Error (false, "crash-consistency violations detected")))))

let verify_cmd =
  let envs =
    Arg.(
      value & opt_all env_conv []
      & info [ "e"; "environment" ] ~docv:"ENV"
          ~doc:
            "Environment(s) to verify (repeatable; default: every            instrumented environment).")
  in
  let workloads =
    Arg.(
      value & opt_all string []
      & info [ "workload"; "w" ] ~docv:"NAME"
          ~doc:
            "Workload(s) to verify: a micro program or benchmark name            (repeatable; default: all micro programs).")
  in
  let schedules =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "schedules" ] ~docv:"N"
          ~doc:
            "Injected failure schedules per (environment, workload) case            (default: 200 for the sweep; the campaign budget for            --campaign).")
  in
  let seed =
    Arg.(
      value & opt int64 1L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "PRNG seed (printed with every reproducer; the same seed            regenerates the same schedules).")
  in
  let exhaustive_limit =
    Arg.(
      value & opt int 600
      & info [ "exhaustive-limit" ] ~docv:"N"
          ~doc:
            "Also cut exhaustively at every checkpoint commit ±1 when that            set has at most N schedules.")
  in
  let drop_ckpt =
    Arg.(
      value
      & opt (some int) None
      & info [ "drop-ckpt" ] ~docv:"N"
          ~doc:
            "TEST-ONLY: sabotage the pipeline by deleting the N-th            middle-end checkpoint, to demonstrate that the harness catches            a broken schedule.")
  in
  let repro =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"SEXPR"
          ~doc:
            "Replay a shrunk counterexample emitted by a previous sweep,            e.g. '(repro (workload rmw_loop) (env wario) (unroll 8)            (cuts 413 879))'.")
  in
  let campaign =
    Arg.(
      value & flag
      & info [ "campaign" ]
          ~doc:
            "Run the fleet-scale adversarial campaign instead of the basic            sweep: exhaustive boundary cuts, boundary-bisecting adversary,            harvester-style supply models and seeded random fill, with            cut-coverage accounting per case.")
  in
  let small =
    Arg.(
      value & flag
      & info [ "small" ]
          ~doc:
            "With --campaign: use the smoke-test budget (2000 schedules per            case) instead of the fleet default (100000).")
  in
  let min_coverage =
    Arg.(
      value & opt int 95
      & info [ "min-coverage" ] ~docv:"PCT"
          ~doc:
            "With --campaign: fail unless every case reaches at least PCT%            commit-boundary cut coverage.")
  in
  let corpus_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-out" ] ~docv:"DIR"
          ~doc:
            "With --campaign: persist every shrunk counterexample into DIR            as a deduplicated regression-corpus entry.")
  in
  let coverage_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "coverage-out" ] ~docv:"FILE"
          ~doc:"With --campaign: write the coverage report as JSON to FILE.")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Replay every regression-corpus entry in DIR and check each            against its recorded expectation (the CI hard gate).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Adversarial fault injection: sweep power-cut schedules over            workloads × environments and check crash consistency")
    Term.(
      ret
        (const do_verify $ envs $ workloads $ schedules $ seed
       $ exhaustive_limit $ unroll_arg $ max_region_arg $ drop_ckpt
       $ placement_arg $ jobs_arg $ repro $ campaign $ small $ min_coverage
       $ corpus_out $ coverage_out $ corpus $ span_out_arg $ span_jsonl_arg
       $ engine_arg))

(* --- certify --- *)

let do_certify file benchmark envs unroll max_region no_opt drop_ckpt verbose
    jobs =
  match resolve_jobs jobs with
  | Error e -> `Error (true, e)
  | Ok jobs -> (
  let sources =
    match (file, benchmark) with
    | None, None ->
        (* default: every built-in benchmark *)
        Ok (List.map (fun (b : W.benchmark) -> (b.name, b.source)) W.all)
    | _ -> (
        match load_source file benchmark with
        | Error e -> Error e
        | Ok src ->
            let name =
              match (benchmark, file) with
              | Some b, _ -> b
              | None, Some f -> f
              | None, None -> assert false
            in
            Ok [ (name, src) ])
  in
  match sources with
  | Error e -> `Error (false, e)
  | Ok sources ->
      let envs =
        match envs with
        | [] -> V.Harness.instrumented_environments
        | es -> es
      in
      let opts =
        {
          (opts_of ?max_region ~no_opt unroll) with
          P.drop_middle_ckpt = drop_ckpt;
        }
      in
      let tasks =
        List.concat_map
          (fun (name, src) -> List.map (fun env -> (name, src, env)) envs)
          sources
      in
      (* each job compiles and certifies its own build (nothing shared);
         the rendered verdicts come back in input order and are printed
         from here, so output is byte-identical for any --jobs *)
      let verdicts =
        X.map ~jobs
          (fun (name, src, env) ->
            try
              let c = P.compile ~opts env src in
              match P.certify c with
              | Wario_certify.Certify.Certified s as v ->
                  ( false,
                    Printf.sprintf
                      "certify %-10s [%-14s]: CERTIFIED  (%d pairs discharged, \
                       %d barriers, %d loads/%d stores)\n"
                      name (P.environment_name env) s.s_pairs s.s_barriers
                      s.s_loads s.s_stores
                    ^ if verbose then P.certify_report c v else "" )
              | Wario_certify.Certify.Rejected (rs, _) as v ->
                  ( true,
                    Printf.sprintf
                      "certify %-10s [%-14s]: REJECTED  (%d problem(s))\n" name
                      (P.environment_name env) (List.length rs)
                    ^ P.certify_report c v )
            with Wario_minic.Minic.Error e ->
              (true, Printf.sprintf "certify %-10s: front-end error: %s\n" name e))
          tasks
      in
      List.iter (fun (_, s) -> print_string s) verdicts;
      let rejected =
        List.length (List.filter (fun (bad, _) -> bad) verdicts)
      in
      if rejected = 0 then `Ok ()
      else `Error (false, Printf.sprintf "%d build(s) rejected" rejected))

let certify_cmd =
  let envs =
    Arg.(
      value & opt_all env_conv []
      & info [ "e"; "environment" ] ~docv:"ENV"
          ~doc:
            "Environment(s) to certify (repeatable; default: every            instrumented environment).")
  in
  let drop_ckpt =
    Arg.(
      value
      & opt (some int) None
      & info [ "drop-ckpt" ] ~docv:"N"
          ~doc:
            "TEST-ONLY: sabotage the pipeline by deleting the N-th            middle-end checkpoint; the certifier must reject the build            with a path witness.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Print the full certificate, not a summary.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Statically certify the linked image WAR-free (translation            validation of the pipeline), or print a path witness")
    Term.(
      ret
        (const do_certify $ file_arg $ benchmark_arg $ envs $ unroll_arg
       $ max_region_arg $ no_opt_arg $ drop_ckpt $ verbose $ jobs_arg))

(* --- pgo --- *)

let do_pgo file benchmark env unroll max_region no_opt power trace stats
    explain span_out span_jsonl engine cache_dir no_cache =
  match load_source file benchmark with
  | Error e -> `Error (false, e)
  | Ok src -> (
      try
        if env = P.Plain then
          failwith
            "pgo needs an instrumented environment (plain-c places no \
             checkpoints)";
        let spans = span_recorder span_out span_jsonl in
        let cache = cache_of ~cache_dir ~no_cache in
        let opts =
          {
            (opts_of ?max_region ~no_opt unroll) with
            P.elide = true;
            motion = true;
          }
        in
        let cs =
          Wario.Pgo.compile_candidates ~opts ~spans ~engine ~cache env src
        in
        let pilot = cs.Wario.Pgo.pilot in
        Printf.printf "pilot: %d cycles under continuous power\n"
          pilot.Wario.Pgo.pilot_cycles;
        let rejected = ref 0 in
        List.iter
          (fun v ->
            let c = Wario.Pgo.compiled_of cs v in
            let cert =
              match P.certify c with
              | Wario_certify.Certify.Certified _ -> "CERTIFIED"
              | Wario_certify.Certify.Rejected _ ->
                  incr rejected;
                  "REJECTED"
            in
            let elided =
              match c.P.elision with
              | Some s -> s.Wario.Elide.elided + s.Wario.Elide.boundary_elided
              | None -> 0
            in
            let moved =
              match c.P.motion with
              | Some s -> s.Wario.Motion.applied
              | None -> 0
            in
            Printf.printf
              "%-16s %6s dynamic checkpoints on the pilot input, %d elided, \
               %d moved, %s%s\n"
              (Wario.Pgo.variant_name v)
              (match List.assoc_opt v pilot.Wario.Pgo.measured with
              | Some k -> string_of_int k
              | None -> "?")
              elided moved cert
              (if v = pilot.Wario.Pgo.selected then "  <- selected" else ""))
          [ Wario.Pgo.Greedy; Wario.Pgo.Static; Wario.Pgo.Profile;
            Wario.Pgo.Inter ];
        let supply =
          match supply_of power trace with Ok s -> s | Error e -> failwith e
        in
        let best = Wario.Pgo.compiled_of cs pilot.Wario.Pgo.selected in
        (match explain with
        | None -> ()
        | Some path ->
            write_text path (explain_json best);
            Printf.printf "placement rationale for %s written to %s\n"
              (Wario.Pgo.variant_name pilot.Wario.Pgo.selected)
              path);
        let r =
          O.Span.with_span spans "pgo.final_run" (fun () ->
              let r = E.Emulator.run ~supply ~engine best.P.image in
              O.Span.add_counter ~by:r.E.Emulator.cycles spans "cycles";
              O.Span.add_counter ~by:r.E.Emulator.checkpoints_total spans
                "dyn_ckpts";
              r)
        in
        List.iter (fun v -> Printf.printf "%ld\n" v) r.E.Emulator.output;
        Printf.printf "exit=%ld\n" r.E.Emulator.exit_code;
        if stats then begin
          let ck = r.E.Emulator.checkpoints in
          Printf.printf
            "cycles=%d instrs=%d checkpoints=%d (entry=%d exit=%d \
             middle-end=%d back-end=%d) power-failures=%d boots=%d\n"
            r.E.Emulator.cycles r.E.Emulator.instrs
            r.E.Emulator.checkpoints_total ck.c_entry ck.c_exit ck.c_middle
            ck.c_backend r.E.Emulator.power_failures r.E.Emulator.boots;
          print_newline ();
          print_string (Wario.Report.profile_table pilot.Wario.Pgo.summary)
        end;
        (match r.E.Emulator.violations with
        | _ :: _ as v ->
            Printf.printf "*** %d WAR violations detected!\n" (List.length v)
        | [] -> ());
        if !rejected > 0 then
          `Error (false, "static certifier rejected a candidate build")
        else if r.E.Emulator.violations <> [] then
          `Error (false, "WAR violations detected")
        else begin
          flush_spans ~process_name:"iclang pgo" spans span_out span_jsonl;
          `Ok ()
        end
      with
      | Wario_minic.Minic.Error e -> `Error (false, e)
      | Failure e -> `Error (false, e)
      | E.Emulator.No_forward_progress supply ->
          `Error (false, "no forward progress under power supply " ^ supply))

let pgo_cmd =
  let power =
    Arg.(
      value
      & opt (some int) None
      & info [ "power" ] ~docv:"CYCLES"
          ~doc:"Intermittent power for the final run: fixed on-period.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"NAME" ~doc:"Harvester trace: rf or solar.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print run statistics and the pilot's profile table.")
  in
  Cmd.v
    (Cmd.info "pgo"
       ~doc:
         "Profile-guided checkpoint placement: compile with the static cost            model, measure one pilot run, recompile with measured block            weights, certify every candidate, keep the measured-best binary            and run it")
    Term.(
      ret
        (const do_pgo $ file_arg $ benchmark_arg $ env_arg $ unroll_arg
       $ max_region_arg $ no_opt_arg $ power $ trace $ stats $ explain_arg
       $ span_out_arg $ span_jsonl_arg $ engine_arg $ cache_dir_arg
       $ no_cache_arg))

(* --- serve --- *)

(* The batch front end: JSONL (program, options) jobs in, JSONL results
   out.  Jobs are canonicalized to pipeline image keys and deduplicated;
   only distinct keys compile, fanned over an Exec pool, and every job —
   including the deduplicated aliases and the lines that failed to parse
   — gets exactly one result line, in input order.  Protocol lives in
   Wario.Serve; see README "Compile service". *)
let do_serve input output jobs cache_dir no_cache stats_only span_out
    span_jsonl =
  match resolve_jobs jobs with
  | Error e -> `Error (true, e)
  | Ok jobs -> (
      try
        let module Sv = Wario.Serve in
        let cache = cache_of ~cache_dir ~no_cache in
        let spans = span_recorder span_out span_jsonl in
        let read_lines ic =
          let rec loop acc =
            match input_line ic with
            | line -> loop (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          loop []
        in
        let lines =
          match input with
          | None | Some "-" -> read_lines stdin
          | Some path ->
              let ic = open_in path in
              Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                  read_lines ic)
        in
        (* blank lines are separators, not jobs *)
        let lines =
          List.filteri (fun _ l -> String.trim l <> "") lines
        in
        let lookup b =
          Option.map
            (fun (x : W.benchmark) -> x.source)
            (List.find_opt (fun (x : W.benchmark) -> x.name = b) W.all)
        in
        let parsed =
          List.mapi (fun i l -> Sv.job_of_line ~lookup ~index:i l) lines
        in
        let oks =
          List.filteri (fun _ r -> Result.is_ok r) parsed
          |> List.map Result.get_ok |> Array.of_list
        in
        let plan =
          O.Span.with_span spans "serve.plan" (fun () ->
              Sv.plan (Array.to_list oks))
        in
        (* compile each distinct job once *)
        let compiled =
          X.map ~jobs ~spans ~label:"serve.map"
            (fun idx ->
              let job = oks.(idx) in
              let t0 = Unix.gettimeofday () in
              let c, report =
                P.compile_with_report ~opts:job.Sv.j_opts ~cache job.Sv.j_env
                  job.Sv.j_source
              in
              (idx, c, report, (Unix.gettimeofday () -. t0) *. 1000.))
            plan.Sv.p_distinct
        in
        let by_idx = Hashtbl.create 64 in
        List.iter
          (fun (idx, c, report, ms) -> Hashtbl.replace by_idx idx (c, report, ms))
          compiled;
        let emit =
          match output with
          | None | Some "-" -> fun line -> print_endline line
          | Some path ->
              let oc = open_out path in
              at_exit (fun () -> try close_out oc with _ -> ());
              fun line ->
                output_string oc line;
                output_char oc '\n'
        in
        let ok_pos = ref 0 in
        List.iteri
          (fun i r ->
            match r with
            | Error msg ->
                emit (Sv.error_line ~id:(Printf.sprintf "job-%d" i) msg)
            | Ok (job : Sv.job) ->
                let p = !ok_pos in
                incr ok_pos;
                let canon = plan.Sv.p_canonical.(p) in
                let c, report, ms = Hashtbl.find by_idx canon in
                let dedup_of =
                  if canon = p then None else Some oks.(canon).Sv.j_id
                in
                emit
                  (Sv.result_line ~stats_only ~job ~key:plan.Sv.p_keys.(p)
                     ~dedup_of ~stages:report ~wall_ms:ms c))
          parsed;
        let ctr = Wario.Cache.counters cache in
        Printf.eprintf
          "serve: %d job(s), %d distinct, %d error line(s); cache: %d hit(s), \
           %d miss(es), %d eviction(s)\n"
          (List.length parsed)
          (List.length plan.Sv.p_distinct)
          (List.length parsed - Array.length oks)
          ctr.Wario.Cache.hits ctr.Wario.Cache.misses
          ctr.Wario.Cache.evictions;
        flush_spans ~process_name:"iclang serve" spans span_out span_jsonl;
        `Ok ()
      with
      | Sys_error e -> `Error (false, e)
      | Wario_minic.Minic.Error e -> `Error (false, e)
      | Wario_backend.Isel.Isel_error e -> `Error (false, e))

let serve_cmd =
  let input =
    Arg.(
      value
      & opt (some string) None
      & info [ "in"; "i" ] ~docv:"FILE"
          ~doc:"JSONL job stream (default and $(b,-): stdin).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"JSONL result stream (default and $(b,-): stdout).")
  in
  let stats_only =
    Arg.(
      value & flag
      & info [ "stats-only" ]
          ~doc:
            "Omit the run-varying result fields (per-stage cache outcomes,            wall time), leaving only fields that are a pure function of the            job — two serve runs over the same batch, cached or not, then            produce byte-identical output.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Batch compile service: read JSONL (program, options) jobs,            deduplicate them by canonical pipeline stage key, compile each            distinct job once over a parallel pool (reusing the            content-addressed cache), and stream one JSONL result per job in            input order")
    Term.(
      ret
        (const do_serve $ input $ output $ jobs_arg $ cache_dir_arg
       $ no_cache_arg $ stats_only $ span_out_arg $ span_jsonl_arg))

(* --- stats --- *)

let do_stats bench_files span_files coverage_files budgets_file gate_flag top =
  let module J = Wario_support.Json in
  let module St = Wario.Stats in
  try
    (* BENCH generations, in the order given (pass oldest first) *)
    let gens =
      List.map
        (fun path ->
          let label = Filename.remove_extension (Filename.basename path) in
          match St.load_generation ~label (read_file path) with
          | Ok g -> g
          | Error e -> failwith e)
        bench_files
    in
    if gens <> [] then print_string (St.render_trend gens);
    (* span JSONL: rebuild the trees, re-run the attribution self-check,
       then report the slowest spans and per-worker utilization *)
    List.iter
      (fun path ->
        match O.Span.of_jsonl (read_file path) with
        | Error e -> failwith (path ^ ": " ^ e)
        | Ok roots ->
            (match O.Span.check roots with
            | Ok () -> ()
            | Error e -> failwith (path ^ ": span self-check failed: " ^ e));
            Printf.printf "\n-- spans: %s --\n" path;
            print_string (St.render_spans ~k:top roots))
      span_files;
    (* campaign coverage artifacts: the one-line fleet summary *)
    List.iter
      (fun path ->
        let doc =
          match J.parse (read_file path) with
          | Ok d -> d
          | Error e -> failwith (path ^ ": " ^ e)
        in
        let get name f = Option.bind (J.member name doc) f in
        Printf.printf
          "\ncampaign %s: %d case(s), min boundary coverage %.1f%%, %d \
           failure(s)\n"
          path
          (match get "cases" J.to_list with
          | Some l -> List.length l
          | None -> 0)
          (Option.value ~default:0. (get "min_boundary_pct" J.to_float))
          (Option.value ~default:0 (get "total_failures" J.to_int)))
      coverage_files;
    match budgets_file with
    | None ->
        if gate_flag then
          `Error (false, "--gate needs a budget file (--budgets FILE)")
        else `Ok ()
    | Some path ->
        let doc =
          match J.parse (read_file path) with
          | Ok d -> d
          | Error e -> failwith (path ^ ": " ^ e)
        in
        let budgets =
          match St.budgets_of_json doc with
          | Ok b -> b
          | Error e -> failwith (path ^ ": " ^ e)
        in
        let breaches = St.gate ~budgets gens in
        print_newline ();
        print_string (St.render_breaches breaches);
        if breaches <> [] && gate_flag then
          `Error (false, "regression budget breached")
        else `Ok ()
  with
  | Failure e -> `Error (false, e)
  | Sys_error e -> `Error (false, e)

let stats_cmd =
  let bench_files =
    Arg.(
      value & opt_all string []
      & info [ "bench" ] ~docv:"FILE"
          ~doc:
            "A BENCH_*.json generation (repeatable; pass oldest first —            deltas run oldest to newest).")
  in
  let span_files =
    Arg.(
      value & opt_all string []
      & info [ "spans" ] ~docv:"FILE"
          ~doc:
            "A span JSONL file written by --span-jsonl (repeatable).  Each            file is self-checked (child time must fit its parent) before            the top-k and worker-utilization tables are printed.")
  in
  let coverage_files =
    Arg.(
      value & opt_all string []
      & info [ "coverage" ] ~docv:"FILE"
          ~doc:
            "A campaign coverage JSON written by verify --coverage-out            (repeatable).")
  in
  let budgets_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "budgets" ] ~docv:"FILE"
          ~doc:
            "Regression budgets: {\"budgets\": [{\"program\": NAME,            \"max_dyn_ckpts\": N, \"max_cycles\": N}, ...]}.  Each program            is checked against its newest generation; a budgeted program            missing from every generation is itself a breach.")
  in
  let gate_flag =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:"Exit nonzero when any budget is breached (the CI gate).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Slowest spans to list (default 10).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Ingest run artifacts (BENCH_*.json generations, span JSONL,            campaign coverage JSON) and print a trend report: per-program            dyn-ckpt/cycle deltas, top-k slowest spans, worker utilization            — optionally gated against regression budgets")
    Term.(
      ret
        (const do_stats $ bench_files $ span_files $ coverage_files
       $ budgets_file $ gate_flag $ top))

(* --- list-benchmarks --- *)

let list_cmd =
  Cmd.v (Cmd.info "list-benchmarks" ~doc:"List the built-in benchmarks")
    Term.(
      const (fun () ->
          List.iter
            (fun (b : W.benchmark) ->
              Printf.printf "%-10s %s\n" b.name b.description)
            W.all)
      $ const ())

let main =
  Cmd.group
    (Cmd.info "iclang" ~version:"1.0"
       ~doc:"WARio: efficient code generation for intermittent computing")
    [ compile_cmd; run_cmd; trace_cmd; verify_cmd; certify_cmd; pgo_cmd;
      serve_cmd; stats_cmd; list_cmd ]

let () = exit (Cmd.eval main)

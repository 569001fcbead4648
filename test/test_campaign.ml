(* Tests for the fleet-scale adversarial power subsystem: supply models
   (lib/verify/supply.ml + the Trace_once emulator supply), the
   boundary-bisecting adversary, the campaign engine's coverage accounting
   and jobs-determinism, and the persisted regression corpus. *)

module P = Wario.Pipeline
module E = Wario_emulator
module M = Wario_workloads.Micro
module V = Wario_verify

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* Supply models                                                        *)
(* ------------------------------------------------------------------ *)

let test_supply_names () =
  List.iter
    (fun m ->
      let n = V.Supply.name m in
      Alcotest.(check bool)
        (n ^ " token is paren- and space-free")
        false
        (String.exists (fun c -> c = '(' || c = ')' || c = ' ') n);
      match V.Supply.of_name n with
      | Ok m' -> Alcotest.(check bool) (n ^ " round-trips") true (m = m')
      | Error e -> Alcotest.failf "%s does not parse back: %s" n e)
    (V.Supply.builtin @ [ V.Supply.File "/tmp/x:y.trace"; V.Supply.Markov 0 ]);
  (match V.Supply.of_name "markov" with
  | Ok (V.Supply.Markov _) -> ()
  | _ -> Alcotest.fail "bare markov should default");
  List.iter
    (fun bad ->
      match V.Supply.of_name bad with
      | Ok _ -> Alcotest.failf "parsed garbage supply %S" bad
      | Error _ -> ())
    [ ""; "moonlight"; "markov:x"; "markov:101"; "markov:-1" ]

let test_supply_durations_valid () =
  List.iter
    (fun model ->
      let d = V.Supply.durations model ~seed:9L ~mean_on:200 ~total:20_000 in
      Alcotest.(check bool)
        (V.Supply.name model ^ " non-empty")
        true
        (Array.length d > 0);
      Alcotest.(check bool)
        (V.Supply.name model ^ " within synthesis cap")
        true
        (Array.length d <= V.Supply.max_periods);
      Array.iter
        (fun v ->
          if v < 1 then
            Alcotest.failf "%s emitted a non-positive on-duration %d"
              (V.Supply.name model) v)
        d;
      let sum = Array.fold_left ( + ) 0 d in
      (* either the window covers the requested run or synthesis hit the
         period cap (then Power.Schedule turns continuous — still safe) *)
      Alcotest.(check bool)
        (V.Supply.name model ^ " covers the run or capped")
        true
        (sum > 20_000 || Array.length d = V.Supply.max_periods);
      (* composes with the emulator's validated supply constructor *)
      ignore (E.Power.create (E.Power.Schedule d)))
    V.Supply.builtin;
  expect_invalid (fun () ->
      V.Supply.durations V.Supply.Rf ~seed:1L ~mean_on:0 ~total:100);
  expect_invalid (fun () ->
      V.Supply.durations V.Supply.Rf ~seed:1L ~mean_on:10 ~total:(-1));
  expect_invalid (fun () ->
      V.Supply.durations
        (V.Supply.File "/nonexistent/supply.trace")
        ~seed:1L ~mean_on:10 ~total:100)

(* Satellite: any supply model is byte-identically reproducible from its
   seed (qcheck over model × seed × scale). *)
let prop_supply_reproducible =
  let gen =
    QCheck.Gen.(
      triple (oneofl V.Supply.builtin) (map Int64.of_int int)
        (pair (int_range 1 400) (int_range 0 30_000)))
  in
  QCheck.Test.make ~name:"supply: byte-identical from seed" ~count:60
    (QCheck.make gen) (fun (model, seed, (mean_on, total)) ->
      let a = V.Supply.durations model ~seed ~mean_on ~total in
      let b = V.Supply.durations model ~seed ~mean_on ~total in
      a = b
      && Array.for_all (fun v -> v >= 1) a
      && Array.length a <= V.Supply.max_periods)

let test_supply_file_roundtrip () =
  let path = Filename.temp_file "wario-supply" ".trace" in
  V.Supply.save_file path [| 120; 7; 3_000 |];
  (match V.Supply.load_file path with
  | Ok d ->
      Alcotest.(check (list int)) "file round-trips" [ 120; 7; 3_000 ]
        (Array.to_list d)
  | Error e -> Alcotest.failf "load of own save failed: %s" e);
  (* File model synthesizes from the replayed profile *)
  let d =
    V.Supply.durations (V.Supply.File path) ~seed:3L ~mean_on:50 ~total:1_000
  in
  Alcotest.(check bool) "file model synthesizes" true (Array.length d > 0);
  Sys.remove path;
  let oc = open_out path in
  output_string oc "# comment\n12\nnonsense\n";
  close_out oc;
  (match V.Supply.load_file path with
  | Ok _ -> Alcotest.fail "parsed a malformed trace"
  | Error e ->
      Alcotest.(check bool) "error carries file:line" true
        (String.length e > 0
        && String.exists (fun c -> c = ':') e));
  Sys.remove path;
  match V.Supply.load_file path with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Trace vs. Trace_once: wrap vs. depleted harvester                    *)
(* ------------------------------------------------------------------ *)

let test_trace_wraps_trace_once_fails () =
  let m = M.find "rmw_loop" in
  let c = P.compile P.Wario m.M.source in
  let cont = E.Emulator.run c.P.image in
  (* a recording much shorter than the run: three periods covering 3/4 of
     the continuous run's cycles (each period is long enough for at least
     one commit, so the wrapping supply can always make progress) *)
  let q = cont.E.Emulator.cycles / 4 in
  let short = [| q; q; q |] in
  Alcotest.(check bool) "recording is shorter than the run" true
    (Array.fold_left ( + ) 0 short < cont.E.Emulator.cycles);
  (* cyclic Trace wraps and the program completes unharmed *)
  let r = E.Emulator.run ~supply:(E.Power.Trace short) c.P.image in
  Alcotest.(check (list int32)) "wrapping trace completes"
    cont.E.Emulator.output r.E.Emulator.output;
  Alcotest.(check bool) "wrapping trace rebooted" true
    (r.E.Emulator.boots > 1);
  (* Trace_once models a depleted source: zero budget forever after the
     last period, so the forward-progress watchdog must fire *)
  (match E.Emulator.run ~supply:(E.Power.Trace_once short) c.P.image with
  | exception E.Emulator.No_forward_progress _ -> ()
  | _ -> Alcotest.fail "depleted Trace_once supply did not trip the watchdog");
  (* a recording that covers the whole run completes even played once *)
  let ample = [| cont.E.Emulator.cycles * 2 |] in
  let r = E.Emulator.run ~supply:(E.Power.Trace_once ample) c.P.image in
  Alcotest.(check (list int32)) "ample Trace_once completes"
    cont.E.Emulator.output r.E.Emulator.output

(* Satellite: degenerate supplies are rejected up front with a clear
   error, never handed to the emulator to hang on. *)
let test_power_validation () =
  List.iter
    (fun s -> expect_invalid (fun () -> E.Power.create s))
    [
      E.Power.Periodic 0;
      E.Power.Periodic (-5);
      E.Power.Trace [||];
      E.Power.Trace [| 100; 0 |];
      E.Power.Trace_once [||];
      E.Power.Trace_once [| -1 |];
      E.Power.Schedule [| 5; -2 |];
    ];
  ignore (E.Power.create (E.Power.Schedule [||]))
(* an empty schedule = continuous: valid *)

(* Satellite: random_schedule's ±8-cycle boundary jitter is clamped, so
   boundaries near the origin can never produce a non-positive cut. *)
let prop_jitter_clamped =
  QCheck.Test.make ~name:"schedule: jitter clamped to >= 1" ~count:200
    QCheck.(map Int64.of_int int)
    (fun seed ->
      (* boundaries closer to 0 than the jitter radius *)
      let ref_ =
        { V.Schedule.total_cycles = 400; boundaries = [| 2; 5; 9; 300 |] }
      in
      let g = V.Schedule.of_seed seed in
      List.for_all
        (fun cuts -> Array.for_all (fun c -> c >= 1) cuts)
        (V.Schedule.random_schedules g ref_ ~n:20))

(* Satellite: a program with no checkpoint at all still works end to end —
   the exhaustive set is empty and coverage is vacuously complete. *)
let test_zero_boundary_geometry () =
  let ref_ = { V.Schedule.total_cycles = 900; boundaries = [||] } in
  Alcotest.(check int) "exhaustive set is empty" 0
    (List.length (V.Schedule.exhaustive ref_));
  let cov = V.Campaign.coverage_of_plan ref_ [ [| 50 |]; [| 600; 100 |] ] in
  Alcotest.(check int) "no boundaries" 0 cov.V.Campaign.cov_boundaries;
  Alcotest.(check bool) "vacuously 100%" true
    (V.Campaign.boundary_pct cov = 100.0);
  (* the single halt-terminated region is still accounted *)
  Alcotest.(check int) "one region (the tail)" 1 cov.V.Campaign.cov_regions;
  Alcotest.(check int) "tail region cut" 1 cov.V.Campaign.cov_regions_cut

(* Satellite: boot-only cuts — power dying before the first instruction
   retires — are harmless on a healthy build and show up in coverage. *)
let test_boot_only_cuts () =
  let m = M.find "arith" in
  let c = P.compile P.Wario m.M.source in
  let g = V.Oracle.golden c in
  List.iter
    (fun cut ->
      match V.Oracle.check_schedule g c [| cut |] with
      | Ok () -> ()
      | Error d ->
          Alcotest.failf "boot-phase cut %d diverged: %s" cut
            (V.Oracle.string_of_divergence d))
    [ 1; 2; E.Emulator.boot_cycles ];
  let ref_ = V.Schedule.reference_of_result g.V.Oracle.g_result in
  let cov = V.Campaign.coverage_of_plan ref_ [ [| 1 |] ] in
  Alcotest.(check bool) "boot window counted" true cov.V.Campaign.cov_boot_cut

(* ------------------------------------------------------------------ *)
(* Commit-chain sweep                                                   *)
(* ------------------------------------------------------------------ *)

(* Tentpole: on a dense-commit geometry the sweep walks one machine
   boundary-to-boundary, and every power period dies exactly on its
   commit — lost work 0, commits monotone — so the observed failure
   sites alone cover 100% of the boundaries.  Checked against the
   emulator, not just the plan arithmetic. *)
let test_sweep_lands_on_every_boundary () =
  let m = M.find "fib" in
  let c = P.compile P.Ratchet m.M.source in
  let g = V.Oracle.golden c in
  let ref_ = V.Schedule.reference_of_result g.V.Oracle.g_result in
  let bs = ref_.V.Schedule.boundaries in
  let n = Array.length bs in
  Alcotest.(check bool) "geometry is dense" true (n > 10_000);
  let chunks = V.Campaign.sweep_plan ref_ in
  Alcotest.(check int) "one cut per boundary" n
    (List.fold_left (fun a ch -> a + Array.length ch) 0 chunks);
  let hit = Array.make n false and bad = ref 0 in
  List.iter
    (fun cuts ->
      match V.Oracle.run_schedule g c cuts with
      | Some r, Ok () ->
          List.iter
            (fun (commits, lost) ->
              if lost <> 0 || commits < 1 || commits > n then incr bad
              else hit.(commits - 1) <- true)
            r.E.Emulator.failure_sites
      | Some _, Error d ->
          Alcotest.failf "sweep diverged: %s" (V.Oracle.string_of_divergence d)
      | None, _ -> Alcotest.fail "sweep made no progress")
    chunks;
  Alcotest.(check int) "every site lands exactly on a commit" 0 !bad;
  Alcotest.(check bool) "every boundary hit" true
    (Array.for_all (fun b -> b) hit)

(* ------------------------------------------------------------------ *)
(* Magnitude shrinking                                                  *)
(* ------------------------------------------------------------------ *)

let test_shrink_magnitudes () =
  (* failure = first cut at or beyond 5: must shrink exactly to 5 *)
  let still_fails cuts = Array.length cuts > 0 && cuts.(0) >= 5 in
  let s = V.Shrink.shrink_magnitudes ~still_fails [| 100 |] in
  Alcotest.(check (list int)) "boundary pinned" [ 5 ] (Array.to_list s);
  (* independent positions shrink independently *)
  let still_fails cuts =
    Array.length cuts = 2 && cuts.(0) >= 3 && cuts.(1) >= 40
  in
  let s = V.Shrink.shrink_magnitudes ~still_fails [| 17; 90 |] in
  Alcotest.(check (list int)) "both pinned" [ 3; 40 ] (Array.to_list s);
  (* a failure indifferent to magnitude shrinks every cut to 1 *)
  let s = V.Shrink.shrink_magnitudes ~still_fails:(fun _ -> true) [| 9; 9 |] in
  Alcotest.(check (list int)) "floors at 1" [ 1; 1 ] (Array.to_list s);
  (* full ddmin composes both phases: drop 9, shrink 100 to the boundary *)
  let still_fails cuts = Array.exists (fun c -> c >= 50) cuts in
  let s = V.Shrink.ddmin ~still_fails [| 9; 100 |] in
  Alcotest.(check (list int)) "subset then magnitude" [ 50 ]
    (Array.to_list s)

(* ------------------------------------------------------------------ *)
(* Adversary                                                            *)
(* ------------------------------------------------------------------ *)

let test_adversary_healthy () =
  let m = M.find "arith" in
  let c = P.compile P.Wario m.M.source in
  let g = V.Oracle.golden c in
  let worst = V.Adversary.search g c in
  Alcotest.(check bool) "some region searched" true (worst <> []);
  List.iter
    (fun w ->
      let lo, hi = w.V.Adversary.a_window in
      Alcotest.(check bool) "window non-empty" true (hi > lo);
      Alcotest.(check bool) "worst cut inside the window" true
        (w.V.Adversary.a_cut > lo && w.V.Adversary.a_cut <= hi + 1);
      Alcotest.(check bool) "healthy build never diverges" true
        (w.V.Adversary.a_divergence = None);
      Alcotest.(check bool) "probes accounted" true
        (w.V.Adversary.a_probes > 0))
    worst;
  (* the adversary's whole point: some cut provokes real re-execution *)
  Alcotest.(check bool) "re-executed waste provoked" true
    (List.exists (fun w -> w.V.Adversary.a_reexec > 0) worst);
  (* deterministic: pure bisection, no randomness *)
  let worst2 = V.Adversary.search g c in
  Alcotest.(check bool) "bisection is deterministic" true (worst = worst2)

(* ------------------------------------------------------------------ *)
(* Campaign engine                                                      *)
(* ------------------------------------------------------------------ *)

let campaign_config budget jobs =
  {
    V.Campaign.default_config with
    V.Campaign.workloads = [];
    budget;
    jobs;
    seed = 21L;
  }

let run_arith budget jobs =
  let m = M.find "arith" in
  V.Campaign.run_case
    (campaign_config budget jobs)
    ~workload:(m.M.name, m.M.source)
    ~env:P.Wario

(* The acceptance criterion: full commit-boundary coverage, reported per
   case, and a report that is identical for any --jobs value. *)
let test_campaign_coverage_and_determinism () =
  let r1 = run_arith 60 1 in
  Alcotest.(check bool) "budget respected" true
    (r1.V.Campaign.k_schedules >= 60);
  Alcotest.(check int) "healthy case is green" 0
    r1.V.Campaign.k_failures_total;
  Alcotest.(check bool) "boundary coverage >= 95%" true
    (V.Campaign.boundary_pct r1.V.Campaign.k_coverage >= 95.0);
  Alcotest.(check bool) "boot window exercised" true
    r1.V.Campaign.k_coverage.V.Campaign.cov_boot_cut;
  Alcotest.(check bool) "adversary probes ran" true (r1.V.Campaign.k_probes > 0);
  let r2 = run_arith 60 2 in
  Alcotest.(check bool) "identical report for jobs 1 vs 2" true (r1 = r2);
  (* and the whole-campaign aggregates agree *)
  Alcotest.(check int) "no failures in aggregate" 0
    (V.Campaign.total_failures [ r1 ]);
  Alcotest.(check bool) "min coverage aggregate" true
    (V.Campaign.min_boundary_pct [ r1 ] >= 95.0)

let sabotage_case () =
  let m = M.find "byte_ops" in
  let config =
    {
      (campaign_config 40 1) with
      V.Campaign.opts =
        { P.default_options with P.sabotage = Some (P.Drop_ckpt 1) };
    }
  in
  V.Campaign.run_case config ~workload:(m.M.name, m.M.source) ~env:P.Wario

let test_campaign_catches_sabotage () =
  let r = sabotage_case () in
  Alcotest.(check bool) "sabotage caught" true
    (r.V.Campaign.k_failures_total > 0);
  match r.V.Campaign.k_failures with
  | [] -> Alcotest.fail "no shrunk failure recorded"
  | f :: _ ->
      Alcotest.(check bool) "repro carries the sabotage hook" true
        (f.V.Campaign.k_repro.V.Repro.sabotage = Some (P.Drop_ckpt 1))

(* The pinned [Drop_saved_reg] pair: byte_ops with the save mask of its
   second checkpoint that saves one of r0-r12 missing that register.  The
   continuous run never restores, so it is clean; runs cut in the
   checkpoint's region restore the register as 0 and diverge.  Its shrunk
   failure carries [(drop-reg 1)], reparses and replays. *)
let test_campaign_catches_dropped_register () =
  let m = M.find "byte_ops" in
  let opts = { P.default_options with P.sabotage = Some (P.Drop_saved_reg 1) } in
  let g = V.Oracle.golden (P.compile ~opts P.Wario m.M.source) in
  Alcotest.(check bool) "golden run clean" true (V.Oracle.golden_violations g = []);
  Alcotest.(check (list int32)) "golden output" m.M.expected g.V.Oracle.g_output;
  let r =
    V.Campaign.run_case
      { (campaign_config 40 1) with V.Campaign.opts }
      ~workload:(m.M.name, m.M.source) ~env:P.Wario
  in
  Alcotest.(check bool) "failures found" true (r.V.Campaign.k_failures_total > 0);
  match r.V.Campaign.k_failures with
  | [] -> Alcotest.fail "no shrunk failure recorded"
  | f :: _ -> (
      Alcotest.(check bool) "found by a schedule" true
        (Array.length f.V.Campaign.k_shrunk > 0);
      let line = V.Repro.to_string f.V.Campaign.k_repro in
      match V.Repro.of_string line with
      | Error e -> Alcotest.failf "reproducer %S does not parse: %s" line e
      | Ok r -> (
          Alcotest.(check bool) "repro carries (drop-reg 1)" true
            (r.V.Repro.sabotage = Some (P.Drop_saved_reg 1));
          match V.Corpus.replay_repro r with
          | Ok () -> Alcotest.failf "replay of %S did not reproduce" line
          | Error _ -> ()))

(* ------------------------------------------------------------------ *)
(* Regression corpus                                                    *)
(* ------------------------------------------------------------------ *)

let sample_entry () =
  let r =
    V.Repro.make ~unroll:8 ~sabotage:(P.Drop_ckpt 1) ~seed:21L ~workload:"byte_ops"
      ~env:P.Wario [| 413 |]
  in
  V.Corpus.make ~supply:"markov:40" ~found_by:"campaign"
    ~expect:V.Corpus.Must_fail r

let test_corpus_roundtrip () =
  let e = sample_entry () in
  let s = V.Corpus.to_string e in
  Alcotest.(check bool) "one line" false (String.contains s '\n');
  (match V.Corpus.of_string s with
  | Error err -> Alcotest.failf "own output does not parse %S: %s" s err
  | Ok e' -> Alcotest.(check bool) "round-trips" true (e = e'));
  Alcotest.(check bool) "program hash recorded" true
    (e.V.Corpus.e_program_hash <> None);
  List.iter
    (fun bad ->
      match V.Corpus.of_string bad with
      | Ok _ -> Alcotest.failf "parsed garbage entry %S" bad
      | Error _ -> ())
    [
      "";
      "(entry)";
      "(entry (expect maybe) (repro (workload arith) (env wario) (cuts 1)))";
      "(entry (expect fail))" (* no repro *);
      "(repro (workload arith) (env wario) (cuts 1))" (* not an entry *);
    ]

let test_corpus_save_dedup_load () =
  let dir = Filename.temp_file "wario-corpus" "" in
  Sys.remove dir;
  let e = sample_entry () in
  (match V.Corpus.save ~dir e with
  | `Added _ -> ()
  | `Exists _ -> Alcotest.fail "fresh entry reported as existing");
  (match V.Corpus.save ~dir e with
  | `Exists _ -> ()
  | `Added _ -> Alcotest.fail "identical entry not deduplicated");
  (* an unreadable file is surfaced as an error, not silently dropped *)
  let oc = open_out (Filename.concat dir "garbage.repro") in
  output_string oc "(entry (expect\n";
  close_out oc;
  let entries, errs = V.Corpus.load_dir dir in
  Alcotest.(check int) "one good entry" 1 (List.length entries);
  Alcotest.(check int) "one parse error" 1 (List.length errs);
  (match entries with
  | [ (_, e') ] -> Alcotest.(check bool) "loaded intact" true (e = e')
  | _ -> assert false);
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

let test_corpus_replay_polarities () =
  (* a sabotaged reproducer with expect=fail: the verifier must still
     catch it — the detector-regression gate *)
  let r = sabotage_case () in
  let entries = V.Campaign.corpus_entries [ r ] in
  Alcotest.(check bool) "campaign emitted entries" true (entries <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "sabotaged find has fail polarity" true
        (e.V.Corpus.e_expect = V.Corpus.Must_fail);
      let v = V.Corpus.replay e in
      Alcotest.(check bool) ("upheld: " ^ v.V.Corpus.v_message) true
        v.V.Corpus.v_ok;
      Alcotest.(check bool) "not stale" false v.V.Corpus.v_stale)
    entries;
  (* a healthy reproducer with expect=pass replays green *)
  let healthy =
    V.Corpus.make ~expect:V.Corpus.Must_pass
      (V.Repro.make ~workload:"arith" ~env:P.Wario [| 200 |])
  in
  Alcotest.(check bool) "healthy pass entry green" true
    (V.Corpus.replay healthy).V.Corpus.v_ok;
  (* polarity flipped: a healthy build cannot satisfy expect=fail *)
  let wrong =
    V.Corpus.make ~expect:V.Corpus.Must_fail
      (V.Repro.make ~workload:"arith" ~env:P.Wario [| 200 |])
  in
  Alcotest.(check bool) "healthy fail entry is flagged" false
    (V.Corpus.replay wrong).V.Corpus.v_ok

let suite =
  [
    Alcotest.test_case "supply: name tokens round-trip" `Quick
      test_supply_names;
    Alcotest.test_case "supply: valid durations, validated inputs" `Quick
      test_supply_durations_valid;
    Alcotest.test_case "supply: trace file round-trip and errors" `Quick
      test_supply_file_roundtrip;
    Alcotest.test_case "power: short trace wraps, trace-once depletes" `Quick
      test_trace_wraps_trace_once_fails;
    Alcotest.test_case "power: degenerate supplies rejected" `Quick
      test_power_validation;
    Alcotest.test_case "schedule: zero-boundary geometry" `Quick
      test_zero_boundary_geometry;
    Alcotest.test_case "oracle: boot-only cuts are safe" `Quick
      test_boot_only_cuts;
    Alcotest.test_case "sweep: lands on every boundary" `Slow
      test_sweep_lands_on_every_boundary;
    Alcotest.test_case "shrink: magnitude phase" `Quick test_shrink_magnitudes;
    Alcotest.test_case "adversary: bisects every region, deterministic" `Slow
      test_adversary_healthy;
    Alcotest.test_case "campaign: coverage and jobs-determinism" `Slow
      test_campaign_coverage_and_determinism;
    Alcotest.test_case "campaign: catches a dropped saved register" `Quick
      test_campaign_catches_dropped_register;
    Alcotest.test_case "campaign: catches sabotage" `Quick
      test_campaign_catches_sabotage;
    Alcotest.test_case "corpus: entry round-trip and rejects" `Quick
      test_corpus_roundtrip;
    Alcotest.test_case "corpus: content-addressed dedup and load" `Quick
      test_corpus_save_dedup_load;
    Alcotest.test_case "corpus: replay polarities" `Slow
      test_corpus_replay_polarities;
  ]
  @ List.map Test_props.to_alcotest
      [ prop_supply_reproducible; prop_jitter_clamped ]

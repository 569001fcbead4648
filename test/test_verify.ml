(* Tests for lib/verify: the adversarial fault-injection and
   crash-consistency verification subsystem. *)

module P = Wario.Pipeline
module E = Wario_emulator
module M = Wario_workloads.Micro
module V = Wario_verify

(* ------------------------------------------------------------------ *)
(* Splittable PRNG                                                      *)
(* ------------------------------------------------------------------ *)

let test_prng_reproducible () =
  let draw seed n =
    let g = V.Schedule.of_seed seed in
    List.init n (fun _ -> V.Schedule.next_int64 g)
  in
  Alcotest.(check bool)
    "same seed, same stream" true
    (draw 42L 16 = draw 42L 16);
  Alcotest.(check bool)
    "different seed, different stream" true
    (draw 42L 16 <> draw 43L 16);
  (* splitting yields an independent child: drawing from the child must
     not perturb the parent's stream *)
  let g1 = V.Schedule.of_seed 7L in
  let _child = V.Schedule.split g1 in
  let a = V.Schedule.next_int64 g1 in
  let g2 = V.Schedule.of_seed 7L in
  let child2 = V.Schedule.split g2 in
  ignore (V.Schedule.next_int64 child2);
  ignore (V.Schedule.next_int64 child2);
  let b = V.Schedule.next_int64 g2 in
  Alcotest.(check int64) "child draws don't perturb parent" a b;
  let g = V.Schedule.of_seed 99L in
  for _ = 1 to 1000 do
    let v = V.Schedule.int g ~bound:17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds"
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Schedule.int: non-positive bound") (fun () ->
      ignore (V.Schedule.int g ~bound:0))

let test_schedules_reproducible () =
  let m = M.find "rmw_loop" in
  let c = P.compile P.Wario m.M.source in
  let cont = E.Emulator.run c.P.image in
  let ref_ = V.Schedule.reference_of_result cont in
  let batch seed =
    V.Schedule.random_schedules (V.Schedule.of_seed seed) ref_ ~n:20
  in
  Alcotest.(check bool) "same seed, same schedules" true
    (batch 5L = batch 5L);
  List.iter
    (fun cuts ->
      Alcotest.(check bool) "non-empty" true (Array.length cuts > 0);
      Array.iter
        (fun c -> Alcotest.(check bool) "cut positive" true (c > 0))
        cuts)
    (batch 5L)

(* ------------------------------------------------------------------ *)
(* Stepping / snapshot API                                              *)
(* ------------------------------------------------------------------ *)

let test_stepping_matches_run () =
  let m = M.find "arith" in
  let c = P.compile P.Wario m.M.source in
  let whole = E.Emulator.run c.P.image in
  let emu = E.Emulator.create c.P.image in
  while not (E.Emulator.halted emu) do
    ignore (E.Emulator.step emu)
  done;
  let stepped = E.Emulator.result emu in
  Alcotest.(check (list int32)) "same output" whole.E.Emulator.output
    stepped.E.Emulator.output;
  Alcotest.(check int) "same cycles" whole.E.Emulator.cycles
    stepped.E.Emulator.cycles;
  Alcotest.(check int32) "same exit" whole.E.Emulator.exit_code
    stepped.E.Emulator.exit_code

let test_clone_is_independent () =
  let m = M.find "rmw_loop" in
  let c = P.compile P.Wario m.M.source in
  let emu = E.Emulator.create c.P.image in
  for _ = 1 to 500 do
    ignore (E.Emulator.step emu)
  done;
  let snap = E.Emulator.clone emu in
  let digest_at_snap = E.Emulator.nv_digest snap in
  (* run the original to completion; the snapshot must not move *)
  while not (E.Emulator.halted emu) do
    ignore (E.Emulator.step emu)
  done;
  Alcotest.(check bool) "snapshot still live" false (E.Emulator.halted snap);
  Alcotest.(check int64) "snapshot memory untouched" digest_at_snap
    (E.Emulator.nv_digest snap);
  (* and resuming the snapshot reaches the same final state *)
  while not (E.Emulator.halted snap) do
    ignore (E.Emulator.step snap)
  done;
  Alcotest.(check (list int32)) "resumed snapshot agrees"
    (E.Emulator.result emu).E.Emulator.output
    (E.Emulator.result snap).E.Emulator.output;
  Alcotest.(check int64) "final memories agree" (E.Emulator.nv_digest emu)
    (E.Emulator.nv_digest snap)

let test_cut_power () =
  let m = M.find "rmw_loop" in
  let c = P.compile P.Wario m.M.source in
  let cont = E.Emulator.run c.P.image in
  let emu = E.Emulator.create c.P.image in
  for _ = 1 to 300 do
    ignore (E.Emulator.step emu)
  done;
  E.Emulator.cut_power emu;
  Alcotest.(check int) "one reboot recorded" 2 (E.Emulator.boots emu);
  while not (E.Emulator.halted emu) do
    ignore (E.Emulator.step emu)
  done;
  let r = E.Emulator.result emu in
  Alcotest.(check (list int32)) "output survives forced cut"
    cont.E.Emulator.output r.E.Emulator.output;
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.E.Emulator.v_instr) r.E.Emulator.violations)

let test_schedule_supply () =
  let m = M.find "rmw_loop" in
  let c = P.compile P.Wario m.M.source in
  let cont = E.Emulator.run c.P.image in
  (* three cuts then continuous: exactly three extra boots *)
  let r =
    E.Emulator.run ~supply:(E.Power.Schedule [| 900; 900; 900 |]) c.P.image
  in
  Alcotest.(check int) "boots = cuts + 1" 4 r.E.Emulator.boots;
  Alcotest.(check (list int32)) "output intact" cont.E.Emulator.output
    r.E.Emulator.output;
  Alcotest.(check int32) "exit intact" cont.E.Emulator.exit_code
    r.E.Emulator.exit_code

(* ------------------------------------------------------------------ *)
(* Oracle on a healthy build                                            *)
(* ------------------------------------------------------------------ *)

let test_oracle_green_on_healthy () =
  let m = M.find "rmw_loop" in
  List.iter
    (fun env ->
      let c = P.compile env m.M.source in
      let g = V.Oracle.golden c in
      Alcotest.(check (list int32))
        (P.environment_name env ^ " golden output")
        m.M.expected g.V.Oracle.g_output;
      Alcotest.(check bool)
        (P.environment_name env ^ " golden clean")
        true
        (V.Oracle.golden_violations g = []);
      let ref_ = V.Schedule.reference_of_result g.V.Oracle.g_result in
      let gen = V.Schedule.of_seed 11L in
      let schedules =
        V.Schedule.exhaustive ref_
        @ V.Schedule.random_schedules gen ref_ ~n:40
      in
      List.iter
        (fun cuts ->
          match V.Oracle.check_schedule g c cuts with
          | Ok () -> ()
          | Error d ->
              Alcotest.failf "%s diverged under %s: %s"
                (P.environment_name env)
                (String.concat ","
                   (List.map string_of_int (Array.to_list cuts)))
                (V.Oracle.string_of_divergence d))
        schedules)
    P.instrumented_environments

let test_double_emission_detector () =
  let want = [ 1l; 2l; 3l ] in
  Alcotest.(check bool) "replayed prefix" true
    (V.Oracle.is_double_emission ~want ~got:[ 1l; 2l; 1l; 2l; 3l ]);
  Alcotest.(check bool) "equal is not double" false
    (V.Oracle.is_double_emission ~want ~got:want);
  Alcotest.(check bool) "longer but not super-sequence" false
    (V.Oracle.is_double_emission ~want ~got:[ 9l; 9l; 9l; 9l ])

(* ------------------------------------------------------------------ *)
(* Shrinker                                                             *)
(* ------------------------------------------------------------------ *)

let test_ddmin_minimises () =
  (* failure = schedule contains both 3 and 7 *)
  let still_fails cuts =
    Array.exists (( = ) 3) cuts && Array.exists (( = ) 7) cuts
  in
  let shrunk = V.Shrink.ddmin ~still_fails [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  Alcotest.(check (list int))
    "exactly the two relevant cuts" [ 3; 7 ]
    (List.sort compare (Array.to_list shrunk));
  (* failure independent of the schedule shrinks to nothing *)
  let shrunk = V.Shrink.ddmin ~still_fails:(fun _ -> true) [| 9; 8; 7 |] in
  Alcotest.(check int) "vacuous failure shrinks to empty" 0
    (Array.length shrunk);
  (* single necessary element *)
  let still_fails cuts = Array.exists (( = ) 5) cuts in
  let shrunk = V.Shrink.ddmin ~still_fails [| 1; 5; 2; 5; 9 |] in
  Alcotest.(check bool) "1-minimal" true
    (Array.length shrunk = 1 && shrunk.(0) = 5)

(* ------------------------------------------------------------------ *)
(* Reproducers                                                          *)
(* ------------------------------------------------------------------ *)

let test_repro_roundtrip () =
  List.iter
    (fun sabotage ->
      let r =
        V.Repro.make ~unroll:8 ~max_region:512 ~sabotage ~seed:77L
          ~workload:"byte_ops" ~env:P.Wario [| 413; 879 |]
      in
      let s = V.Repro.to_string r in
      Alcotest.(check bool) "one line" false (String.contains s '\n');
      match V.Repro.of_string s with
      | Error e -> Alcotest.failf "failed to parse own output %S: %s" s e
      | Ok r' -> Alcotest.(check bool) "round-trips" true (r = r'))
    [ P.Drop_ckpt 1; P.Drop_saved_reg 2 ];
  (* minimal form: only mandatory fields *)
  let r = V.Repro.make ~workload:"arith" ~env:P.Ratchet [||] in
  (match V.Repro.of_string (V.Repro.to_string r) with
  | Error e -> Alcotest.failf "minimal form: %s" e
  | Ok r' -> Alcotest.(check bool) "minimal round-trips" true (r = r'));
  List.iter
    (fun bad ->
      match V.Repro.of_string bad with
      | Ok _ -> Alcotest.failf "parsed garbage %S" bad
      | Error _ -> ())
    [
      "";
      "garbage";
      "(repro)";
      "(repro (env wario) (cuts 1))" (* no workload *);
      "(repro (workload arith) (env mario) (cuts 1))" (* bad env *);
      "(repro (workload arith) (env wario) (cuts one))" (* bad cut *);
      "(repro (workload arith) (env wario) (cuts 1)" (* unbalanced *);
    ]

(* ------------------------------------------------------------------ *)
(* The harness end to end                                               *)
(* ------------------------------------------------------------------ *)

(* [iclang verify] runs {!V.Campaign}; these drive one case of it at a
   small budget. *)
let small_config = { V.Campaign.default_config with V.Campaign.budget = 40 }

let test_harness_green_on_healthy () =
  let m = M.find "arith" in
  let report =
    V.Campaign.run_case small_config
      ~workload:(m.M.name, m.M.source)
      ~env:P.Wario
  in
  Alcotest.(check int) "no failures" 0 report.V.Campaign.k_failures_total;
  Alcotest.(check bool) "schedules exercised" true
    (report.V.Campaign.k_schedules >= small_config.V.Campaign.budget)

(* The acceptance-criterion test: a deliberately broken checkpoint
   schedule (the test-only Drop_ckpt hook removes one middle-end
   checkpoint, re-opening a WAR window) must be caught and shrunk to a
   reproducer of at most 3 cut points. *)
let test_sabotaged_build_caught () =
  let m = M.find "byte_ops" in
  let config =
    {
      small_config with
      V.Campaign.opts =
        { P.default_options with P.sabotage = Some (P.Drop_ckpt 1) };
    }
  in
  let report =
    V.Campaign.run_case config ~workload:(m.M.name, m.M.source) ~env:P.Wario
  in
  (match report.V.Campaign.k_failures with
  | [] -> Alcotest.fail "sabotaged build not caught"
  | f :: _ ->
      Alcotest.(check bool) "shrunk to <= 3 cut points" true
        (Array.length f.V.Campaign.k_shrunk <= 3);
      (* the printed reproducer parses back and still reproduces *)
      let line = V.Repro.to_string f.V.Campaign.k_repro in
      (match V.Repro.of_string line with
      | Error e -> Alcotest.failf "reproducer %S does not parse: %s" line e
      | Ok r -> (
          Alcotest.(check bool) "repro carries the sabotage hook" true
            (r.V.Repro.sabotage = Some (P.Drop_ckpt 1));
          match V.Corpus.replay_repro r with
          | Ok () -> Alcotest.failf "replay of %S did not reproduce" line
          | Error _ -> ())));
  (* sanity: same workload without the hook is clean *)
  let healthy =
    V.Campaign.run_case small_config
      ~workload:(m.M.name, m.M.source)
      ~env:P.Wario
  in
  Alcotest.(check int) "healthy build clean" 0
    healthy.V.Campaign.k_failures_total

(* With the WAR verifier silenced, the sabotaged build exhibits the
   underlying physical failure: some single power cut makes replay
   re-execute the clobbered read and the program emits a wrong value.
   This pins down that the oracle is testing a real property, not just
   echoing the verifier. *)
let test_sabotage_diverges_without_verifier () =
  let m = M.find "rmw_loop" in
  let opts = { P.default_options with P.sabotage = Some (P.Drop_ckpt 4) } in
  let c = P.compile ~opts P.Wario m.M.source in
  let cont = E.Emulator.run ~verify:false c.P.image in
  let ref_ = V.Schedule.reference_of_result cont in
  let diverged = ref false in
  Array.iter
    (fun b ->
      List.iter
        (fun d ->
          let cut = b + d in
          if (not !diverged) && cut > 0 then
            let r =
              E.Emulator.run ~verify:false
                ~supply:(E.Power.Schedule [| cut |])
                c.P.image
            in
            if r.E.Emulator.output <> cont.E.Emulator.output then
              diverged := true)
        [ -1; 0; 1 ])
    ref_.V.Schedule.boundaries;
  Alcotest.(check bool)
    "some boundary cut corrupts output once a checkpoint is dropped" true
    !diverged

(* An emulator fault in an injected run is a divergence, not a crash.
   Clearing the lowest r0-r12 bit of every checkpoint's save mask leaves
   the golden run clean (a run without cuts never restores), but a cut
   run restores that register as 0 and its replay faults. *)
let test_fault_is_divergence () =
  let m = M.find "rmw_loop" in
  let c = P.compile P.Wario m.M.source in
  let code = c.P.image.E.Image.code in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Wario_machine.Isa.Ckpt (cause, mask) ->
          let low = mask land 0x1fff in
          code.(pc) <-
            Wario_machine.Isa.Ckpt (cause, mask land lnot (low land -low))
      | _ -> ())
    code;
  let g = V.Oracle.golden c in
  Alcotest.(check (list int32)) "golden output" m.M.expected g.V.Oracle.g_output;
  Alcotest.(check bool) "golden clean" true (V.Oracle.golden_violations g = []);
  let is_fault = function Some (V.Oracle.Fault _) -> true | _ -> false in
  let faults cut =
    cut > 0
    &&
    match V.Oracle.check_schedule g c [| cut |] with
    | Error d -> is_fault (Some d)
    | Ok () -> false
  in
  let ref_ = V.Schedule.reference_of_result g.V.Oracle.g_result in
  Alcotest.(check bool) "a cut run faults: oracle" true
    (Array.exists
       (fun b -> faults (b - 1) || faults b || faults (b + 1))
       ref_.V.Schedule.boundaries);
  Alcotest.(check bool) "a cut run faults: adversary probe" true
    (List.exists
       (fun w -> is_fault w.V.Adversary.a_divergence)
       (V.Adversary.search g c))

let suite =
  [
    Alcotest.test_case "prng: reproducible and splittable" `Quick
      test_prng_reproducible;
    Alcotest.test_case "schedules: reproducible from seed" `Quick
      test_schedules_reproducible;
    Alcotest.test_case "stepping = whole-run" `Quick test_stepping_matches_run;
    Alcotest.test_case "clone: independent snapshot" `Quick
      test_clone_is_independent;
    Alcotest.test_case "cut_power: forced reboot is safe" `Quick
      test_cut_power;
    Alcotest.test_case "schedule supply: cuts where asked" `Quick
      test_schedule_supply;
    Alcotest.test_case "oracle: green on healthy builds" `Slow
      test_oracle_green_on_healthy;
    Alcotest.test_case "oracle: double-emission detector" `Quick
      test_double_emission_detector;
    Alcotest.test_case "ddmin: minimal cut sets" `Quick test_ddmin_minimises;
    Alcotest.test_case "repro: round-trip and rejects" `Quick
      test_repro_roundtrip;
    Alcotest.test_case "harness: healthy case is green" `Quick
      test_harness_green_on_healthy;
    Alcotest.test_case "harness: sabotaged build caught and shrunk" `Quick
      test_sabotaged_build_caught;
    Alcotest.test_case "oracle: emulator fault is a divergence" `Quick
      test_fault_is_divergence;
    Alcotest.test_case "sabotage: physical divergence sans verifier" `Slow
      test_sabotage_diverges_without_verifier;
  ]

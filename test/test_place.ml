(* Tests for cost-guided checkpoint placement: the profile round trip
   (pilot -> weights -> recompile), its failure modes (empty / stale
   profiles fall back to the static model instead of crashing), the
   measured guard (`Pgo.compile` never ships a binary executing more
   checkpoints than the greedy baseline on the pilot input), and the
   certifier-validated elision pass. *)

module P = Wario.Pipeline
module E = Wario_emulator
module A = Wario_analysis
module T = Wario_transforms.Checkpoint_inserter
module S = Wario_obs.Span

let micro name = (Wario_workloads.Micro.find name).Wario_workloads.Micro.source

let bench name =
  (Wario_workloads.Programs.find name).Wario_workloads.Programs.source

let dyn image =
  (E.Emulator.run ~verify:false image).E.Emulator.checkpoints_total

(* -- label mangling ------------------------------------------------- *)

let test_mangle_agrees_with_isel () =
  Alcotest.(check string)
    "mangle scheme" "f$entry"
    (A.Costmodel.mangle "f" "entry");
  Alcotest.(check string)
    "agrees with Isel.mangle"
    (Wario_backend.Isel.mangle "f" "entry")
    (A.Costmodel.mangle "f" "entry");
  (* the pilot's per-block counts are keyed by the back end's mangled
     labels; if the schemes diverged, validation would report staleness *)
  let _, mprog, c = P.lower P.Wario (micro "rmw_loop") in
  let pilot = Wario.Pgo.collect c.P.image in
  let expected =
    List.concat_map
      (fun (mf : Wario_machine.Isa.mfunc) ->
        List.map
          (fun (b : Wario_machine.Isa.mblock) -> b.Wario_machine.Isa.mlabel)
          mf.Wario_machine.Isa.mblocks)
      mprog.Wario_machine.Isa.mfuncs
  in
  match
    A.Costmodel.validate_profile pilot.Wario.Pgo.profile
      ~expected_labels:expected
  with
  | Ok matched ->
      Alcotest.(check bool) "some labels matched" true (matched > 0)
  | Error e -> Alcotest.failf "pilot profile stale against own labels: %s" e

(* -- profile round trip --------------------------------------------- *)

let test_profile_applied () =
  let src = micro "sort" in
  let c = P.compile P.Wario src in
  let pilot = Wario.Pgo.collect c.P.image in
  let c2 =
    P.compile
      ~opts:{ P.default_options with P.block_profile = Some pilot.Wario.Pgo.profile }
      P.Wario src
  in
  (match c2.P.middle.P.profile_status with
  | P.Applied n -> Alcotest.(check bool) "labels matched" true (n > 0)
  | P.No_profile -> Alcotest.fail "profile ignored"
  | P.Fell_back r -> Alcotest.failf "profile rejected: %s" r);
  (* same program, same outputs *)
  let r1 = E.Emulator.run c.P.image and r2 = E.Emulator.run c2.P.image in
  Alcotest.(check (list int32)) "outputs agree" r1.E.Emulator.output
    r2.E.Emulator.output

let test_pgo_deterministic () =
  let src = micro "sort" in
  let one () = Wario.Pgo.compile_candidates P.Wario src in
  let a = one () and b = one () in
  Alcotest.(check bool)
    "pilot profiles equal" true
    (a.Wario.Pgo.pilot.Wario.Pgo.profile = b.Wario.Pgo.pilot.Wario.Pgo.profile);
  Alcotest.(check bool)
    "measured guard picks the same variant" true
    (a.Wario.Pgo.pilot.Wario.Pgo.selected = b.Wario.Pgo.pilot.Wario.Pgo.selected);
  Alcotest.(check bool)
    "selected images identical" true
    ((Wario.Pgo.compiled_of a a.Wario.Pgo.pilot.Wario.Pgo.selected).P.image
       .E.Image.code
    = (Wario.Pgo.compiled_of b b.Wario.Pgo.pilot.Wario.Pgo.selected).P.image
        .E.Image.code)

let test_empty_profile_falls_back () =
  let c =
    P.compile
      ~opts:{ P.default_options with P.block_profile = Some [] }
      P.Wario (micro "rmw_loop")
  in
  match c.P.middle.P.profile_status with
  | P.Fell_back _ -> ()
  | P.Applied n -> Alcotest.failf "empty profile applied (%d labels?)" n
  | P.No_profile -> Alcotest.fail "empty profile silently dropped"

let test_stale_profile_falls_back () =
  (* a pilot of a different program: labels cannot match *)
  let other = P.compile P.Wario (micro "byte_ops") in
  let stale = (Wario.Pgo.collect other.P.image).Wario.Pgo.profile in
  let c =
    P.compile
      ~opts:{ P.default_options with P.block_profile = Some stale }
      P.Wario (micro "sort")
  in
  (match c.P.middle.P.profile_status with
  | P.Fell_back _ -> ()
  | P.Applied n -> Alcotest.failf "stale profile applied (%d labels)" n
  | P.No_profile -> Alcotest.fail "stale profile silently dropped");
  (* the fallback is the static model: same placement as no profile *)
  let plain = P.compile P.Wario (micro "sort") in
  Alcotest.(check bool)
    "fell back to the static placement" true
    (c.P.image.E.Image.code = plain.P.image.E.Image.code)

(* -- measured guard ------------------------------------------------- *)

let test_guard_never_worse_than_greedy () =
  List.iter
    (fun name ->
      let src = micro name in
      let greedy =
        P.compile ~opts:{ P.default_options with P.placement = T.Greedy }
          P.Wario src
      in
      let best, pilot = Wario.Pgo.compile P.Wario src in
      Alcotest.(check bool)
        (name ^ ": guard measured every candidate")
        true
        (List.length pilot.Wario.Pgo.measured = 4);
      Alcotest.(check bool)
        (name ^ ": selected never executes more checkpoints than greedy")
        true
        (dyn best.P.image <= dyn greedy.P.image))
    [ "rmw_loop"; "sort"; "byte_ops" ]

(* -- certifier-validated elision ------------------------------------ *)

let test_elision_certified_and_no_worse () =
  let src = bench "sha" in
  let base = P.compile P.Wario src in
  let elided = P.compile ~opts:{ P.default_options with P.elide = true } P.Wario src in
  let stats =
    match elided.P.elision with
    | Some s -> s
    | None -> Alcotest.fail "elide=true produced no elision stats"
  in
  Alcotest.(check bool) "tried every candidate it counted" true
    (stats.Wario.Elide.tried >= stats.Wario.Elide.elided);
  (* the pass only ever removes checkpoints *)
  Alcotest.(check bool) "never adds checkpoints" true
    (dyn elided.P.image <= dyn base.P.image);
  (* and the result still certifies and computes the same thing *)
  (match P.certify elided with
  | Wario_certify.Certify.Certified _ -> ()
  | Wario_certify.Certify.Rejected _ ->
      Alcotest.fail "elided image rejected by the certifier");
  let r1 = E.Emulator.run base.P.image
  and r2 = E.Emulator.run elided.P.image in
  Alcotest.(check (list int32)) "outputs agree" r1.E.Emulator.output
    r2.E.Emulator.output;
  Alcotest.(check int32) "exit codes agree" r1.E.Emulator.exit_code
    r2.E.Emulator.exit_code;
  (* survives intermittent power too *)
  let r3 =
    E.Emulator.run ~supply:(E.Power.Periodic 100_000) elided.P.image
  in
  Alcotest.(check (list int32)) "intermittent output agrees"
    r1.E.Emulator.output r3.E.Emulator.output

let test_elide_off_by_default () =
  let c = P.compile P.Wario (micro "rmw_loop") in
  Alcotest.(check bool) "no elision stats without elide" true
    (c.P.elision = None)

(* -- interprocedural policy ----------------------------------------- *)

let inter_opts =
  {
    P.default_options with
    P.placement = T.Interprocedural;
    elide = true;
    motion = true;
  }

let test_inter_certified_same_results () =
  let src = bench "sha" in
  let base = P.compile P.Wario src in
  let c = P.compile ~opts:inter_opts P.Wario src in
  (match P.certify c with
  | Wario_certify.Certify.Certified _ -> ()
  | Wario_certify.Certify.Rejected _ ->
      Alcotest.fail "interprocedural build rejected by the certifier");
  let r1 = E.Emulator.run base.P.image and r2 = E.Emulator.run c.P.image in
  Alcotest.(check (list int32)) "outputs agree" r1.E.Emulator.output
    r2.E.Emulator.output;
  Alcotest.(check int32) "exit codes agree" r1.E.Emulator.exit_code
    r2.E.Emulator.exit_code;
  (* survives intermittent power: elided brackets and moved checkpoints
     must still give a crash-consistent image *)
  let r3 = E.Emulator.run ~supply:(E.Power.Periodic 100_000) c.P.image in
  Alcotest.(check (list int32)) "intermittent output agrees"
    r1.E.Emulator.output r3.E.Emulator.output;
  Alcotest.(check bool) "never executes more checkpoints" true
    (dyn c.P.image <= dyn base.P.image)

let test_inter_decisions_carry_verdicts () =
  let c = P.compile ~opts:inter_opts P.Wario (bench "crc") in
  (* every proposed motion move carries the certifier's verdict, and
     applied <=> certified *)
  (match c.P.motion with
  | None -> Alcotest.fail "motion=true produced no motion stats"
  | Some m ->
      List.iter
        (fun (mv : Wario.Motion.move) ->
          Alcotest.(check bool) "move has a verdict" true
            (String.length mv.Wario.Motion.mv_verdict > 0);
          Alcotest.(check bool) "applied iff certified" true
            (mv.Wario.Motion.mv_applied
            = (mv.Wario.Motion.mv_verdict = "certified")))
        m.Wario.Motion.moves);
  (* bracket elisions were audited (and only ever removed) *)
  (match c.P.elision with
  | None -> Alcotest.fail "elide=true produced no elision stats"
  | Some e ->
      Alcotest.(check bool) "brackets audited" true
        (e.Wario.Elide.boundary_tried > 0);
      Alcotest.(check bool) "kept at most what it tried" true
        (e.Wario.Elide.boundary_elided <= e.Wario.Elide.boundary_tried));
  (* the --explain payload: per-checkpoint rationale and call-graph
     frequencies are populated under the interprocedural policy *)
  Alcotest.(check bool) "placement rationale non-empty" true
    (c.P.middle.P.placements <> []);
  List.iter
    (fun (p : T.placement_info) ->
      Alcotest.(check bool) "placement weight positive" true
        (p.T.pi_weight > 0.))
    c.P.middle.P.placements;
  Alcotest.(check bool) "function frequencies present" true
    (c.P.middle.P.func_freqs <> [])

(* Motion certifies only its anchored image: a rejected input must
   surface there and stand down with every block as it came in. *)
let test_motion_stands_down_on_rejected () =
  let weights l = float_of_int (Hashtbl.hash l mod 97) in
  (* the same weights do propose moves on the healthy build, so the
     sabotaged run below reaches anchor planting rather than an empty
     proposal list *)
  let _, healthy, _ = P.lower P.Wario (bench "crc") in
  Alcotest.(check bool) "healthy build gets proposals" true
    ((Wario.Motion.run ~weights healthy).Wario.Motion.proposed > 0);
  let _, mprog, c =
    P.lower
      ~opts:{ P.default_options with P.sabotage = Some (P.Drop_ckpt 0) }
      P.Wario (bench "crc")
  in
  (match P.certify c with
  | Wario_certify.Certify.Rejected _ -> ()
  | Wario_certify.Certify.Certified _ ->
      Alcotest.fail "sabotaged build certified");
  let snapshot () =
    List.concat_map
      (fun (mf : Wario_machine.Isa.mfunc) ->
        List.map
          (fun (b : Wario_machine.Isa.mblock) ->
            (b.Wario_machine.Isa.mlabel, b.Wario_machine.Isa.mcode))
          mf.Wario_machine.Isa.mblocks)
      mprog.Wario_machine.Isa.mfuncs
  in
  let before = snapshot () in
  let s = Wario.Motion.run ~weights mprog in
  Alcotest.(check bool) "result is Motion.zero" true (s = Wario.Motion.zero);
  Alcotest.(check bool) "every block's mcode unchanged" true
    (snapshot () = before)

(* -- trial auditions ------------------------------------------------- *)

(* crc's second audition pass re-hears three candidates against an
   accepted set unchanged since the first: the memo answers them without
   compiling.  The shipped result is the measured BENCH_6 figure. *)
let test_trial_memo () =
  let spans = S.create () in
  let c =
    P.compile ~opts:inter_opts ~spans ~cache:Wario.Cache.disabled P.Wario
      (bench "crc")
  in
  let rec find (sp : S.span) =
    if sp.S.sp_name = "middle.expander_trials" then Some sp
    else List.find_map find sp.S.sp_children
  in
  let trials =
    match List.find_map find (S.roots spans) with
    | Some sp -> sp
    | None -> Alcotest.fail "no middle.expander_trials span"
  in
  let counter k =
    match List.assoc_opt k trials.S.sp_counters with
    | Some n -> n
    | None -> Alcotest.failf "no %s counter" k
  in
  let auditions = counter "auditions" and compiles = counter "compiles" in
  Alcotest.(check bool) "fewer compiles than auditions" true
    (compiles < auditions);
  Alcotest.(check bool) "at least three auditions reused" true
    (auditions - compiles >= 3);
  Alcotest.(check int) "one inline accepted" 1 (counter "inlined");
  Alcotest.(check int) "continuous-power dynamic checkpoints" 28171
    (dyn c.P.image)

let suite =
  [
    Alcotest.test_case "mangle agrees with isel" `Quick
      test_mangle_agrees_with_isel;
    Alcotest.test_case "profile round trip: applied" `Quick
      test_profile_applied;
    Alcotest.test_case "pgo: deterministic" `Slow test_pgo_deterministic;
    Alcotest.test_case "empty profile falls back" `Quick
      test_empty_profile_falls_back;
    Alcotest.test_case "stale profile falls back" `Quick
      test_stale_profile_falls_back;
    Alcotest.test_case "measured guard: never worse than greedy" `Slow
      test_guard_never_worse_than_greedy;
    Alcotest.test_case "elision: certified, no worse, same results" `Slow
      test_elision_certified_and_no_worse;
    Alcotest.test_case "elision: off by default" `Quick
      test_elide_off_by_default;
    Alcotest.test_case "inter: certified, same results, never worse" `Slow
      test_inter_certified_same_results;
    Alcotest.test_case "inter: decisions carry certifier verdicts" `Slow
      test_inter_decisions_carry_verdicts;
    Alcotest.test_case "motion: stands down on a rejected image" `Quick
      test_motion_stands_down_on_rejected;
    Alcotest.test_case "trials: repeated auditions reuse the compile" `Slow
      test_trial_memo;
  ]

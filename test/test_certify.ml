(* Tests for the static idempotence certifier (lib/certify).

   Acceptance: every benchmark certifies in every instrumented environment,
   and the [Drop_ckpt] sabotage hook yields a rejection whose path
   witness names the unprotected load/store pair.  A qcheck property checks
   the certifier agrees with the dynamic WAR verifier on random programs. *)

module P = Wario.Pipeline
module E = Wario_emulator
module C = Wario_certify.Certify
module W = Wario_workloads

let envs = P.instrumented_environments

(* Every benchmark × instrumented environment, lowered once, with its
   final IR; then certified once.  Shared by the tests below that judge
   them. *)
let benchmark_lowered =
  lazy
    (List.concat_map
       (fun (b : W.Programs.benchmark) ->
         List.map
           (fun env ->
             let ir, _, c = P.lower env b.W.Programs.source in
             ( Printf.sprintf "%s × %s" b.W.Programs.name
                 (P.environment_name env),
               ir,
               c ))
           envs)
       W.Programs.all)

let benchmark_builds =
  lazy
    (List.map
       (fun (what, _, c) -> (what, c, P.certify c))
       (Lazy.force benchmark_lowered))

(* crc, sha and dijkstra under interprocedural placement with elision
   and motion, as [iclang pgo]'s cost-guided variant builds them. *)
let inter_images =
  lazy
    (let opts =
       {
         P.default_options with
         P.placement = Wario_transforms.Checkpoint_inserter.Interprocedural;
         elide = true;
         motion = true;
       }
     in
     List.map
       (fun (b : W.Programs.benchmark) ->
         ( b.W.Programs.name ^ " × wario inter+elide+motion",
           (P.compile ~opts P.Wario b.W.Programs.source).P.image ))
       W.Programs.[ crc; sha; dijkstra ])

let test_benchmarks_certified () =
  List.iter
    (fun (what, c, v) ->
      match v with
      | C.Certified st ->
          Alcotest.(check bool) (what ^ ": pairs judged") true
            (st.C.s_pairs >= 0)
      | C.Rejected _ as v ->
          Alcotest.failf "%s rejected:\n%s" what (P.certify_report c v))
    (Lazy.force benchmark_builds)

let test_micros_certified_wario () =
  List.iter
    (fun (m : W.Micro.t) ->
      let c = P.compile P.Wario m.W.Micro.source in
      match P.certify c with
      | C.Certified _ -> ()
      | C.Rejected _ as v ->
          Alcotest.failf "%s × wario rejected:\n%s" m.W.Micro.name
            (P.certify_report c v))
    W.Micro.tiny

(* The negative test the sabotage hook exists for: deleting a middle-end
   checkpoint from crc reopens the WAR it covered, and the certifier must
   name the unprotected load/store pair with a barrier-free pc path. *)
let test_sabotaged_rejected () =
  let opts = { P.default_options with P.sabotage = Some (P.Drop_ckpt 0) } in
  let c = P.compile ~opts P.Wario W.Programs.crc.W.Programs.source in
  match P.certify c with
  | C.Certified _ -> Alcotest.fail "sabotaged build certified"
  | C.Rejected (reasons, _) as v -> (
      let witnesses =
        List.filter_map
          (function C.War_pair w -> Some w | C.Obligation_failed _ -> None)
          reasons
      in
      match witnesses with
      | [] -> Alcotest.fail "rejected without a WAR pair witness"
      | w :: _ ->
          Alcotest.(check bool) "path is non-empty" true (w.C.w_path <> []);
          Alcotest.(check int) "path starts at the load" w.C.w_load_pc
            (List.hd w.C.w_path);
          Alcotest.(check int) "path ends at the store" w.C.w_store_pc
            (List.nth w.C.w_path (List.length w.C.w_path - 1));
          Alcotest.(check bool) "witness names both functions" true
            (w.C.w_load_func <> "" && w.C.w_store_func <> "");
          (* the rendered report must carry the witness to the user *)
          let report = P.certify_report c v in
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            nn > 0 && go 0
          in
          Alcotest.(check bool) "report names the load's function" true
            (contains report w.C.w_load_func))

(* A session's whole verdict is [certify]'s, structurally: same stats,
   same rule census, same rejection list in the same order.  Elision and
   motion branch on [Session.verdict] instead of calling [certify], so
   this pins them to the oracle on every built-in benchmark and
   instrumented environment, on a sabotaged (rejected) build, and on an
   image edited in place the way elision edits it. *)
let test_session_verdict_is_certify () =
  let same what img expected =
    let ses = C.Session.create img in
    Alcotest.(check bool) (what ^ ": Session.verdict = certify") true
      (C.Session.verdict ses = expected);
    ses
  in
  List.iter
    (fun (what, c, v) -> ignore (same what c.P.image v))
    (Lazy.force benchmark_builds);
  (* the images elision and motion leave behind, which every expander
     audition and pgo candidate certifies *)
  List.iter
    (fun (what, img) -> ignore (same what img (C.certify img)))
    (Lazy.force inter_images);
  let sabotaged =
    (P.compile
       ~opts:{ P.default_options with P.sabotage = Some (P.Drop_ckpt 0) }
       P.Wario W.Programs.crc.W.Programs.source)
      .P.image
  in
  let v = C.certify sabotaged in
  (match v with
  | C.Rejected (_ :: _, _) -> ()
  | _ -> Alcotest.fail "sabotaged build not rejected");
  ignore (same "crc sabotaged" sabotaged v);
  (* after a Ckpt -> [Mov r0, r0] substitution the cached states stay
     exact, so the session still judges the image as it now stands *)
  let img = (P.compile P.Wario W.Programs.crc.W.Programs.source).P.image in
  let ses = same "crc" img (C.certify img) in
  let pc =
    match
      List.find_opt
        (fun pc ->
          match img.E.Image.code.(pc) with
          | Wario_machine.Isa.Ckpt (Wario_machine.Isa.Middle_end_war, _) ->
              true
          | _ -> false)
        (List.init (E.Image.instr_count img) Fun.id)
    with
    | Some pc -> pc
    | None -> Alcotest.fail "crc has no middle-end checkpoint"
  in
  img.E.Image.code.(pc) <- Wario_machine.Isa.Mov (0, Wario_machine.Isa.R 0);
  Alcotest.(check bool) "edited: Session.verdict = certify" true
    (C.Session.verdict ses = C.certify img)

(* The certifier's fixpoint is a fixpoint: no state changes under one more
   transfer+join, on every benchmark build, the elided and moved images
   and random programs.  Catches a schedule that stops before a back edge
   has been propagated. *)
let test_fixpoint_stable () =
  let stable what img =
    match C.first_unstable_pc img with
    | None -> ()
    | Some pc -> Alcotest.failf "%s: state at pc %d is not a fixpoint" what pc
  in
  List.iter
    (fun (what, c, _) -> stable what c.P.image)
    (Lazy.force benchmark_builds);
  List.iter (fun (what, img) -> stable what img) (Lazy.force inter_images)

let prop_fixpoint_stable =
  QCheck.Test.make ~name:"random programs: certifier fixpoint is stable"
    ~count:6 Test_props.arbitrary_program (fun src ->
      List.for_all
        (fun env ->
          match C.first_unstable_pc (P.compile env src).P.image with
          | None -> true
          | Some pc ->
              QCheck.Test.fail_reportf "unstable state at pc %d [%s]" pc
                (P.environment_name env))
        envs)

(* Certifier vs dynamic WAR verifier on random MiniC programs, across all
   instrumented environments and with the sabotage hook armed:

   - a healthy instrumented build must certify (the domain re-proves every
     disjointness fact the middle end used);
   - a certificate is sound: the dynamic verifier must stay silent on a
     certified image (healthy or sabotaged — dropping a checkpoint can be a
     no-op or covered elsewhere, in which case certifying it is correct). *)
let prop_certifier_agrees_with_dynamic =
  QCheck.Test.make
    ~name:"random programs: certifier agrees with dynamic WAR verifier"
    ~count:6 Test_props.arbitrary_program
    (fun src ->
      List.for_all
        (fun env ->
          List.for_all
            (fun drop ->
              let opts =
                {
                  P.default_options with
                  P.sabotage = Option.map (fun n -> P.Drop_ckpt n) drop;
                }
              in
              let c = P.compile ~opts env src in
              let r = E.Emulator.run ~verify:true c.P.image in
              let dynamic_clean = r.E.Emulator.violations = [] in
              match P.certify c with
              | C.Certified _ ->
                  dynamic_clean
                  || QCheck.Test.fail_reportf
                       "certified but %d dynamic violation(s) [%s drop=%s]"
                       (List.length r.E.Emulator.violations)
                       (P.environment_name env)
                       (match drop with
                       | None -> "-"
                       | Some k -> string_of_int k)
              | C.Rejected _ as v ->
                  if drop = None then
                    QCheck.Test.fail_reportf
                      "healthy build rejected [%s]:\n%s"
                      (P.environment_name env) (P.certify_report c v)
                  else true (* sabotage rejection: expected *))
            (if env = P.Wario then [ None; Some 0 ] else [ None ]))
        envs)

let suite =
  [
    Alcotest.test_case "benchmarks: all instrumented envs certified" `Slow
      test_benchmarks_certified;
    Alcotest.test_case "micros: wario certified" `Quick
      test_micros_certified_wario;
    Alcotest.test_case "sabotage: drop-ckpt rejected with witness" `Quick
      test_sabotaged_rejected;
    Alcotest.test_case "session: verdict equals certify" `Slow
      test_session_verdict_is_certify;
    Alcotest.test_case "fixpoint: every state stable" `Slow
      test_fixpoint_stable;
  ]
  @ List.map Test_props.to_alcotest
      [ prop_certifier_agrees_with_dynamic; prop_fixpoint_stable ]

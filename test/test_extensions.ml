(* Tests for the extensions beyond the paper's evaluated system (its §6
   discussion items): the region bounder (location-specific checkpoints)
   and the profile-guided Expander. *)

module P = Wario.Pipeline
module E = Wario_emulator
module T = Wario_transforms
module Report = Wario.Report

let bounded_opts n = { P.default_options with max_region = Some n }

let test_region_bounder_shrinks_max () =
  let m = Wario_workloads.Micro.find "sort" in
  let plain_out =
    (E.Emulator.run (P.compile P.Plain m.source).P.image).E.Emulator.output
  in
  let unbounded = P.compile P.Wario m.source in
  let ru = E.Emulator.run unbounded.P.image in
  let bounded = P.compile ~opts:(bounded_opts 120) P.Wario m.source in
  let rb = E.Emulator.run bounded.P.image in
  let mx r =
    (Report.summarize_regions r.E.Emulator.region_sizes).Report.rs_max
  in
  Alcotest.(check (list int32)) "bounded output" plain_out rb.E.Emulator.output;
  Alcotest.(check int) "bounded violations" 0 (List.length rb.E.Emulator.violations);
  Alcotest.(check bool)
    (Printf.sprintf "max region shrinks (%d < %d)" (mx rb) (mx ru))
    true
    (mx rb < mx ru);
  Alcotest.(check bool) "more checkpoints, as expected" true
    (rb.E.Emulator.checkpoints_total > ru.E.Emulator.checkpoints_total)

let test_region_bounder_enables_tiny_power () =
  (* with a tight bound, on-periods that starve the unbounded build work *)
  let m = Wario_workloads.Micro.find "sort" in
  let bounded = P.compile ~opts:(bounded_opts 100) P.Wario m.source in
  let cont = E.Emulator.run bounded.P.image in
  let budget =
    400 + 64
    + (Report.summarize_regions cont.E.Emulator.region_sizes).Report.rs_max
    + 60
  in
  let r = E.Emulator.run ~supply:(E.Power.Periodic budget) bounded.P.image in
  Alcotest.(check (list int32)) "finishes under tiny power"
    cont.E.Emulator.output r.E.Emulator.output;
  Alcotest.(check bool) "power failures occurred" true
    (r.E.Emulator.power_failures > 0)

let test_region_bounder_rejects_tiny_bound () =
  let prog = Wario_minic.Minic.compile "int main(void){ return 0; }" in
  Alcotest.check_raises "bound too small"
    (Invalid_argument "Region_bounder.run: bound too small") (fun () ->
      ignore (T.Region_bounder.run ~max_instrs:2 prog))

(* The one range check every entry point applies, and the CLI's usage
   error for the values it rejects. *)
let test_check_options () =
  let d = P.default_options and min = T.Region_bounder.min_bound in
  let check what want opts =
    Alcotest.(check (result unit string)) what want (P.check_options opts)
  in
  check "defaults" (Ok ()) d;
  check "unroll 1, max-region at the minimum" (Ok ())
    { d with P.unroll_factor = 1; max_region = Some min };
  check "unroll 0" (Error "unroll must be >= 1") { d with P.unroll_factor = 0 };
  check "max-region below the minimum"
    (Error (Printf.sprintf "max_region must be >= %d" min))
    { d with P.max_region = Some (min - 1) };
  let exe = Filename.concat (Filename.concat ".." "bin") "iclang.exe" in
  List.iter
    (fun (flag, value, msg) ->
      let err = Filename.temp_file "iclang" ".err" in
      let code =
        Sys.command
          (Filename.quote_command exe ~stdout:Filename.null ~stderr:err
             [ "compile"; "-b"; "sha"; flag; value ])
      in
      let text = In_channel.with_open_bin err In_channel.input_all in
      Sys.remove err;
      Alcotest.(check int) (flag ^ ": usage error") 124 code;
      Alcotest.(check bool) (flag ^ ": says why") true
        (List.mem ("iclang: " ^ msg) (String.split_on_char '\n' text)))
    [
      ("--unroll", "0", "unroll must be >= 1");
      ("--max-region", "2", "max_region must be >= 4");
    ]

let test_region_bounder_loop_without_barrier () =
  (* a long checkpoint-free loop must get a barrier inside the cycle *)
  let src =
    {|int main(void){
        int i; int acc = 0;
        for (i = 0; i < 10000; i++) acc = acc + (i ^ (acc >> 3));
        print_int(acc);
        return 0; }|}
  in
  let bounded = P.compile ~opts:(bounded_opts 64) P.Wario src in
  let plain = P.compile P.Plain src in
  let rb = E.Emulator.run bounded.P.image in
  let rp = E.Emulator.run plain.P.image in
  Alcotest.(check (list int32)) "output" rp.E.Emulator.output rb.E.Emulator.output;
  (* the register-only loop has no WARs: without the bounder, WARio places
     no checkpoint inside; with it, the loop checkpoints regularly *)
  Alcotest.(check bool) "many checkpoints in the loop" true
    (rb.E.Emulator.checkpoints_total > 1000);
  let s = Report.summarize_regions rb.E.Emulator.region_sizes in
  Alcotest.(check bool)
    (Printf.sprintf "max region respects the bound order (%d)" s.Report.rs_max)
    true
    (s.Report.rs_max < 64 * 4)

let test_profile_guided_expander () =
  (* mc_getc in the CRC benchmark is call-bound but has no pointer
     parameters, so the structural Expander ignores it; a profile finds it *)
  let b = Wario_workloads.Programs.find "crc" in
  let baseline = P.compile P.Wario_expander b.source in
  let rb = E.Emulator.run baseline.P.image in
  let profile = rb.E.Emulator.call_counts in
  Alcotest.(check bool) "profile sees hot functions" true
    (List.exists (fun (_, n) -> n > 1000) profile);
  let opts = { P.default_options with expander_profile = Some profile } in
  let guided = P.compile ~opts P.Wario_expander b.source in
  let rg = E.Emulator.run guided.P.image in
  Alcotest.(check (list int32)) "same output" rb.E.Emulator.output
    rg.E.Emulator.output;
  Alcotest.(check int) "no violations" 0 (List.length rg.E.Emulator.violations);
  (* inlining the hot call-bound functions removes boundary checkpoints *)
  let boundary (r : E.Emulator.result) =
    r.E.Emulator.checkpoints.E.Emulator.c_entry
    + r.E.Emulator.checkpoints.E.Emulator.c_exit
  in
  Alcotest.(check bool)
    (Printf.sprintf "fewer boundary checkpoints (%d < %d)" (boundary rg)
       (boundary rb))
    true
    (boundary rg < boundary rb)

let test_profile_mode_requires_hot () =
  (* a cold profile inlines nothing *)
  let src =
    {|int helper(int x) { return x * 3 + 1; }
      int main(void){ int i; int s = 0;
        for (i = 0; i < 50; i++) s = s + i;
        s = s + helper(s);
        print_int(s); return 0; }|}
  in
  let prog = Wario_minic.Minic.compile src in
  let st = T.Expander.run ~profile:[ ("helper", 1) ] prog in
  Alcotest.(check int) "cold function not a candidate" 0 st.candidates

let test_call_counts () =
  let m = Wario_workloads.Micro.find "fib" in
  let c = P.compile P.Plain m.source in
  let r = E.Emulator.run c.P.image in
  (* fib(20) makes fib(19)+fib(18) calls... total calls = 2*fib(21)-1 - but
     through memo-free recursion the count of calls to fib is
     2*fib(21)/... simply: calls(n) = 1 + calls(n-1) + calls(n-2) with
     calls(0)=calls(1)=1 => 21891 calls for n=20 (including the root) *)
  match List.assoc_opt "fib" r.E.Emulator.call_counts with
  | Some n -> Alcotest.(check int) "fib call count" 21891 n
  | None -> Alcotest.fail "no call count for fib"

let suite =
  [
    Alcotest.test_case "region bounder: shrinks max region" `Quick
      test_region_bounder_shrinks_max;
    Alcotest.test_case "region bounder: tiny power works" `Quick
      test_region_bounder_enables_tiny_power;
    Alcotest.test_case "region bounder: rejects tiny bound" `Quick
      test_region_bounder_rejects_tiny_bound;
    Alcotest.test_case "options: one range check, CLI usage errors" `Quick
      test_check_options;
    Alcotest.test_case "region bounder: barrier in every cycle" `Quick
      test_region_bounder_loop_without_barrier;
    Alcotest.test_case "expander: profile-guided" `Slow test_profile_guided_expander;
    Alcotest.test_case "expander: cold profile inlines nothing" `Quick
      test_profile_mode_requires_hot;
    Alcotest.test_case "emulator: call-count profile" `Quick test_call_counts;
  ]

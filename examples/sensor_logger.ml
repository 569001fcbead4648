(* A battery-free sensor logger running off synthetic harvested energy.

     dune exec examples/sensor_logger.exe

   The motivating scenario of the paper's introduction: a sensing loop on a
   device powered by an energy harvester.  We compile the moving-average
   filter from the workload library for every software environment and
   replay the synthetic RF-harvester trace, comparing how much of the energy
   each environment wastes on checkpoints and re-execution. *)

module P = Wario.Pipeline
module E = Wario_emulator

let () =
  let m = Wario_workloads.Micro.find "sensor" in
  print_endline "== sensor logger on an RF energy harvester ==\n";
  let trace = E.Traces.rf_trace ~n:2048 () in
  Printf.printf
    "trace: %d on-periods, mean %d cycles (bursty RF harvesting)\n\n"
    (Array.length trace) (E.Traces.mean trace);

  (* baseline cost under continuous power *)
  let plain_cycles =
    (E.Emulator.run (P.compile P.Plain m.source).P.image).E.Emulator.cycles
  in

  Printf.printf "%-22s %10s %8s %9s %10s %9s\n" "environment" "cycles"
    "ckpts" "failures" "overhead" "output ok";
  List.iter
    (fun env ->
      let c = P.compile env m.source in
      let o = E.Emulator.run ~supply:(E.Power.Trace trace) c.P.image in
      (* a violating run: the certifier's path witnesses say which WAR *)
      if o.E.Emulator.violations <> [] then begin
        Printf.printf "%d WAR violation(s) under %s\n%s"
          (List.length o.E.Emulator.violations)
          (P.environment_name env)
          (P.certify_report c (P.certify c));
        exit 1
      end;
      Printf.printf "%-22s %10d %8d %9d %9.1f%% %9b\n"
        (P.environment_name env) o.E.Emulator.cycles
        o.E.Emulator.checkpoints_total o.E.Emulator.power_failures
        (100.
        *. float_of_int (o.E.Emulator.cycles - plain_cycles)
        /. float_of_int plain_cycles)
        (o.E.Emulator.output = m.expected))
    [ P.Ratchet; P.R_pdg; P.Wario; P.Wario_expander ];

  print_endline
    "\nEvery environment computes the same history checksum across dozens\n\
     of power failures; WARio just gets there on less energy.";

  (* show the forward-progress guarantee: even very short on-times work *)
  print_endline "\n-- forward progress at short activity times --";
  let c = P.compile P.Wario m.source in
  List.iter
    (fun on ->
      match E.Emulator.run ~supply:(E.Power.Periodic on) c.P.image with
      | o ->
          Printf.printf
            "  on-period %6d cycles: finished after %4d power failures\n" on
            o.E.Emulator.power_failures
      | exception E.Emulator.No_forward_progress _ ->
          Printf.printf "  on-period %6d cycles: no forward progress\n" on)
    [ 2500; 12_000; 20_000; 50_000; 100_000 ]

(* Explore how power-supply conditions interact with checkpoint placement.

     dune exec examples/trace_explorer.exe

   Reproduces the methodology of the paper's Table 3 interactively on one
   benchmark: sweep fixed on-periods and the two synthetic harvester traces,
   and report re-execution overhead and failure counts, plus the
   idempotent-region statistics that bound the minimum usable on-time. *)

module P = Wario.Pipeline
module E = Wario_emulator
module Report = Wario.Report

let () =
  let bench = Wario_workloads.Programs.find "sha" in
  Printf.printf "== power exploration: %s ==\n\n" bench.name;
  let c = P.compile P.Wario_expander bench.source in
  let cont = E.Emulator.run c.P.image in
  Printf.printf "continuous: %d cycles, %d checkpoints\n\n"
    cont.E.Emulator.cycles cont.E.Emulator.checkpoints_total;

  (* region statistics determine the minimum viable on-period *)
  let s = Report.summarize_regions cont.E.Emulator.region_sizes in
  Printf.printf
    "idempotent regions: p25=%d median=%d p75=%d mean=%.0f max=%d cycles\n"
    s.rs_p25 s.rs_median s.rs_p75 s.rs_mean s.rs_max;
  Printf.printf
    "=> any on-period above ~%d cycles (max region + boot + restore)\n\
    \   guarantees forward progress; that is %.1f ms at 8 MHz.\n\n"
    (s.rs_max + 500)
    (float_of_int (s.rs_max + 500) /. 8000.);

  let row name supply =
    match
      E.Emulator.run ~supply c.P.image
    with
    | r ->
        Printf.printf "%-24s overhead %6.2f%%   power failures %6d\n" name
          (100.
          *. float_of_int (r.E.Emulator.cycles - cont.E.Emulator.cycles)
          /. float_of_int cont.E.Emulator.cycles)
          r.E.Emulator.power_failures;
        assert (r.E.Emulator.output = cont.E.Emulator.output)
    | exception E.Emulator.No_forward_progress _ ->
        Printf.printf "%-24s no forward progress\n" name
  in
  print_endline "-- fixed on-periods (paper Table 3) --";
  List.iter
    (fun cycles ->
      row
        (Printf.sprintf "%d cycles" cycles)
        (E.Power.Periodic cycles))
    [ 50_000; 100_000; 1_000_000; 5_000_000 ];
  print_endline "\n-- synthetic harvester traces --";
  row "rf harvester (theta)" (E.Power.Trace (E.Traces.rf_trace ()));
  row "solar harvester (beta)" (E.Power.Trace (E.Traces.solar_trace ()))

(* Quickstart: compile a MiniC program for an intermittently-powered device
   and watch it survive power failures.

     dune exec examples/quickstart.exe

   Walks the full public API: [Pipeline.compile] (choose a software
   environment), [Emulator.run] under a power supply (emulate), and the
   statistics the emulator collects. *)

module P = Wario.Pipeline
module E = Wario_emulator

(* A tiny data logger: read "samples", keep a running histogram in
   non-volatile memory, report a checksum.  The histogram updates are
   classic Write-After-Read hazards. *)
let source =
  {|
unsigned histogram[16];
unsigned seed = 2024u;

unsigned next_sample(void) {
  seed = seed * 1664525u + 1013904223u;
  return (seed >> 10) & 15u;
}

int main(void) {
  int t;
  for (t = 0; t < 500; t++) {
    unsigned bucket = next_sample();
    histogram[bucket] = histogram[bucket] + 1u;   /* WAR! */
  }
  unsigned chk = 0;
  int i;
  for (i = 0; i < 16; i++) chk = chk * 31u + histogram[i];
  print_int((int)chk);
  return 0;
}
|}

let () =
  print_endline "== WARio quickstart ==\n";

  (* 1. Compile the same program three ways. *)
  let plain = P.compile P.Plain source in
  let ratchet = P.compile P.Ratchet source in
  let wario = P.compile P.Wario source in

  (* 2. Run under continuous power: everything agrees, but the protected
     builds pay for their checkpoints. *)
  let run c = E.Emulator.run c.P.image in
  let rp = run plain and rr = run ratchet and rw = run wario in
  let show name (r : E.Emulator.result) =
    Printf.printf "%-8s  output=%s  cycles=%8d  checkpoints=%5d\n" name
      (String.concat "," (List.map Int32.to_string r.output))
      r.cycles r.checkpoints_total
  in
  show "plain" rp;
  show "ratchet" rr;
  show "wario" rw;
  Printf.printf
    "\nWARio removed %d of Ratchet's %d executed checkpoints (%.0f%%)\n"
    (rr.checkpoints_total - rw.checkpoints_total)
    rr.checkpoints_total
    (100.
    *. float_of_int (rr.checkpoints_total - rw.checkpoints_total)
    /. float_of_int (max 1 rr.checkpoints_total));
  Printf.printf "checkpoint overhead: ratchet %+.1f%%, wario %+.1f%%\n"
    (100. *. float_of_int (rr.cycles - rp.cycles) /. float_of_int rp.cycles)
    (100. *. float_of_int (rw.cycles - rp.cycles) /. float_of_int rp.cycles);

  (* 3. Now pull the plug every 2000 cycles.  The plain build cannot survive
     this at all; the WARio build recomputes the exact same answer. *)
  print_endline "\n-- intermittent power: 2000-cycle on-periods --";
  let ri = E.Emulator.run ~supply:(E.Power.Periodic 2000) wario.P.image in
  Printf.printf
    "output=%s  power_failures=%d  boots=%d  violations=%d\n"
    (String.concat "," (List.map Int32.to_string ri.output))
    ri.power_failures ri.boots
    (List.length ri.violations);
  assert (ri.output = rp.output);
  Printf.printf "re-execution overhead vs continuous: %+.2f%%\n"
    (100. *. float_of_int (ri.cycles - rw.cycles) /. float_of_int rw.cycles);

  (* 4. The WAR verifier is always watching: the same program without
     protection carries histogram updates a power failure would corrupt.
     The verifier flags every such site even under continuous power. *)
  print_endline "\n-- why protection is needed --";
  let unprotected = E.Emulator.run plain.P.image in
  Printf.printf "the UNPROTECTED build contains %d WAR corruption sites\n"
    (List.length unprotected.E.Emulator.violations);
  print_endline "\nok."

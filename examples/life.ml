(* A battery-free Game of Life (a nod to the paper's battery-free Game Boy
   citation [13]): the whole world state lives in non-volatile memory and
   the simulation steps forward through dozens of power failures.

     dune exec examples/life.exe

   The double-buffered world update is WAR-free by itself, but the
   generation counter, population accounting and activity histogram are all
   read-modify-write on NVM — without checkpointing, re-execution after a
   power failure would corrupt them. *)

module P = Wario.Pipeline
module E = Wario_emulator

let source =
  {|
/* Conway's Game of Life on a 24x16 torus, double buffered in NVM. */
unsigned char world[384];     /* current generation */
unsigned char scratch[384];   /* next generation */
int generation = 0;
int activity[8];              /* population histogram over time */
unsigned census = 0;

int idx(int x, int y) {
  /* torus wrap */
  int xx = (x + 24) % 24;
  int yy = (y + 16) % 16;
  return yy * 24 + xx;
}

int neighbours(int x, int y) {
  int n = 0;
  int dx, dy;
  for (dy = -1; dy <= 1; dy++) {
    for (dx = -1; dx <= 1; dx++) {
      if (dx != 0 || dy != 0) {
        n = n + (int)world[idx(x + dx, y + dy)];
      }
    }
  }
  return n;
}

void step(void) {
  int x, y;
  for (y = 0; y < 16; y++) {
    for (x = 0; x < 24; x++) {
      int n = neighbours(x, y);
      int alive = (int)world[idx(x, y)];
      int next = 0;
      if (alive && (n == 2 || n == 3)) next = 1;
      if (!alive && n == 3) next = 1;
      scratch[idx(x, y)] = (unsigned char)next;
    }
  }
  /* commit: WARs on every live cell */
  for (y = 0; y < 384; y++) world[y] = scratch[y];
  generation = generation + 1;
}

int population(void) {
  int p = 0;
  int i;
  for (i = 0; i < 384; i++) p = p + (int)world[i];
  return p;
}

int main(void) {
  int i, g;
  /* seed: a glider, a blinker, and an R-pentomino */
  world[idx(2, 1)] = 1; world[idx(3, 2)] = 1;
  world[idx(1, 3)] = 1; world[idx(2, 3)] = 1; world[idx(3, 3)] = 1;
  world[idx(10, 8)] = 1; world[idx(11, 8)] = 1; world[idx(12, 8)] = 1;
  world[idx(18, 5)] = 1; world[idx(19, 5)] = 1;
  world[idx(17, 6)] = 1; world[idx(18, 6)] = 1;
  world[idx(18, 7)] = 1;
  for (i = 0; i < 8; i++) activity[i] = 0;
  for (g = 0; g < 24; g++) {
    step();
    int p = population();
    activity[(p >> 2) & 7] = activity[(p >> 2) & 7] + 1;
    census = census * 31u + (unsigned)p;
  }
  print_int(generation);
  print_int(population());
  print_int((int)census);
  return 0;
}
|}

let () =
  print_endline "== battery-free Game of Life ==\n";
  let wario = P.compile P.Wario source in
  let cont = E.Emulator.run wario.P.image in
  Printf.printf
    "continuous run: %d generations, final population %s, census %s\n"
    (Int32.to_int (List.nth cont.E.Emulator.output 0))
    (Int32.to_string (List.nth cont.E.Emulator.output 1))
    (Int32.to_string (List.nth cont.E.Emulator.output 2));
  Printf.printf "  (%d cycles, %d checkpoints)\n\n" cont.E.Emulator.cycles
    cont.E.Emulator.checkpoints_total;

  print_endline "-- now on harvested energy --";
  List.iter
    (fun (name, supply) ->
      match E.Emulator.run ~supply wario.P.image with
      | r ->
          assert (r.E.Emulator.output = cont.E.Emulator.output);
          assert (r.E.Emulator.violations = []);
          Printf.printf
            "%-22s identical world after %4d power failures (+%.1f%% cycles)\n"
            name r.E.Emulator.power_failures
            (100.
            *. float_of_int (r.E.Emulator.cycles - cont.E.Emulator.cycles)
            /. float_of_int cont.E.Emulator.cycles)
      | exception E.Emulator.No_forward_progress _ ->
          Printf.printf "%-22s no forward progress\n" name)
    [
      ("20k-cycle on-periods", E.Power.Periodic 20_000);
      ("100k-cycle on-periods", E.Power.Periodic 100_000);
      ("rf harvester trace", E.Power.Trace (E.Traces.rf_trace ()));
      ("solar harvester trace", E.Power.Trace (E.Traces.solar_trace ()));
    ];

  (* the punchline: the same program UNPROTECTED cannot survive; its RMW
     counters are corrupted by re-execution (the verifier proves the hazard
     even under continuous power) *)
  let plain = P.compile P.Plain source in
  let unprotected = E.Emulator.run plain.P.image in
  Printf.printf
    "\nunprotected build: %d WAR corruption sites flagged by the verifier\n"
    (List.length unprotected.E.Emulator.violations);
  print_endline "(every one is a location a power failure could corrupt)"

(** Profile-guided checkpoint placement: compile with the static cost
    model, run one pilot under the emulator (continuous power, per-pc
    execution counting, {!Wario_obs.Profile} attribution), fold the
    measured per-block entry counts into the placement weight function,
    and recompile.  Deterministic: same source and options give the same
    pilot counts and the same final image.

    Because checkpoint placement feeds back into register allocation (and
    thus into back-end spill WARs the weight model cannot predict), the
    loop ends with a measured guard: the greedy-baseline,
    static-weighted, profile-guided and interprocedural binaries each run
    once under the pilot conditions and the one executing the fewest
    checkpoints is kept, so PGO is never worse than the baseline on the
    pilot input. *)

type variant = Greedy | Static | Profile | Inter

val variant_name : variant -> string

type pilot = {
  profile : Wario_analysis.Costmodel.profile;  (** per-block entry counts *)
  summary : Wario_obs.Profile.t;
      (** per-function / per-region cycle attribution of the pilot run *)
  pilot_cycles : int;
  selected : variant;
      (** which binary the measured guard kept (see {!compile}) *)
  measured : (variant * int) list;
      (** pilot-measured dynamic checkpoint executions per variant *)
}

val collect : ?fuel:int -> Wario_emulator.Image.t -> pilot
(** Run the image once (continuous power, WAR verification off, reference
    path) and return its measured profile.  [selected]/[measured] are
    placeholders until {!compile} fills them. *)

type candidates = {
  greedy_c : Pipeline.compiled;  (** greedy baseline placement *)
  static_c : Pipeline.compiled;  (** static cost model, weighted cover *)
  profile_c : Pipeline.compiled;  (** pilot-measured weights *)
  inter_c : Pipeline.compiled;
      (** interprocedural call-graph model: global weights, cost-coupled
          expansion, and (under [opts.motion]) checkpoint motion; no
          profile *)
  pilot : pilot;
}

val compiled_of : candidates -> variant -> Pipeline.compiled

val compile_candidates :
  ?opts:Pipeline.options ->
  ?spans:Wario_obs.Span.t ->
  ?pilot_fuel:int ->
  ?engine:Wario_emulator.Emulator.engine ->
  ?cache:Cache.t ->
  Pipeline.environment ->
  string ->
  candidates
(** The full loop on MiniC source, returning all four binaries — the
    measured guard's choice is [pilot.selected] (placement benchmarks
    reuse the losing candidates too).  [opts.block_profile] is ignored on
    input (the pilot supplies it); [opts.placement] is forced per
    candidate; [opts.elide] is honoured for the cost-guided candidates.
    A live [spans] recorder gets one ["pgo.audition"] span per candidate
    compile (pipeline stages nested inside), a ["pgo.pilot"] span, and one
    ["pgo.measure"] span per measured-guard run with dyn-ckpt/cycle
    counters.  [engine] selects the emulator engine for the measured-guard
    runs (default [Block]; the pilot itself always runs the reference
    interpreter, per-pc counting requires it).  [cache]
    (default: the ambient {!Cache.from_env}) is shared by all four
    candidate compiles: the candidates differ only in placement options,
    so with a live cache the source is parsed, optimized and analyzed
    once — the three intraprocedural candidates replay the cached
    transformed WIR and diverge only from placement down.
    @raise Wario_minic.Minic.Error on front-end errors *)

val compile :
  ?opts:Pipeline.options ->
  ?spans:Wario_obs.Span.t ->
  ?pilot_fuel:int ->
  ?engine:Wario_emulator.Emulator.engine ->
  ?cache:Cache.t ->
  Pipeline.environment ->
  string ->
  Pipeline.compiled * pilot
(** {!compile_candidates}, keeping only the measured guard's choice. *)

(** The WARio compilation pipeline — the paper's contribution, assembled.

    [compile env src] runs MiniC source through the software environment
    [env] (paper §5.1.3): the -O3 substitute, the selected WARio middle-end
    transformations, the PDG checkpoint inserter, and the back end, down to
    a linked TM2 image for the emulator. *)

type environment =
  | Plain  (** uninstrumented C; continuous power only *)
  | Ratchet  (** basic alias analysis + hitting set; naive back end *)
  | R_pdg  (** Ratchet with precise PDG information *)
  | Epilog_opt  (** R-PDG + Epilog Optimizer (basic spill inserter) *)
  | Write_cluster  (** R-PDG + Write Clusterer + HS spill inserter *)
  | Loop_cluster  (** R-PDG + Loop Write Clusterer + HS spill inserter *)
  | Wario  (** complete WARio *)
  | Wario_expander  (** WARio + Expander *)

val environment_name : environment -> string
val all_environments : environment list
val environment_of_name : string -> environment option

type options = {
  unroll_factor : int;  (** the paper's N; default 8 (§5.2.4) *)
  expander_size_limit : int;
  optimize : bool;  (** run the -O3 substitute first (default true) *)
  expander_profile : (string * int) list option;
      (** dynamic call counts: switches the Expander to profile-guided mode *)
  max_region : int option;
      (** bound idempotent regions to ~n estimated cycles (extension, §6) *)
  drop_middle_ckpt : int option;
      (** TEST-ONLY sabotage hook for the fault-injection harness
          (lib/verify): delete the n-th (mod count) middle-end checkpoint
          after insertion, deliberately re-opening the WAR it covered so
          the crash-consistency oracle has a real bug to catch.  Ignored
          for [Plain].  Never set this outside tests. *)
  placement : Wario_transforms.Checkpoint_inserter.placement;
      (** checkpoint placement policy for both the middle-end inserter and
          the back end's stack-spill inserter (default [Cost_guided]).
          [Interprocedural] additionally builds the
          {!Wario_analysis.Callgraph} model, runs cost-coupled expansion
          for every instrumented environment, and prices every block at
          its whole-program frequency. *)
  block_profile : Wario_analysis.Costmodel.profile option;
      (** measured per-block entry counts from a PGO pilot run (see
          {!Pgo}); validated against the current label set and ignored
          (with a warning on stderr) when empty or stale.  Only consulted
          under [Cost_guided] and [Interprocedural]. *)
  elide : bool;
      (** run the certifier-validated checkpoint elision pass ({!Elide})
          after the back end (default false; only under [Cost_guided] and
          [Interprocedural]) *)
  motion : bool;
      (** run the certifier-validated checkpoint motion pass ({!Motion})
          after elision (default false; only under [Interprocedural]) *)
}

val default_options : options

(** What became of [options.block_profile] during placement. *)
type profile_status =
  | No_profile  (** none supplied: static cost model *)
  | Applied of int  (** profile used; [n] current labels matched *)
  | Fell_back of string
      (** profile rejected (empty/stale): static cost model, with a
          warning on stderr carrying this reason *)

type middle_stats = {
  wars_found : int;
  middle_ckpts : int;
  lwc : Wario_transforms.Loop_write_clusterer.stats option;
  wc_moves : int;
  expander : Wario_transforms.Expander.stats option;
  placement_exact : int;
      (** functions whose weighted cover was proven optimal *)
  placement_fallback : int;
      (** functions placed by the weighted-greedy fallback *)
  profile_status : profile_status;
  placements : Wario_transforms.Checkpoint_inserter.placement_info list;
      (** per-checkpoint rationale from the inserter ([--explain]) *)
  func_freqs : (string * float) list;
      (** call-graph invocation frequencies (only under [Interprocedural]) *)
}

type compiled = {
  env : environment;
  ir : Wario_ir.Ir.program;  (** IR after all middle-end transformations *)
  mprog : Wario_machine.Isa.mprog;
  image : Wario_emulator.Image.t;
  middle : middle_stats;
  backend : Wario_backend.Backend.stats;
  elision : Elide.stats option;  (** [Some] when [options.elide] ran *)
  motion : Motion.stats option;  (** [Some] when [options.motion] ran *)
  model_cost : float option;
      (** cost-model estimate of dynamic checkpoint executions per run:
          the placement weight of every checkpoint in the final image,
          summed ([None] under [Greedy]).  Comparable across compiles of
          the same source; expansion trials themselves are judged by a
          measured reference run (see {!compile_ir}). *)
  text_bytes : int;
}

val middle_end :
  ?opts:options ->
  ?spans:Wario_obs.Span.t ->
  environment ->
  Wario_ir.Ir.program ->
  middle_stats
(** Run just the middle end (mutates the program).  A live [spans]
    recorder nests one span per pass ([middle.<pass>]) under a ["middle"]
    span, each carrying the pass's headline deltas as counters (stores
    postponed/moved, inlines; on the inserter span WARs found, checkpoints
    inserted, exact solves, branch-and-bound nodes and greedy
    fallbacks).  Note that under
    [Interprocedural] the middle end alone never expands: cost-coupled
    expansion is driven by trial compilation in {!compile_ir}. *)

val stage_names : string list
(** The five cacheable pipeline stages, in order:
    ["front"; "wir"; "place"; "mach"; "image"]. *)

val stage_keys :
  ?opts:options -> environment -> string -> (string * Cache.Key.t) list
(** Canonical cache keys of each pipeline stage for one
    (source, environment, options) compile, in {!stage_names} order.
    Each stage's key covers its parent stage's key plus exactly the
    option fields that stage consumes, so two compiles share a prefix of
    keys exactly when the corresponding stage artifacts are reusable:
    flipping [placement] or [block_profile] changes keys from ["place"]
    down (the cached transformed WIR is reused), and flipping [elide] or
    [motion] changes only ["image"] (the cached machine program is
    re-linked).  Under [Interprocedural] with a non-[Plain] environment,
    trial expansion compiles and runs whole programs before placement,
    so the ["wir"] key conservatively absorbs every option (and the
    sampled [WARIO_SAVE_ALL] flag) those trials consume. *)

val image_key : ?opts:options -> environment -> string -> Cache.Key.t
(** [stage_keys]' final ("image") key: a canonical fingerprint of the
    complete compile — every option field and the environment reach it
    through the key chain.  Used by the verify corpus as its program
    fingerprint. *)

val compile :
  ?opts:options ->
  ?spans:Wario_obs.Span.t ->
  ?cache:Cache.t ->
  environment ->
  string ->
  compiled
(** Compile MiniC source text.  [spans] wraps the whole compile in a
    ["pipeline.compile"] span with per-stage children (frontend → middle
    passes → backend and its per-pass children → elide/motion → link),
    including per-recheck certifier spans inside elide/motion; counters
    on those spans carry the per-pass deltas, the spill stats and the
    linked section sizes.  [Wario_obs.Span.to_metrics_jsonl] projects the
    tree onto named timers and counters.

    [cache] (default: the ambient {!Cache.from_env}, i.e. enabled exactly
    when [WARIO_CACHE_DIR] is set) routes the compile through the keyed
    stage ladder of {!compile_with_report}; with a disabled cache this is
    the classic single-pass pipeline.
    @raise Wario_minic.Minic.Error on front-end errors *)

val compile_with_report :
  ?opts:options ->
  ?spans:Wario_obs.Span.t ->
  cache:Cache.t ->
  environment ->
  string ->
  compiled * (string * bool) list
(** Cache-aware compile, additionally reporting per-stage cache outcomes
    as [(stage, hit)] pairs in probe order (deepest reusable stage
    first; stages that never needed probing are absent).  A live [spans]
    recorder also counts them on the ["pipeline.compile"] span as
    [cache_<stage>_hit] / [cache_<stage>_miss].  With a
    disabled [cache] the report is empty and the compile is uncached.
    The resulting [compiled] is byte-identical (up to [Marshal]) to an
    uncached compile of the same inputs — enforced by the test suite and
    re-asserted in-process by the cache bench before any number is
    written. *)

val compile_ir :
  ?opts:options ->
  ?spans:Wario_obs.Span.t ->
  environment ->
  Wario_ir.Ir.program ->
  compiled
(** Compile an already-lowered IR program (mutates it). *)

val certify : compiled -> Wario_certify.Certify.verdict
(** Statically certify the linked image WAR-free (translation validation
    of the whole pipeline; see lib/certify). *)

val certify_report : compiled -> Wario_certify.Certify.verdict -> string

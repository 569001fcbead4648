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

val instrumented_environments : environment list
(** Every environment except [Plain] (which is only ever run on
    continuous power). *)

val environment_of_name : string -> environment option

val placement_name : Wario_transforms.Checkpoint_inserter.placement -> string
(** ["greedy"], ["cost-guided"] or ["interprocedural"]: the spelling the
    ["place"] stage key and the serve protocol share. *)

val placement_of_name :
  string -> Wario_transforms.Checkpoint_inserter.placement option

(** TEST-ONLY sabotage of a build, for the fault-injection harness
    (lib/verify): each gives the crash-consistency oracle a real bug to
    catch.  Ignored for [Plain]. *)
type sabotage =
  | Drop_ckpt of int
      (** delete the n-th (mod count) middle-end checkpoint after
          insertion, re-opening the WAR it covered (the continuous run
          already violates) *)
  | Drop_saved_reg of int
      (** in the linked image, clear the lowest r0-r12 bit of the save
          mask of the n-th (mod count) checkpoint that saves one of
          r0-r12: a restore there zeroes a register the code after it
          reads.  The continuous run never restores, so it stays clean;
          only runs with power failures can diverge. *)

type options = {
  unroll_factor : int;  (** the paper's N; default 8 (§5.2.4) *)
  expander_size_limit : int;
  optimize : bool;  (** run the -O3 substitute first (default true) *)
  expander_profile : (string * int) list option;
      (** dynamic call counts: switches the Expander to profile-guided mode *)
  max_region : int option;
      (** bound idempotent regions to ~n estimated cycles (extension, §6) *)
  sabotage : sabotage option;
      (** TEST-ONLY (see {!sabotage}); never set this outside tests *)
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

val check_options : options -> (unit, string) result
(** The range check every entry point applies before compiling:
    [unroll_factor >= 1] and [max_region], when set, at least
    {!Wario_transforms.Region_bounder.min_bound}.  The error names the
    offending field. *)

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

(** What a compile returns, and all the ["image"] cache entry holds: the
    linked image and its statistics.  The final IR and machine program
    are not kept; {!lower} returns them beside the record. *)
type compiled = {
  env : environment;
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
    so the ["wir"] key conservatively absorbs every option those trials
    consume. *)

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
(** Compile MiniC source text.  Every compile runs one stage order
    (paper Figure 2): front end, cost-coupled trial expansion (only under
    [Interprocedural]), the placement-independent middle end, placement,
    IR verification, back end, elision, motion, link.

    [spans] wraps the compile in a ["pipeline.compile"] span (attribute
    [env]) with per-stage children: ["frontend"], ["middle"] twice (the
    placement-independent passes, then placement; each pass a
    ["middle.<pass>"] child carrying its headline deltas — stores
    postponed/moved, inlines, WARs found, checkpoints inserted, exact
    solves, branch-and-bound nodes, greedy fallbacks), ["backend"] and its
    per-pass children, ["backend.elide"]/["backend.motion"] with their
    per-recheck certifier spans, and ["link"] with the section sizes.
    [Wario_obs.Span.to_metrics_jsonl] projects the tree onto named
    timers and counters.

    [cache] (default: the ambient {!Cache.from_env}, i.e. enabled exactly
    when [WARIO_CACHE_DIR] is set) lets the compile resume from the
    deepest cached stage; see {!compile_with_report}.  With a disabled
    cache every stage runs.
    @raise Wario_minic.Minic.Error on front-end errors *)

val compile_with_report :
  ?opts:options ->
  ?spans:Wario_obs.Span.t ->
  ?keys:(string * Cache.Key.t) list ->
  cache:Cache.t ->
  environment ->
  string ->
  compiled * (string * bool) list
(** Cache-aware compile, additionally reporting per-stage cache outcomes
    as [(stage, hit)] pairs.  The ["image"] entry holds the whole
    [compiled] record, so it is probed first and a full hit reads that
    one entry and reports [[("image", true)]].  On an image miss the
    build probes ["place"] (then ["wir"] and ["front"] as far as they
    miss) and ["mach"]; each stage is reported when its probe answers,
    and ["image"] after the stages its build resolved, so an [elide]
    toggle reports [[place hit; mach hit; image miss]].  Stages that
    never needed probing are absent.  A live [spans] recorder also
    counts the outcomes on the ["pipeline.compile"] span as
    [cache_<stage>_hit] / [cache_<stage>_miss], adds the store's
    counters to it (see {!Cache.get} and {!Cache.put}) and marks that
    span [cached=on].  With a disabled [cache] nothing is keyed,
    marshalled, reported or counted: the report is empty.
    [keys], when the caller already derived them, must be
    [stage_keys ~opts env source]; they are then not derived again.
    The resulting [compiled] is byte-identical (up to [Marshal]) to an
    uncached compile of the same inputs — enforced by the test suite and
    re-asserted in-process by the cache bench before any number is
    written. *)

val lower :
  ?opts:options ->
  environment ->
  string ->
  Wario_ir.Ir.program * Wario_machine.Isa.mprog * compiled
(** [compile] with {!Cache.disabled}, also returning the IR after the
    whole middle end and the final machine program (after elision and
    motion), which the record does not keep.  [iclang compile
    --dump-ir/--dump-asm] print them.
    @raise Wario_minic.Minic.Error on front-end errors *)

val compile_ir :
  ?opts:options ->
  ?spans:Wario_obs.Span.t ->
  environment ->
  Wario_ir.Ir.program ->
  compiled
(** Compile an already-lowered IR program (mutates it) through the same
    stages as {!compile}, minus the front end, with the cache disabled —
    there is no source text to key it by.  Hand-built IR and the
    expansion trial compiles enter here. *)

val certify : compiled -> Wario_certify.Certify.verdict
(** Statically certify the linked image WAR-free (translation validation
    of the whole pipeline; see lib/certify). *)

val certify_report : compiled -> Wario_certify.Certify.verdict -> string

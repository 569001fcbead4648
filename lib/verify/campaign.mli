(** The fault-injection campaign: a budgeted, coverage-accounted
    schedule search per (workload, environment) case, mixing the
    exhaustive boundary ±1 set, the {!Adversary} bisection, harvester-style
    {!Supply} models and seeded random fill.  The plan is generated up
    front from the seed and consumed in input order, so a campaign is
    schedule-for-schedule deterministic for any [jobs] value.  CLI entry:
    [iclang verify]. *)

(** {1 Coverage}

    Two kinds of evidence are charged.  Each schedule's {e first} cut:
    before the first power failure the injected run is cycle-for-cycle the
    golden run, so a first cut at offset [c] lands at golden-timeline
    cycle [c] exactly.  And every {e observed} power failure: the emulator
    logs [(commits, lost_work)] per failure
    ({!Wario_emulator.Emulator.result.failure_sites}), and since execution
    always resumes at the last committed checkpoint,
    [boundary(commits) + lost_work] locates the failure on the golden
    timeline — multi-cut sweep and supply schedules thereby cover
    thousands of boundary windows per run. *)

type coverage = {
  cov_boundaries : int;  (** commit boundaries of the reference run *)
  cov_boundaries_cut : int;  (** boundaries with a cut landed in [b−1, b+1] *)
  cov_regions : int;  (** idempotent regions, halt-terminated tail included *)
  cov_regions_cut : int;  (** regions with a cut landed strictly inside *)
  cov_boot_cut : bool;  (** some cut landed in the boot window *)
}

val boundary_pct : coverage -> float
(** Percentage of commit boundaries cut within ±1; 100 when the program
    has no checkpoints (vacuously covered). *)

val region_pct : coverage -> float

val coverage_of_plan :
  Schedule.reference -> int array list -> coverage
(** The first-cut component only: a pure function of the plan against the
    reference geometry — independent of execution interleaving (and
    therefore of [jobs]).  The campaign's reported coverage additionally
    charges observed failure sites; this is its lower bound. *)

val sweep_plan : Schedule.reference -> int array list
(** Multi-cut sweep schedules for dense-commit geometries: one power
    period per commit boundary, each budgeted [boot + spacing] so it
    resumes at boundary k−1, retires the commit at boundary k, and dies
    on the very next spend — the observed failure site lands exactly on
    the boundary (a power budget buys [budget − boot] work cycles
    exactly; checkpoint-restore replay advances the clock without
    consuming budget).  One schedule covers up to 4096 boundaries; chunk
    openers cold-start with budget = the boundary offset, running
    golden-identically to their first commit. *)

(** {1 Campaign} *)

type failure = {
  k_schedule : int array;  (** as found *)
  k_shrunk : int array;  (** after two-phase {!Shrink.ddmin} *)
  k_divergence : Oracle.divergence;  (** of the shrunk schedule *)
  k_repro : Repro.t;
  k_source : string;
      (** ["exhaustive"], ["sweep"], ["mop-up"], ["adversary"], ["random"],
          ["golden"] or a {!Supply.name} *)
}

type case_report = {
  k_workload : string;
  k_env : Wario.Pipeline.environment;
  k_schedules : int;  (** schedules exercised *)
  k_probes : int;  (** adversary bisection probes (oracle runs) on top *)
  k_coverage : coverage;
  k_failures : failure list;  (** shrunk + deduplicated, capped *)
  k_failures_total : int;  (** every failing schedule, beyond the cap too *)
  k_worst_reexec : int;
      (** largest re-executed waste any adversary probe provoked *)
}

type config = {
  envs : Wario.Pipeline.environment list;
  workloads : (string * string) list;  (** (name, MiniC source) *)
  budget : int;
      (** schedules per case; the exhaustive and adversary sets always run
          even past the budget, random fill consumes the remainder *)
  seed : int64;
  opts : Wario.Pipeline.options;
  jobs : int;  (** fan-out domains; reports are identical for any value *)
  engine : Wario_emulator.Emulator.engine;
      (** emulator engine for every oracle run (default [Block]): golden
          runs, schedules, adversary probes and shrink steps.  Oracle
          instances keep the WAR verifier on, which both engines
          implement identically, so reports are engine-independent
          (asserted byte-identical in CI). *)
}

val default_budget : int
(** 2_000 schedules per case — [iclang verify]'s default [-n]; a fleet-
    scale campaign passes [-n 100000]. *)

val default_config : config
(** Every instrumented environment × every micro workload, the default
    budget, seed 1, one job, the block engine.  At most five distinct
    failures per case are shrunk and recorded; the rest are only counted
    in [k_failures_total]. *)

val run_case :
  ?log:(string -> unit) ->
  ?spans:Wario_obs.Span.t ->
  config ->
  workload:string * string ->
  env:Wario.Pipeline.environment ->
  case_report
(** Golden run, adversary bisection, plan generation, chunked oracle
    fan-out, shrinking, and a final mop-up round of plan-exact single cuts
    at any boundary windows still unhit (derived from the
    order-independent coverage union, so deterministic for any [jobs]).
    A golden run that itself violates the WAR verifier is reported as a
    zero-cut ["golden"] failure.

    A live [spans] recorder gets one ["campaign.case"] span per case
    (workload/env attributes) with one child phase span each for
    ["campaign.golden"], ["campaign.adversary"] (probe/region counters),
    ["campaign.plan"] (schedule counter), ["campaign.execute"]
    (schedule/failure counters) and ["campaign.mopup"] (uncovered-window
    counter); the chunked {!Wario_exec.Exec.map} fan-outs inside the
    execute and mop-up phases contribute their own pool/worker spans. *)

type build
(** One (workload, environment) case compiled under the campaign's
    options: made once, certified by {!static_precheck}, run by {!run}. *)

val builds : config -> build list
(** Compile every case of the config, workloads outer, environments
    inner — the order of the campaign report. *)

val run :
  ?log:(string -> unit) ->
  ?spans:Wario_obs.Span.t ->
  config ->
  build list ->
  case_report list
(** {!run_case} over prebuilt cases, in order: the golden phase runs the
    given build instead of compiling again. *)

val total_failures : case_report list -> int

val static_precheck :
  ?log:(string -> unit) -> build list -> (string * Wario.Pipeline.environment) list
(** Run the static idempotence certifier (lib/certify) on every build
    and return the rejected (workload, environment) cases; each
    rejection is logged with its witness paths.  A certified image cannot
    trip the dynamic WAR verifier, so rejections pinpoint pipeline bugs
    before any schedule is injected. *)

val min_boundary_pct : case_report list -> float
(** The worst per-case boundary coverage — what [--min-coverage] gates. *)

val corpus_entries : case_report list -> Corpus.entry list
(** Shrunk failures as corpus entries: sabotaged builds (drop-ckpt, drop-reg) become
    [expect=fail] detector-regression entries; real finds [expect=pass]. *)

val report_rows : case_report list -> Wario.Report.campaign_row list

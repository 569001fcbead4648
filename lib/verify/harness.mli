(** The fault-injection sweep: workloads × environments × schedules, with
    shrinking and reproducer emission.  CLI entry: [iclang verify]. *)

type failure = {
  f_schedule : int array;  (** the failing schedule as found *)
  f_shrunk : int array;  (** minimal cut set after {!Shrink.ddmin} *)
  f_divergence : Oracle.divergence;  (** divergence of the shrunk schedule *)
  f_repro : Repro.t;  (** one-line replayable reproducer *)
}

type case_report = {
  c_workload : string;
  c_env : Wario.Pipeline.environment;
  c_schedules : int;  (** schedules actually exercised *)
  c_failures : failure list;
}

type config = {
  envs : Wario.Pipeline.environment list;
  workloads : (string * string) list;  (** (name, MiniC source) *)
  schedules_per_case : int;
  exhaustive_limit : int;
      (** use the exhaustive boundary ±1 set only when it has at most this
          many schedules *)
  max_failures_per_case : int;
  seed : int64;  (** printed with every reproducer; replays the sweep *)
  opts : Wario.Pipeline.options;
  jobs : int;
      (** domains for the per-case schedule fan-out (1 = sequential,
          0 = auto: sized to the host by {!Wario_exec.Exec.map}, which on
          a single-core host is the sequential path).  Schedules are
          evaluated in fixed-size chunks whose verdicts are consumed in
          input order, so every report — including [c_schedules] under
          the failure cap — is byte-identical for any [jobs] value. *)
  engine : Wario_emulator.Emulator.engine;
      (** emulator engine for every oracle run (default [Block]); verdicts
          are engine-independent because both engines verify WARs
          identically (asserted byte-identical in CI) *)
}

val instrumented_environments : Wario.Pipeline.environment list
(** Every environment except [Plain] (which is only ever run on
    continuous power). *)

val default_config : config
(** All instrumented environments × all micro workloads, 200 schedules
    per case, seed 1. *)

val run_case :
  ?log:(string -> unit) ->
  config ->
  workload:string * string ->
  env:Wario.Pipeline.environment ->
  case_report
(** Golden run, schedule generation, oracle sweep, shrinking.  A golden
    run that itself violates the WAR verifier is reported as a zero-cut
    failure. *)

type precheck = {
  p_workload : string;
  p_env : Wario.Pipeline.environment;
  p_report : string;  (** rendered rejection, witness paths included *)
}

val static_precheck : ?log:(string -> unit) -> config -> precheck list
(** Run the static idempotence certifier (lib/certify) on every case's
    build; returns the rejected cases.  A certified image cannot trip the
    dynamic WAR verifier, so rejections pinpoint pipeline bugs before any
    schedule is injected. *)

val sweep : ?log:(string -> unit) -> config -> case_report list

val total_failures : case_report list -> int

val replay :
  ?engine:Wario_emulator.Emulator.engine -> Repro.t -> (unit, string) result
(** Recompile exactly as recorded and re-run the oracle on the recorded
    cuts, on [engine] (default [Block]); [Error] describes the
    (reproduced) divergence. *)

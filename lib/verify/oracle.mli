(** Crash-consistency oracle: differential checking of injected-failure
    runs against the continuous run of the same compiled image (the
    automation of the paper's §5.1.1 output-equivalence argument).

    An injected run costs only the stretch where it differs from the
    golden run.  The golden run logs itself, or is replayed once more on
    first demand to build its redo log
    ({!Wario_emulator.Emulator.start_log}): per commit its
    registers, flags, pc and counters, per region the bytes it left
    written.  An injected run of the golden run's own image follows the
    log ({!Wario_emulator.Emulator.follow}): right after boot, and right
    after any commit it made in golden's exact state — an equality check
    against the state rebuilt from the log — it jumps to the last golden
    commit before its power or fuel runs out, or to the halt, and
    emulates only the failure, the restore and the re-execution, with
    the WAR shadow on.  From equal registers, flags, pc and memory the
    deterministic machine does what golden did; nothing in between reads
    the double buffer (golden runs that do get no log), and the jump
    writes the buffer words the next restore reads as the run would
    have.  Every result record, digest and verdict equals that of a run
    from boot. *)

type fork
(** The golden run's redo log, built on first demand, and the tallies of
    the runs that followed it. *)

type golden = {
  g_output : int32 list;
  g_exit : int32;
  g_digest : int64;  (** non-volatile memory digest, checkpoint area excluded *)
  g_result : Wario_emulator.Emulator.result;
  g_fork : fork;
}

type fork_stats = {
  log_bytes : int;  (** the redo log's size; 0 until built, or without one *)
  log_commits : int;  (** commits the log covers *)
  forked : int;  (** runs so far whose first jump was taken at boot *)
  spliced : int;  (** runs so far that reached the halt by a jump *)
  jumped : int;  (** jumps taken so far, by all runs *)
}

val fork_stats : golden -> fork_stats
(** Safe to read while other domains run schedules of the same golden. *)

type divergence =
  | Output_mismatch of { got : int32 list; want : int32 list }
  | Double_output of { got : int32 list; want : int32 list }
      (** the golden output embedded in a longer one: committed output was
          emitted again during replay *)
  | Exit_mismatch of { got : int32; want : int32 }
  | Memory_mismatch of { got : int64; want : int64 }
  | War_violations of Wario_emulator.Emulator.violation list
  | No_progress of string
  | Fault of string
      (** the injected run stopped on an emulator error (a memory fault,
          an exhausted cycle budget): replay went somewhere the golden run
          never did *)

val golden :
  ?engine:Wario_emulator.Emulator.engine ->
  ?log:bool ->
  Wario.Pipeline.compiled ->
  golden
(** Continuous-power reference run (via the stepping API, so the final
    memory digest is captured).  With [log] (default false) the run logs
    itself as it goes, at no extra run: callers that go on to run
    schedules pass it.  Without it the redo log is built by a logging
    replay on the first run that needs it, a path kept for goldens that
    are only timed or inspected.  No log is kept when the run violates
    or reads the checkpoint area.  Oracle instances keep the WAR
    verifier on; [engine]
    (default [Block]) picks verify-mode compiled blocks or the reference
    interpreter for this run and, passed to the functions below, for the
    injected ones.  The two give identical results, so verdicts do not
    depend on it. *)

val golden_violations :
  golden -> Wario_emulator.Emulator.violation list
(** WAR violations of the reference run itself — a broken checkpoint
    schedule is caught even before any failure is injected. *)

val is_double_emission : want:int32 list -> got:int32 list -> bool
(** [want] embedded as a subsequence of a strictly longer [got]: committed
    output re-emitted during replay.  Exposed for the test suite. *)

val judge :
  golden -> Wario_emulator.Emulator.result -> int64 -> (unit, divergence) result
(** The verdict on a finished run, given its result and final
    {!Wario_emulator.Emulator.nv_digest}: WAR violations first, then
    output (double emission told apart), exit code and memory digest. *)

val check_schedule :
  ?engine:Wario_emulator.Emulator.engine ->
  golden ->
  Wario.Pipeline.compiled ->
  int array ->
  (unit, divergence) result
(** Run [c]'s image with power cut after each scheduled on-duration and
    compare output, exit code, final memory digest and WAR-verifier
    verdict against the golden run.  Runs follow the golden log only
    when [c]'s image is physically the golden run's. *)

val run_schedule :
  ?engine:Wario_emulator.Emulator.engine ->
  golden ->
  Wario.Pipeline.compiled ->
  int array ->
  Wario_emulator.Emulator.result option * (unit, divergence) result
(** Like {!check_schedule} but also returns the injected run's full result
    record ([None] when the supply admitted no forward progress) — the
    adversarial cut search reads [waste.w_reexec] from the same run it
    judges. *)

val run_supply :
  ?engine:Wario_emulator.Emulator.engine ->
  golden ->
  Wario.Pipeline.compiled ->
  Wario_emulator.Power.supply ->
  Wario_emulator.Emulator.result option * (unit, divergence) result
(** {!run_schedule} generalized to any supply (trace-driven and stochastic
    models included); runs under every supply follow the golden log. *)

val string_of_divergence : divergence -> string

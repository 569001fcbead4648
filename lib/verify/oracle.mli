(** Crash-consistency oracle: differential checking of injected-failure
    runs against the continuous run of the same compiled image (the
    automation of the paper's §5.1.1 output-equivalence argument).

    An injected run costs only the stretch where it differs from the
    golden run.  The golden run keeps compact snapshots right after
    commits 1, 2, 4, 8, ... and every multiple of 4096.  A [Schedule]
    whose first cut is at or after a snapshot's cycle starts from the
    latest such snapshot instead of from boot (the first on-period counts
    cycles from boot, so the run is in exactly that state there).  A run
    that has just made commit [k] in snapshot [k]'s machine state —
    registers, flags, pc, primask and memory outside the checkpoint double
    buffer — with enough of its on-period and fuel left to cover the
    golden run's remaining cycles, stops there and takes the golden suffix
    (see {!Wario_emulator.Emulator.splice}).  That is sound because
    nothing after a commit reads the double buffer except to pick the next
    commit's target, which costs the same either way, and a period that
    outlasts the suffix holds no restore.  Every result record, digest and
    verdict equals that of a run from boot. *)

type fork
(** The golden run's commit snapshots and the tallies of the runs that
    used them. *)

type golden = {
  g_output : int32 list;
  g_exit : int32;
  g_digest : int64;  (** non-volatile memory digest, checkpoint area excluded *)
  g_result : Wario_emulator.Emulator.result;
  g_fork : fork;
}

type fork_stats = {
  snapshots : int;  (** none when the golden run violates *)
  snapshot_bytes : int;  (** memory pages the snapshots hold *)
  forked : int;  (** runs so far that started from a snapshot *)
  spliced : int;  (** runs so far that ended in the golden suffix *)
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
  ?engine:Wario_emulator.Emulator.engine -> Wario.Pipeline.compiled -> golden
(** Continuous-power reference run (via the stepping API, so the final
    memory digest is captured), run commit by commit to take its
    snapshots.  Oracle instances keep the WAR verifier on; [engine]
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
    verdict against the golden run.  Snapshots are used only when [c]'s
    image is physically the golden run's. *)

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
    models included).  Only a [Schedule] starts from a snapshot; a run
    under any supply can end in the golden suffix. *)

val string_of_divergence : divergence -> string

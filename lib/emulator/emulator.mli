(** Cortex-M-class emulator for TM2 images (the paper's custom
    Unicorn-based emulator, §5.1.1, rebuilt as an interpreter).

    Models a three-stage-pipeline cycle count, non-volatile main memory
    with volatile registers/flags, the double-buffered checkpoint runtime,
    intermittent power with boot/restore replay, optional periodic
    interrupts (hardware exception entry pushes eight words at sp — the
    hazard the pop converter exists for), WAR-violation-absence
    verification on every access, and the statistics behind Figures 4-7 and
    Table 3.

    Besides the one-shot {!run}, a stepping API ({!create}/{!step}) exposes
    the machine to the fault-injection harness (lib/verify): instruction
    granularity execution, deep snapshots ({!clone}), forced power cuts at
    chosen points ({!cut_power}) and a digest of the final non-volatile
    state ({!nv_digest}). *)

exception Emu_error of string

exception No_forward_progress of string
(** Raised when {!no_forward_progress_threshold} consecutive power cycles
    elapse without a single checkpoint commit: the device can never finish
    under this supply.  The payload is the offending supply's description
    (see {!Power.describe}). *)

val no_forward_progress_threshold : int
(** Consecutive fruitless power cycles (boots with no checkpoint commit)
    tolerated before {!No_forward_progress} is raised. *)

val boot_cycles : int

type violation = { v_pc : int; v_func : string; v_addr : int; v_instr : string }

type cause_counts = {
  mutable c_entry : int;
  mutable c_exit : int;
  mutable c_middle : int;
  mutable c_backend : int;
}

(** Decomposition of total active cycles (the invariant
    [w_useful + w_boot + w_restore + w_reexec = cycles] always holds):
    boot sequences, checkpoint restore replays, work discarded by power
    failures (it re-executes after the restore), and the first-execution
    work that survived to a commit or the final halt. *)
type waste = {
  w_useful : int;
  w_boot : int;
  w_restore : int;
  w_reexec : int;
}

type result = {
  output : int32 list;
  exit_code : int32;
  cycles : int;  (** total active cycles, incl. boot/restore/re-execution *)
  instrs : int;
  checkpoints : cause_counts;
  checkpoints_total : int;
  region_sizes : int list;  (** cycles between region boundaries *)
  power_failures : int;
  failure_sites : (int * int) list;
      (** one [(commits_so_far, lost_work)] per power failure, in order.
          Execution always resumes at the last committed checkpoint (cold
          start when [commits_so_far = 0]) and commits advance one region
          boundary at a time, so [lost_work] — the work cycles this power
          period past the resume point up to the cycle power died,
          including the unspent shortfall of the in-flight instruction —
          pins each failure {e exactly} on the continuous run's timeline:
          the campaign's cut-coverage accounting maps it to
          [boundary(commits_so_far) + lost_work] golden cycles.  Failures
          during boot/restore report the resume point itself. *)
  boots : int;
  violations : violation list;
  irqs_taken : int;
  call_counts : (string * int) list;
      (** dynamic calls per callee (a profile for the Expander) *)
  waste : waste;
      (** decomposition of [cycles]: useful + boot + restore + re-executed *)
}

val ckpt_cost : int -> int
(** Cycles to checkpoint with a given live mask. *)

val restore_cost : int -> int

val ckpt_bytes : int -> int
(** Bytes a commit writes into its buffer for a given live mask. *)

type engine =
  | Auto
      (** best eligible engine — block when possible, reference otherwise
          (default) *)
  | Reference  (** force the fully instrumented per-step reference path *)
  | Uop  (** the predecoded micro-op loop (the former [Fast] path) *)
  | Block
      (** basic blocks fused into OCaml closures, direct-threaded
          dispatch *)
(** The engine ladder {!run} and {!run_batch} drive.  [Uop] and [Block]
    are branch-light twins of the reference path for the measurement
    configuration ([verify:false], no tracer, [irq_period = 0]); both
    hoist the power/fuel checks out of the inner loop ([Uop] per provably
    safe stretch, [Block] per basic block) and both fall back to the
    reference path per batch whenever the configuration makes them
    ineligible.  [Block] additionally falls back to checked single steps
    at power/fuel edges and at any pc inside a block (e.g. right after a
    snapshot restore).  All engines produce byte-for-byte identical
    {!result} records including [waste] and [failure_sites]; the reference
    path is the oracle (qcheck property "every engine = reference" in
    test/test_props.ml). *)

val run :
  ?fuel:int ->
  ?supply:Power.supply ->
  ?irq_period:int ->
  ?verify:bool ->
  ?tracer:Wario_obs.Trace.sink ->
  ?engine:engine ->
  Image.t ->
  result
(** Execute an image until it halts.
    @param fuel total active-cycle budget (default 2G)
    @param supply power model (default [Continuous])
    @param irq_period fire an interrupt every N cycles (0 = off)
    @param verify track WAR violations (default true)
    @param tracer event sink for the execution tracer (default
    {!Wario_obs.Trace.null}, whose emissions are single tag tests — no
    measurable slowdown).  Pass an unbounded {!Wario_obs.Trace.ring} to
    record every checkpoint commit, power failure, boot/restore,
    interrupt, function transition and the final halt, with active-cycle
    timestamps.
    @param engine interpreter/translator selection (default [Auto]).

    The runtime's save-all escape hatch is sampled {e once}, at instance
    creation: setting the [WARIO_SAVE_ALL] environment variable (to
    anything other than [""] or ["0"]) makes every checkpoint save the
    full register file regardless of its live mask (changing the variable
    mid-run has no effect).  [WARIO_DEBUG_EMU] (boot logging on stderr) is
    sampled the same way.

    With [verify] on, an instance carries a WAR shadow of one byte per
    address plus the list of bytes touched in the current region, and a
    region boundary costs the bytes that region touched.  With [verify]
    off it carries no shadow at all. *)

(** {1 Stepping and snapshots}

    [run] is equivalent to [create] followed by [step] until [Halted] and
    [result].  A stepping instance is mutable; [clone] takes a deep,
    independently steppable snapshot. *)

type t
(** A booted, steppable emulator instance. *)

val create :
  ?fuel:int ->
  ?supply:Power.supply ->
  ?irq_period:int ->
  ?verify:bool ->
  ?tracer:Wario_obs.Trace.sink ->
  ?count_pcs:bool ->
  ?reuse:t ->
  Image.t ->
  t
(** Initialise memory and perform the first power-on (same defaults as
    {!run}).  Note that {!clone} shares the tracer sink with the original:
    stepping both copies interleaves their events, so snapshot-heavy users
    (lib/verify) should trace at most one instance.

    [count_pcs] (default false) records how many times each pc executes —
    the PGO pilot's profile, read back with {!block_counts}.  Counting
    keeps the instance on the reference path (the fast path's macro-steps
    never touch per-pc state), so leave it off for measurement runs.

    [reuse], a finished verify-mode instance that is never used again,
    lends a verify-mode instance its memory and WAR-shadow buffers: only
    the pages it wrote and its image's initial data are cleared, instead
    of allocating and clearing 2 MiB.  Of the same image (and
    [WARIO_SAVE_ALL] setting), it lends its per-pc tables too.  Results
    already taken from it are unaffected. *)

type step =
  | Stepped  (** one instruction retired *)
  | Rebooted  (** the on-period ended: power failed, rebooted, restored *)
  | Halted

val step : t -> step
(** Execute one instruction (plus any due interrupt); on power failure,
    replay the boot/restore sequence.  Idempotent once halted. *)

val run_batch : ?engine:engine -> t -> int -> step
(** [run_batch st n] executes up to [n] instructions as one macro-step.
    When the instance is fast-engine eligible (verify off, no tracer,
    interrupts off) the power/fuel budget checks are hoisted out of the
    inner loop — per provably safe stretch on [Uop], per basic block on
    [Auto]/[Block] (compiling and caching the block closures on first
    use); otherwise it is exactly [n] {!step}s.  Returns [Stepped] after
    [n] instructions, or earlier [Rebooted]/[Halted] the moment either
    occurs.  Observable behaviour is identical to stepping.
    @raise Invalid_argument when [n < 1]. *)

val output : t -> int32 list
(** Console output so far, oldest first.  Reverses the internal O(1)-append
    event list once per call — call it at inspection points, not per
    step. *)

val cut_power : t -> unit
(** Force a power failure {e now}, regardless of remaining budget, and
    reboot: the adversarial injection primitive.  No-op once halted. *)

val clone : t -> t
(** Deep snapshot: memory, registers, power cursor, WAR-tracking state and
    statistics are all duplicated; stepping either copy never affects the
    other. *)

val block_counts : t -> (string * int) list option
(** Per-machine-block entry counts folded from the per-pc execution counts
    ([None] unless the instance was created with [count_pcs:true]).  Keys
    are mangled block labels in layout order — the
    {!Wario_analysis.Costmodel.profile} shape consumed by profile-guided
    checkpoint placement. *)

val halted : t -> bool
val cycles : t -> int  (** active cycles so far *)

val pc : t -> int
val current_function : t -> string
val boots : t -> int
val memory : t -> bytes  (** copy of the current memory image *)

val nv_digest : t -> int64
(** Digest of all non-volatile memory {e excluding} the checkpoint double
    buffer (whose sequence numbers legitimately differ across power
    schedules).  After a halt, two idempotent executions of the same image
    must agree on this digest — the crash-consistency oracle's memory
    check.  A word-wise xor-multiply-shift mix over 8-byte little-endian
    words, not FNV-1a: memories that differ in exactly one word always
    digest differently, and the digest allocates nothing.  Its value is
    not stable across versions; compare digests only within one build. *)

val result : t -> result
(** Statistics so far (complete once {!halted}). *)

(** {1 Commit snapshots}

    Compact snapshots let a fault-injection oracle start an injected run
    from the continuous run's state instead of from boot, and stop it once
    it is back in that run's state.  They need a verify-mode instance (the
    default), which keeps a bitmap of the memory pages written since boot,
    marked where the WAR shadow records a byte's first write in a region. *)

val reads_ckpt_area : t -> bool
(** Whether a program load (not the checkpoint runtime) ever addressed the
    checkpoint double buffer — whose contents depend on the power
    schedule. *)

val run_to_commit : t -> int -> step
(** [run_to_commit st k] steps on the reference path until the instance
    has made [k] checkpoint commits ([Stepped], returned at once when it
    already has) or halts ([Halted]).  Power failures on the way reboot
    as in {!step}.  Commits are atomic and never re-executed, so in a run
    that replays correctly the [k]th commit is the continuous run's. *)

type snapshot
(** Registers, flags, pc, primask, pending interrupt, power cursor and
    every result counter of an instance, plus the contents of the pages it
    wrote since boot and of the checkpoint area's page. *)

val snapshot : t -> snapshot
(** Take a snapshot; cost is the pages written since boot.
    @raise Invalid_argument unless the instance verifies and its WAR
    shadow is blank (as right after a commit). *)

val snapshot_cycles : snapshot -> int
val snapshot_commits : snapshot -> int

val snapshot_bytes : snapshot -> int
(** Memory bytes the snapshot holds (whole pages). *)

val resume : ?reuse:t -> supply:Power.supply -> final:result -> snapshot -> t
(** [resume ~supply ~final s], where [s] was taken during the first
    on-period of a run that went on to halt with [final] (whose
    [region_sizes] supply the regions closed before [s]) and [supply] is
    [Schedule cuts] with [cuts.(0) >=
    snapshot_cycles s]: the instance a run from boot under [supply] would
    be when it reaches [s]'s cycle.  The first on-period spends only on
    cumulative cycles, so that run is in [s]'s state, with [cuts.(0) -
    snapshot_cycles s] cycles of the period left and the cursor past it.
    Costs a fresh instance plus a blit of the snapshot's pages; [reuse]
    lends its buffers as for {!create}.
    @raise Invalid_argument for any other supply. *)

val splice : t -> snapshot -> final:result -> result option
(** [splice st s ~final], where [s] was taken right after commit [k] of a
    run that went on to halt with [final]: when [st]
    has just made its own commit [k] in the same machine state —
    registers, flags, pc, primask, pending interrupt and all memory
    outside the checkpoint double buffer — and neither its current
    on-period nor its fuel can run out within the [final.cycles -
    snapshot_cycles s] cycles left, [st] from here on is that run's
    suffix, and the result is the one [st] would reach at its halt: its
    own output, regions, violations and counters so far joined with the
    suffix's, its own failures, boots and waste.  [None] otherwise, and
    [st] is untouched.

    Sound as long as the suffix never loads from the checkpoint area
    ({!reads_ckpt_area} of the finished run): the buffers are the only
    memory the two runs may disagree on, the runtime reads them only to
    pick the next commit's target, which costs the same either way, and
    the period outlasts the suffix, so no restore happens.  Interrupts
    must be off: their timing depends on the total cycle count. *)

type engine_stats = {
  es_blocks : int;  (** basic blocks compiled (0 if never block-dispatched) *)
  es_compile_ms : float;  (** wall time spent translating blocks *)
  es_dispatches : int;  (** fused closures executed *)
  es_fallback_steps : int;  (** checked single steps at block-engine edges *)
}

val engine_stats : t -> engine_stats
(** Block-engine telemetry for this instance: compile cost, dispatch and
    fallback counters.  All zero unless the block engine ran.  The block
    cache is compiled lazily on first block dispatch and shared with
    {!clone}s taken afterwards. *)

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
  | Reference  (** the fully instrumented per-step interpreter: the oracle *)
  | Block
      (** basic blocks compiled to OCaml closures, direct-threaded
          dispatch (default) *)
(** The two engines {!run}, {!run_batch} and {!run_to_commit} drive.
    [Block] is the branch-light twin of the reference path for any
    instance without a tracer, interrupts or per-pc counts: it hoists the
    power/fuel checks out of the inner loop to one per basic block, and
    falls back to the reference path per batch whenever the
    configuration makes it ineligible.  With [verify] on, its blocks
    record every load, store and push in the WAR shadow as the reference
    path does, so violations come out the same.  Within a batch it takes
    one reference {!step} at power/fuel edges and at any pc inside a block
    (e.g. a restored or {!clone}d pc).  Both engines produce
    byte-for-byte identical {!result} records including [waste] and
    [failure_sites]; the reference path is the oracle (qcheck property
    "block engine = reference engine" in test/test_props.ml). *)

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
    @param engine interpreter/translator selection (default [Block]).

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
    keeps the instance on the reference path (compiled blocks never touch
    per-pc state), so leave it off for measurement runs.

    [reuse], a finished verify-mode instance that is never used again,
    lends a verify-mode instance its memory and WAR-shadow buffers (and
    the page copies of a {!follow}): only the pages it wrote and its
    image's initial data are cleared, instead of allocating and clearing
    2 MiB.  Of the same image (and
    [WARIO_SAVE_ALL] setting), it lends its per-pc tables and compiled
    blocks too.  Results already taken from it are unaffected. *)

type step =
  | Stepped  (** one instruction retired *)
  | Rebooted  (** the on-period ended: power failed, rebooted, restored *)
  | Halted

val step : t -> step
(** Execute one instruction (plus any due interrupt); on power failure,
    replay the boot/restore sequence.  Idempotent once halted. *)

val run_batch : ?engine:engine -> t -> int -> step
(** [run_batch st n] executes up to [n] instructions as one macro-step.
    On [Block] (the default), when the instance is eligible (no tracer,
    interrupts off, no per-pc counts), the power/fuel budget checks are
    hoisted to one per basic block (compiling and caching the block
    closures on first use); otherwise, and on [Reference], it is exactly [n]
    {!step}s.  Returns [Stepped] after [n] instructions, or earlier
    [Rebooted]/[Halted] the moment either occurs.  Observable behaviour
    is identical to stepping.
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

(** {1 Redo log and jumps}

    An injected run that is in the continuous run's exact state at one of
    its commits is, until its power or fuel runs out, the continuous run
    itself.  A log of the continuous run lets the fault-injection oracle
    skip that stretch: it applies the logged stores instead of executing
    them.  Both need a verify-mode instance, whose WAR shadow records
    every program store. *)

val reads_ckpt_area : t -> bool
(** Whether a program load (not the checkpoint runtime) ever addressed the
    checkpoint double buffer — whose contents depend on the power
    schedule. *)

val run_to_commit : ?engine:engine -> t -> int -> step
(** [run_to_commit st k] runs batches of {!run_batch} on [engine]
    (default [Block]) until the instance has made [k] checkpoint commits
    ([Stepped], returned at once when it already has) or halts
    ([Halted]); it stops right after the [k]th commit.  Power failures on
    the way reboot as in {!step}.  Commits are atomic and never
    re-executed, so in a run that replays correctly the [k]th commit is
    the continuous run's. *)

type log
(** The continuous run's redo log.  Per commit: active cycles, retired
    instructions, resume pc, flags, primask and cause, and per region
    (commit to commit, the last one to the halt) the bytes it left
    written, the registers and the call counters that changed, and
    every 256th commit a base of pages for long jumps.  Packed int32
    words: about 14 words per commit on fib. *)

val start_log : t -> unit
(** [start_log st] makes [st], a freshly created continuous-power
    verify-mode instance without interrupts or tracer, log every region
    as it commits, whatever engine then runs it.
    @raise Invalid_argument for any other instance. *)

val finish_log : continuous:result -> t -> log option
(** [finish_log ~continuous st], once [st] has halted, closes its last
    region and returns its log.  [continuous] is [st]'s result (or that
    of another continuous run of the same image): the log shares its
    region list with the results of runs that jump to the halt.  [None]
    when the run has WAR violations or loads from or stores to the
    checkpoint area: a jump would then skip behaviour that depends on the
    power schedule.
    @raise Invalid_argument unless [st] is a halted logging instance and
    [continuous] a result of its run. *)

val log_bytes : log -> int
val log_commits : log -> int

type jumps = {
  jumps : int;  (** jumps taken *)
  from_boot : bool;  (** the first one was taken right after boot *)
  to_halt : bool;  (** the run reached its halt by a jump *)
}

val follow : ?engine:engine -> t -> log -> jumps
(** [follow st log], where [st] was created from [log]'s image (same
    [WARIO_SAVE_ALL] setting) with verify on and no interrupts, tracer or
    per-pc counts, and has executed nothing yet, runs [st] to its halt
    on [engine], like stepping, but takes jumps.  At a stop — right after
    boot, or right after a commit [k] the run made itself — it finds the
    last logged commit [m] (or the halt) that the current on-period and
    the fuel still reach from [k] on the logged timeline.  When [m > k]
    and the run is in the logged state at [k], it moves the run to the
    logged state at [m]: it applies the logged stores, registers and call
    counts of regions [k + 1 .. m], counts their commits and outputs,
    writes the double-buffer words that the next restore reads (seq,
    mask, pc, sp, flags and masked registers of commits [m - 1] and [m])
    and spends the cycles from the period and the fuel.  The run then
    goes on stepping into the failure that the jump stopped short of.

    "In the logged state" is an exact equality check, made unless the run
    has executed nothing since its last jump: registers, flags, pc,
    primask, pending interrupt, and every byte outside the checkpoint
    area of every page written since the last verified commit, by the run
    or by the log.  The run keeps a copy of each page it writes after a
    verified commit, taken before the write, to rebuild the logged pages
    from.  A failed check is retried 1, 2, 4, ... commits later.

    Sound because the machine is deterministic: from equal registers,
    flags, pc and memory outside the checkpoint area the run executes
    exactly what the logged run executed, as long as nothing reads the
    double buffer ({!finish_log} refuses such runs) and its period and fuel
    last; and the restore after the failure reads only the words the jump
    wrote.  Every result record, digest and verdict equals stepping's: the
    qcheck property "oracle runs jumped = runs from boot" in
    test/test_props.ml holds the two together.
    @raise Invalid_argument for any other instance or log. *)

type engine_stats = {
  es_blocks : int;  (** basic blocks compiled (0 if never block-dispatched) *)
  es_compile_ms : float;  (** wall time spent translating blocks *)
  es_dispatches : int;  (** block closures executed *)
  es_fallback_steps : int;  (** reference steps at block-engine edges *)
}

val engine_stats : t -> engine_stats
(** Block-engine telemetry for this instance: compile cost, dispatch and
    fallback counters.  The counters are zero unless the block engine
    ran on it.  The block cache is compiled lazily on first block
    dispatch and shared with {!clone}s of the instance and with instances
    it is the [reuse] of (block count and compile cost are then the
    lender's); it is dropped with the last instance that holds it. *)

(* Cortex-M-class emulator for TM2 images (the paper's custom Unicorn-based
   emulator, §5.1.1, rebuilt as an interpreter).

   Modelled:
   - a three-stage-pipeline cycle model (taken branches pay a refill);
   - non-volatile main memory, volatile registers/flags;
   - the double-buffered checkpoint runtime: [Ckpt] saves the live
     registers (mask) + sp/pc/flags into the inactive buffer and commits by
     bumping its sequence number — a power failure mid-checkpoint leaves the
     previous checkpoint intact;
   - intermittent power ([Power]): every instruction (and the checkpoint
     commit, atomically) spends from the current on-period budget; running
     dry is a power failure: volatile state clears, and on the next
     on-period the boot sequence and checkpoint restore replay;
   - optional periodic interrupts: exception entry pushes eight words at sp
     exactly like the hardware, which is the WAR hazard the pop converter
     and epilog optimizer exist for; [Cpsid]/[Cpsie] defer delivery;
   - WAR-violation-absence verification (paper §5.1.1): per idempotent
     region, a write to a byte first accessed by a read is a violation —
     checked on *every* access including back-end stack traffic;
   - statistics: executed checkpoints by cause, idempotent region sizes in
     cycles, power failures, cycle/instruction totals. *)

module I = Wario_machine.Isa
module Tr = Wario_obs.Trace

exception Emu_error of string
exception No_forward_progress of string

let no_forward_progress_threshold = 2000
let boot_cycles = 400
let halt_magic = 0x7fffffffl

type violation = { v_pc : int; v_func : string; v_addr : int; v_instr : string }

type cause_counts = {
  mutable c_entry : int;
  mutable c_exit : int;
  mutable c_middle : int;
  mutable c_backend : int;
}

type waste = {
  w_useful : int;  (** first-execution work that survived to a commit/halt *)
  w_boot : int;  (** boot sequences (400 cycles each) *)
  w_restore : int;  (** checkpoint restore replays *)
  w_reexec : int;  (** work discarded by power failures, later redone *)
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
      (** one [(commits_so_far, lost_work)] per power failure, in order;
          locates each failure on the continuous run's timeline (see mli) *)
  boots : int;
  violations : violation list;
  irqs_taken : int;
  call_counts : (string * int) list;
      (** dynamic calls per callee (a profile for the Expander) *)
  waste : waste;
      (** decomposition of [cycles]: useful + boot + restore + re-executed *)
}

(* [budget]: remaining cycles in the current on-period; [unlimited_budget]
   encodes a continuous supply.  An int (not [int option]) so the
   per-instruction spend never allocates. *)
let unlimited_budget = max_int

(* canonical register representation: 32-bit values sign-extended to native
   ints ([Int32.to_int] form), so register traffic never allocates *)
let[@inline] sext32 v = ((v land 0xffffffff) lxor 0x80000000) - 0x80000000

let halt_magic_i = Int32.to_int halt_magic

(* unboxed little-endian halfword accessors over a [Bytes.t] whose bounds
   have already been checked; 32-bit traffic composes two of them so no
   boxed [int32] is ever materialized *)
let[@inline] ld16 mem a =
  Char.code (Bytes.unsafe_get mem a)
  lor (Char.code (Bytes.unsafe_get mem (a + 1)) lsl 8)

let[@inline] st16 mem a v =
  Bytes.unsafe_set mem a (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set mem (a + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

let[@inline] ld32 mem a = sext32 (ld16 mem a lor (ld16 mem (a + 2) lsl 16))

let[@inline] st32 mem a v =
  st16 mem a v;
  st16 mem (a + 2) (v lsr 16)

(* Predecoded micro-ops for the fast path.  Every static decode decision —
   operand shape (register vs immediate), access width, ALU operator — is
   folded into one constant constructor at [create], so the interpreter
   loop dispatches through a single jump table over an immediate array
   instead of re-matching nested variants (and re-unboxing [int32]
   immediates) on every execution of the same pc. *)
type uop =
  (* ALU, register / immediate second operand *)
  | U_add_r | U_sub_r | U_rsb_r | U_mul_r | U_sdiv_r | U_udiv_r
  | U_and_r | U_orr_r | U_eor_r | U_lsl_r | U_lsr_r | U_asr_r
  | U_add_i | U_sub_i | U_rsb_i | U_mul_i | U_sdiv_i | U_udiv_i
  | U_and_i | U_orr_i | U_eor_i | U_lsl_i | U_lsr_i | U_asr_i
  (* moves and compares *)
  | U_mov_r | U_mov_i | U_movw
  | U_movc_r | U_movc_i
  | U_cmp_r | U_cmp_i
  (* loads: immediate offset / register offset, by width *)
  | U_ldr8 | U_ldr8s | U_ldr16 | U_ldr16s | U_ldr32
  | U_ldrr8 | U_ldrr8s | U_ldrr16 | U_ldrr16s | U_ldrr32
  (* stores (sign-extending widths store identically to their unsigned
     twins, so S8/S16 fold into W8/W16 at predecode) *)
  | U_str8 | U_str16 | U_str32
  | U_strr8 | U_strr16 | U_strr32
  | U_push
  (* control *)
  | U_b | U_bc | U_bl | U_bx_lr
  (* intermittence support *)
  | U_ckpt | U_cpsid | U_cpsie
  | U_svc_print | U_svc_halt
  | U_pseudo

type state = {
  img : Image.t;
  supply_desc : string;  (** for diagnostics (No_forward_progress) *)
  mem : Bytes.t;
  (* the single register file, shared by every engine: canonical
     sign-extended native ints (no boxed [int32] traffic anywhere on the
     hot paths — conversion happens only at halt/console/image edges) *)
  regs : int array;
  mutable nf : bool;
  mutable zf : bool;
  mutable cf : bool;
  mutable vf : bool;
  mutable pc : int;
  mutable primask : bool;  (** true = interrupts disabled *)
  mutable pending_irq : bool;
  mutable halted : bool;
  mutable exit_code : int32;
  (* power *)
  power : Power.t;
  mutable budget : int;  (** [unlimited_budget] = continuous *)
  mutable cycles : int;
  mutable instrs : int;
  fuel : int;
  (* interrupts *)
  irq_period : int;
  mutable next_irq_at : int;
  mutable irqs_taken : int;
  (* verification: the WAR shadow.  [kinds] holds one byte per address —
     ' ' untouched in the current region, 'r' first accessed by a read, 'w'
     first accessed by a write (or already reported) — and [touched] lists
     the indices of the non-blank bytes, [n_touched] of them, so a region
     boundary resets only what the region touched.  Both are empty when
     [verify] is off: nothing reaches the shadow then. *)
  verify : bool;
  kinds : Bytes.t;
  mutable touched : int array;
  mutable n_touched : int;
  mutable violations : violation list;
  (* pages written since boot, one byte per [page_size] page ('\001' =
     written), marked where the shadow first records a write; [ckpt_read]:
     a tracked load addressed the checkpoint area.  Both feed {!snapshot}
     and {!splice}; the bitmap is empty when [verify] is off. *)
  written : Bytes.t;
  mutable ckpt_read : bool;
  (* stats *)
  counts : cause_counts;
  mutable region_start : int;
  mutable regions_rev : int list;
  mutable failures : int;
  mutable boots : int;
  mutable boots_since_commit : int;
  mutable out_rev : int32 list;
  (* dense per-function dynamic call counters (the Expander profile);
     indexed by the function's slot in [fn_names] *)
  fn_names : string array;
  fn_calls : int array;
  (* per-pc tables precomputed by [create] — every per-instruction cost
     that is static (which is all of them except a not-taken [Bc]) is
     paid for once here instead of per step: *)
  save_all : bool;  (** WARIO_SAVE_ALL, read once at [create] *)
  debug_boots : bool;  (** WARIO_DEBUG_EMU, read once at [create] *)
  cost : int array;  (** static spend per pc ([Bc]: the taken cost, 3) *)
  eff_mask : int array;
      (** effective checkpoint mask per pc ([Ckpt]/[Svc 0]); -1 elsewhere *)
  push_n : int array;  (** registers pushed per pc ([Push]); 0 elsewhere *)
  call_fn : int array;  (** callee's [fn_names] slot per pc ([Bl]); -1 *)
  max_step_cost : int;  (** max of [cost]: batch-headroom unit *)
  (* predecoded program (fast path): micro-op plus up to three int
     operands per pc.  Operand meaning is per-[uop]: register numbers,
     sign-extended immediates/offsets, branch targets, callee slots.
     [fcond] carries the condition for [U_bc]/[U_movc_*] pcs ([AL]
     elsewhere).  All five are immediate arrays — reads never allocate. *)
  fop : uop array;
  fa : int array;
  fb : int array;
  fc : int array;
  fcond : I.cond array;
  (* profiling: per-pc execution counts for the PGO pilot run ([None] =
     off).  Counting forces the reference path ([fast_eligible] checks it):
     the fast path's batches never touch per-pc state. *)
  pc_counts : int array option;
  (* observability *)
  tracer : Tr.sink;
  trace_on : bool;
  mutable trace_func : string;  (** last function attributed on the tracer *)
  mutable acc_boot : int;  (** cycles spent in boot sequences *)
  mutable acc_restore : int;  (** cycles spent replaying restores *)
  mutable acc_reexec : int;  (** work cycles discarded by power failures *)
  mutable work_at_commit : int;  (** work-cycle counter at the last commit *)
  mutable commits : int;  (** checkpoint commits so far (monotone) *)
  mutable fail_sites_rev : (int * int) list;
      (** per power failure: (commits so far, work cycles lost) *)
  mutable period_live : bool;
      (** boot + restore completed for the current power period — failures
          before that land at the resume point itself, so no shortfall is
          charged to the failure site *)
  (* block engine: basic blocks translated to fused closures, compiled
     lazily on first use.  Closures are parameterized over the state (they
     capture only per-image constants), so the cache is shared by [clone]s. *)
  mutable bcache : bcache option;
  mutable n_dispatch : int;  (** block-closure dispatches *)
  mutable n_fallback : int;  (** checked single-step fallbacks (block engine) *)
}

and bblock = {
  b_pc : int;  (** leader pc *)
  b_ninstr : int;  (** instructions retired by one complete execution *)
  b_maxcost : int;  (** worst-case cycle spend across the block's exits *)
  b_exec : state -> int;
      (** runs the whole block; returns the successor block index, or -1
          when the successor must be resolved from [st.pc] (dynamic branch,
          halt, off-image fallthrough — the closure has published [st.pc]) *)
}

and bcache = {
  bc_blocks : bblock array;  (** in leader order *)
  bc_index : int array;  (** pc -> block index; -1 for non-leader pcs *)
  bc_compile_ms : float;
}

(* Work cycles: everything except boot and restore replay.  Work done since
   the last commit is provisionally useful; a power failure discards it
   (it will re-execute), which is the wasted-cycle accounting behind
   [result.waste]. *)
let work_total st = st.cycles - st.acc_boot - st.acc_restore

(* ------------------------------------------------------------------ *)
(* Memory with WAR tracking                                             *)
(* ------------------------------------------------------------------ *)

let ckpt_end = Image.ckpt_base + 0x100
let in_ckpt_area a = a >= Image.ckpt_base && a < ckpt_end

let check_addr st a n =
  if a < 0x40 || a + n > Image.mem_size then
    raise
      (Emu_error
         (Printf.sprintf "memory fault at 0x%x (pc=%d, %s)" a st.pc
            (I.string_of_instr st.img.Image.code.(st.pc))))

(* initial capacity of the touched list; it doubles when a region touches
   more distinct bytes *)
let touched_initial = 1024

(* First access to byte [i] in the current region: record its kind and
   push the index so [clear_shadow] can blank it again.  Callers have
   bounds-checked [i] with [check_addr]. *)
let mark st i kind =
  Bytes.unsafe_set st.kinds i kind;
  let n = st.n_touched in
  if n = Array.length st.touched then begin
    let grown = Array.make (max touched_initial (2 * n)) 0 in
    Array.blit st.touched 0 grown 0 n;
    st.touched <- grown
  end;
  Array.unsafe_set st.touched n i;
  st.n_touched <- n + 1

(* Pages of [page_size] bytes: the unit a snapshot copies.  1 KiB keeps
   a snapshot's footprint near the bytes actually written (a stack top, a
   few globals) while the checkpoint area still fits in page 0. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let n_pages = Image.mem_size lsr page_bits

(* Start a new region: O(bytes touched in the old one), not O(memory). *)
let clear_shadow st =
  for j = 0 to st.n_touched - 1 do
    Bytes.unsafe_set st.kinds (Array.unsafe_get st.touched j) ' '
  done;
  st.n_touched <- 0

let track_read st a n =
  if st.verify then
    if in_ckpt_area a then st.ckpt_read <- true
    else
      for i = a to a + n - 1 do
        if Bytes.unsafe_get st.kinds i = ' ' then mark st i 'r'
      done

(* A byte turns 'w' at most once per region, and only here: that is
   where the written-page bitmap is kept, one store per byte first written
   in a region. *)
let track_write st a n =
  if st.verify && not (in_ckpt_area a) then
    for i = a to a + n - 1 do
      let k = Bytes.unsafe_get st.kinds i in
      if k = ' ' then begin
        mark st i 'w';
        Bytes.unsafe_set st.written (i lsr page_bits) '\001'
      end
      else if k = 'r' then begin
        Bytes.unsafe_set st.written (i lsr page_bits) '\001';
        st.violations <-
          {
            v_pc = st.pc;
            v_func = st.img.Image.func_of_pc.(st.pc);
            v_addr = i;
            v_instr = I.string_of_instr st.img.Image.code.(st.pc);
          }
          :: st.violations;
        (* only report each byte once per region *)
        Bytes.unsafe_set st.kinds i 'w'
      end
    done

let region_boundary st =
  clear_shadow st;
  st.regions_rev <- (st.cycles - st.region_start) :: st.regions_rev;
  st.region_start <- st.cycles

let load st w a =
  let a = a land 0xffffffff in
  let n = I.bytes_of_width w in
  check_addr st a n;
  track_read st a n;
  match w with
  | I.W8 -> Char.code (Bytes.get st.mem a)
  | I.S8 ->
      let v = Char.code (Bytes.get st.mem a) in
      if v >= 0x80 then v - 0x100 else v
  | I.W16 -> Bytes.get_uint16_le st.mem a
  | I.S16 -> Bytes.get_int16_le st.mem a
  | I.W32 -> ld32 st.mem a

let store st w a v =
  let a = a land 0xffffffff in
  let n = I.bytes_of_width w in
  check_addr st a n;
  track_write st a n;
  match w with
  | I.W8 | I.S8 -> Bytes.set st.mem a (Char.chr (v land 0xff))
  | I.W16 | I.S16 -> Bytes.set_uint16_le st.mem a (v land 0xffff)
  | I.W32 -> st32 st.mem a v

(* raw accesses for the checkpoint runtime (never tracked); canonical ints *)
let raw_store32 st a v = st32 st.mem a v
let raw_load32 st a = ld32 st.mem a

(* ------------------------------------------------------------------ *)
(* ALU and flags                                                        *)
(* ------------------------------------------------------------------ *)

(* over canonical (sign-extended) native ints; agrees bit-for-bit with the
   historical [Int32] semantics (the qcheck equivalence properties pin it) *)
let eval_alu op (a : int) (b : int) : int =
  let sh = b land 255 in
  match op with
  | I.ADD -> sext32 (a + b)
  | I.SUB -> sext32 (a - b)
  | I.RSB -> sext32 (b - a)
  | I.MUL -> sext32 (a * b)
  | I.SDIV ->
      (* Cortex-M semantics: division by zero yields 0 (DIV_0_TRP clear) *)
      if b = 0 then 0
      else if a = -0x80000000 && b = -1 then -0x80000000
      else a / b
  | I.UDIV ->
      let x = a land 0xffffffff and y = b land 0xffffffff in
      if y = 0 then 0 else sext32 (x / y)
  | I.AND -> a land b
  | I.ORR -> a lor b
  | I.EOR -> a lxor b
  | I.LSL -> if sh >= 32 then 0 else sext32 (a lsl sh)
  | I.LSR -> if sh >= 32 then 0 else sext32 ((a land 0xffffffff) lsr sh)
  | I.ASR -> if sh >= 32 then a asr 31 else a asr sh

let[@inline] set_flags st a b =
  let d = sext32 (a - b) in
  st.nf <- d < 0;
  st.zf <- d = 0;
  st.cf <- a land 0xffffffff >= b land 0xffffffff;
  st.vf <- (a < 0 && b >= 0 && d >= 0) || (a >= 0 && b < 0 && d < 0)

let cond_holds st = function
  | I.EQ -> st.zf
  | I.NE -> not st.zf
  | I.LT -> st.nf <> st.vf
  | I.LE -> st.zf || st.nf <> st.vf
  | I.GT -> (not st.zf) && st.nf = st.vf
  | I.GE -> st.nf = st.vf
  | I.LO -> not st.cf
  | I.LS -> (not st.cf) || st.zf
  | I.HI -> st.cf && not st.zf
  | I.HS -> st.cf
  | I.AL -> true

let pack_flags st =
  (if st.nf then 1 else 0)
  lor (if st.zf then 2 else 0)
  lor (if st.cf then 4 else 0)
  lor if st.vf then 8 else 0

let unpack_flags st v =
  st.nf <- v land 1 <> 0;
  st.zf <- v land 2 <> 0;
  st.cf <- v land 4 <> 0;
  st.vf <- v land 8 <> 0

(* ------------------------------------------------------------------ *)
(* Checkpoint runtime (double buffered)                                 *)
(* ------------------------------------------------------------------ *)

let buffer_stride = 0x80
let buf_addr i = Image.ckpt_base + (i * buffer_stride)

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let ckpt_cost mask = 12 + (2 * (popcount mask + 3)) (* + sp, pc, flags *)
let restore_cost mask = 8 + (2 * (popcount mask + 3))

let active_buffer st =
  let s0 = raw_load32 st (buf_addr 0) and s1 = raw_load32 st (buf_addr 1) in
  if s0 = 0 && s1 = 0 then None
  else if s0 land 0xffffffff >= s1 land 0xffffffff then Some 0
  else Some 1

let obs_cause : I.ckpt_cause -> Tr.cause = function
  | I.Function_entry -> Tr.Entry
  | I.Function_exit -> Tr.Exit
  | I.Middle_end_war -> Tr.Middle
  | I.Back_end_war -> Tr.Backend

(* Bytes a commit writes into its buffer: seq, mask, pc, sp, flags + the
   masked registers. *)
let ckpt_bytes mask = 4 * (popcount mask + 5)

let commit_checkpoint st ~(cause : Tr.cause) mask resume_pc =
  let target =
    match active_buffer st with Some 0 -> 1 | Some _ -> 0 | None -> 0
  in
  let base = buf_addr target in
  raw_store32 st (base + 4) mask;
  raw_store32 st (base + 8) resume_pc;
  raw_store32 st (base + 12) st.regs.(I.sp);
  raw_store32 st (base + 16) (pack_flags st);
  for r = 0 to 14 do
    if mask land (1 lsl r) <> 0 then
      raw_store32 st (base + 20 + (4 * r)) st.regs.(r)
  done;
  (* commit: bump the sequence number last *)
  let seq =
    sext32
      (1
      +
      match active_buffer st with
      | None -> 0
      | Some i -> raw_load32 st (buf_addr i))
  in
  raw_store32 st base seq;
  st.boots_since_commit <- 0;
  st.commits <- st.commits + 1;
  st.work_at_commit <- work_total st;
  if st.trace_on then
    Tr.emit st.tracer st.cycles
      (Tr.Checkpoint
         {
           cause;
           pc = st.pc;
           func = st.img.Image.func_of_pc.(st.pc);
           mask;
           bytes = ckpt_bytes mask;
           cost = ckpt_cost mask;
         });
  region_boundary st

(* Returns the replay cost in cycles, or [None] when there is no committed
   checkpoint to restore (cold start). *)
let restore_checkpoint st : int option =
  match active_buffer st with
  | None -> None
  | Some i ->
      let base = buf_addr i in
      let mask = raw_load32 st (base + 4) in
      st.pc <- raw_load32 st (base + 8);
      st.regs.(I.sp) <- raw_load32 st (base + 12);
      unpack_flags st (raw_load32 st (base + 16));
      for r = 0 to 14 do
        if r <> I.sp then
          st.regs.(r) <-
            (if mask land (1 lsl r) <> 0 then raw_load32 st (base + 20 + (4 * r))
             else 0)
      done;
      let cost = restore_cost mask in
      st.cycles <- st.cycles + cost;
      Some cost

(* ------------------------------------------------------------------ *)
(* Power                                                                *)
(* ------------------------------------------------------------------ *)

exception Power_failed

(* Spend [c] cycles atomically; raises [Power_failed] if the budget cannot
   cover them (the action does not take place).  An unlimited budget is
   [unlimited_budget] cycles: far above any reachable spend (fuel caps the
   total), so the same two branch-free int operations serve both cases. *)
let spend st c =
  if st.budget < c then
    (* the remaining budget is kept: [power_failure] reads it as the
       shortfall between the last retired instruction and the cycle power
       actually died, and [power_on] overwrites it for the next period *)
    raise Power_failed;
  st.budget <- st.budget - c;
  st.cycles <- st.cycles + c;
  if st.cycles > st.fuel then
    raise (Emu_error "cycle budget exhausted (no termination?)")

let cold_start st =
  st.pc <- st.img.Image.entry;
  Array.fill st.regs 0 16 0;
  st.regs.(I.sp) <- Image.stack_top;
  st.regs.(I.lr) <- halt_magic_i;
  st.nf <- false;
  st.zf <- false;
  st.cf <- false;
  st.vf <- false

let power_on st =
  st.boots <- st.boots + 1;
  st.boots_since_commit <- st.boots_since_commit + 1;
  if st.boots_since_commit > no_forward_progress_threshold then
    raise (No_forward_progress st.supply_desc);
  st.budget <-
    (match Power.next_budget st.power with
    | Some b -> b
    | None -> unlimited_budget);
  st.primask <- false;
  st.pending_irq <- false;
  (* boot + restore; failing inside these just burns the period *)
  spend st boot_cycles;
  st.acc_boot <- st.acc_boot + boot_cycles;
  let restored =
    match restore_checkpoint st with
    | Some cost ->
        st.acc_restore <- st.acc_restore + cost;
        Some cost
    | None ->
        cold_start st;
        None
  in
  if st.debug_boots && (st.boots < 50 || st.boots mod 10000 = 0) then
    Printf.eprintf "boot %d: pc=%d (%s) cycles=%d\n%!" st.boots st.pc
      st.img.Image.func_of_pc.(st.pc) st.cycles;
  if st.trace_on then begin
    let func = st.img.Image.func_of_pc.(st.pc) in
    Tr.emit st.tracer st.cycles
      (Tr.Boot
         {
           seq = st.boots;
           restored = restored <> None;
           boot_cost = boot_cycles;
           restore_cost = Option.value restored ~default:0;
           func;
         });
    st.trace_func <- func
  end;
  clear_shadow st;
  st.region_start <- st.cycles;
  st.period_live <- true;
  (* the interrupt timer starts once the application code resumes *)
  st.next_irq_at <- st.cycles + st.irq_period

let power_failure st =
  st.failures <- st.failures + 1;
  (* work since the last commit is discarded: it will be re-executed *)
  let lost = work_total st - st.work_at_commit in
  st.acc_reexec <- st.acc_reexec + lost;
  (* [lost] is this period's retired progress past the resume point, and
     the unspent budget remainder is the shortfall to the cycle power
     actually died (the in-flight spend did not fit), so
     (commits, lost + shortfall) pins the failure exactly on the
     continuous run's timeline — the campaign's cut-coverage accounting
     reads this.  Failures during boot/restore land at the resume point. *)
  let shortfall = if st.period_live then max 0 st.budget else 0 in
  st.fail_sites_rev <- (st.commits, lost + shortfall) :: st.fail_sites_rev;
  st.period_live <- false;
  st.work_at_commit <- work_total st;
  if st.trace_on then
    Tr.emit st.tracer st.cycles (Tr.Power_failure { lost_cycles = lost });
  Array.fill st.regs 0 16 0

(* ------------------------------------------------------------------ *)
(* Interrupts                                                           *)
(* ------------------------------------------------------------------ *)

(* Hardware exception entry/exit: push {r0-r3, r12, lr, pc, xpsr} at sp,
   run an empty handler, pop, return.  The pushes are real tracked writes:
   this is precisely the ISR WAR hazard of paper §3.1.3. *)
let take_irq st =
  spend st 24;
  let sp = st.regs.(I.sp) in
  let frame = sp - 32 in
  let values =
    [|
      st.regs.(0); st.regs.(1); st.regs.(2); st.regs.(3); st.regs.(12);
      st.regs.(I.lr); st.pc; pack_flags st;
    |]
  in
  check_addr st frame 32;
  Array.iteri
    (fun i v ->
      track_write st (frame + (4 * i)) 4;
      raw_store32 st (frame + (4 * i)) v)
    values;
  (* empty handler; exception return reads the frame back *)
  for i = 0 to 7 do
    track_read st (frame + (4 * i)) 4;
    ignore (raw_load32 st (frame + (4 * i)))
  done;
  st.irqs_taken <- st.irqs_taken + 1;
  if st.trace_on then
    Tr.emit st.tracer st.cycles
      (Tr.Irq { pc = st.pc; func = st.img.Image.func_of_pc.(st.pc) })

let maybe_irq st =
  if st.irq_period > 0 && st.cycles >= st.next_irq_at then begin
    st.next_irq_at <- st.cycles + st.irq_period;
    if st.primask then st.pending_irq <- true else take_irq st
  end
  else if st.pending_irq && not st.primask then begin
    st.pending_irq <- false;
    take_irq st
  end

(* ------------------------------------------------------------------ *)
(* Instruction execution                                                *)
(* ------------------------------------------------------------------ *)

let op2 st = function I.R r -> st.regs.(r) | I.I i -> Int32.to_int i

let exec_instr st (ins : I.instr) =
  let next = st.pc + 1 in
  match ins with
  | I.Alu (op, rd, rn, o) ->
      spend st (match op with I.SDIV | I.UDIV -> 6 | _ -> 1);
      st.regs.(rd) <- eval_alu op st.regs.(rn) (op2 st o);
      st.pc <- next
  | I.Mov (rd, o) ->
      spend st 1;
      st.regs.(rd) <- op2 st o;
      st.pc <- next
  | I.Movw32 (rd, v) ->
      spend st 2;
      st.regs.(rd) <- Int32.to_int v;
      st.pc <- next
  | I.Movc (c, rd, o) ->
      spend st 1;
      if cond_holds st c then st.regs.(rd) <- op2 st o;
      st.pc <- next
  | I.Cmp (rn, o) ->
      spend st 1;
      set_flags st st.regs.(rn) (op2 st o);
      st.pc <- next
  | I.Ldr (w, rd, rn, off) ->
      spend st 2;
      st.regs.(rd) <- load st w (st.regs.(rn) + Int32.to_int off);
      st.pc <- next
  | I.LdrR (w, rd, rn, rm) ->
      spend st 2;
      st.regs.(rd) <- load st w (st.regs.(rn) + st.regs.(rm));
      st.pc <- next
  | I.Str (w, rd, rn, off) ->
      spend st 2;
      store st w (st.regs.(rn) + Int32.to_int off) st.regs.(rd);
      st.pc <- next
  | I.StrR (w, rd, rn, rm) ->
      spend st 2;
      store st w (st.regs.(rn) + st.regs.(rm)) st.regs.(rd);
      st.pc <- next
  | I.AdrData (rd, _, _) ->
      spend st 2;
      st.regs.(rd) <- Int32.to_int st.img.Image.adr.(st.pc);
      st.pc <- next
  | I.Push rs ->
      spend st st.cost.(st.pc);
      let n = st.push_n.(st.pc) in
      let sp = st.regs.(I.sp) - (4 * n) in
      check_addr st sp (4 * n);
      List.iteri
        (fun i r ->
          track_write st (sp + (4 * i)) 4;
          raw_store32 st (sp + (4 * i)) st.regs.(r))
        rs;
      st.regs.(I.sp) <- sp;
      st.pc <- next
  | I.B _ ->
      spend st 3;
      st.pc <- st.img.Image.target.(st.pc)
  | I.Bc (c, _) ->
      if cond_holds st c then begin
        spend st 3;
        st.pc <- st.img.Image.target.(st.pc)
      end
      else begin
        spend st 1;
        st.pc <- next
      end
  | I.Bl _ ->
      spend st 4;
      let idx = st.call_fn.(st.pc) in
      st.fn_calls.(idx) <- st.fn_calls.(idx) + 1;
      st.regs.(I.lr) <- next;
      st.pc <- st.img.Image.target.(st.pc)
  | I.Bx_lr ->
      spend st 3;
      if st.regs.(I.lr) = halt_magic_i then begin
        st.halted <- true;
        st.exit_code <- Int32.of_int st.regs.(0);
        if st.trace_on then
          Tr.emit st.tracer st.cycles (Tr.Halt { exit_code = st.exit_code })
      end
      else st.pc <- st.regs.(I.lr)
  | I.Ckpt (cause, _) ->
      (* effective mask (WARIO_SAVE_ALL folded in) and its cost are
         precomputed per pc by [create] *)
      let mask = st.eff_mask.(st.pc) in
      spend st st.cost.(st.pc);
      commit_checkpoint st ~cause:(obs_cause cause) mask next;
      (match cause with
      | I.Function_entry -> st.counts.c_entry <- st.counts.c_entry + 1
      | I.Function_exit -> st.counts.c_exit <- st.counts.c_exit + 1
      | I.Middle_end_war -> st.counts.c_middle <- st.counts.c_middle + 1
      | I.Back_end_war -> st.counts.c_backend <- st.counts.c_backend + 1);
      st.pc <- next
  | I.Cpsid ->
      spend st 1;
      st.primask <- true;
      st.pc <- next
  | I.Cpsie ->
      spend st 1;
      st.primask <- false;
      st.pc <- next
  | I.Svc 0 ->
      (* console output, made atomic with an implicit checkpoint (the
         standard treatment of peripheral output; not counted in the cause
         statistics) *)
      let mask = st.eff_mask.(st.pc) in
      spend st st.cost.(st.pc);
      st.out_rev <- Int32.of_int st.regs.(0) :: st.out_rev;
      commit_checkpoint st ~cause:Tr.Console mask next;
      st.pc <- next
  | I.Svc _ ->
      spend st 1;
      st.halted <- true;
      st.exit_code <- Int32.of_int st.regs.(0);
      if st.trace_on then
        Tr.emit st.tracer st.cycles (Tr.Halt { exit_code = st.exit_code })
  | I.FrameAddr _ | I.SpillLd _ | I.SpillSt _ ->
      raise (Emu_error ("pseudo instruction in linked code: " ^ I.string_of_instr ins))

(* ------------------------------------------------------------------ *)
(* Top level                                                            *)
(* ------------------------------------------------------------------ *)

let init_memory st =
  List.iter
    (fun (a, n, v) ->
      match n with
      | 1 -> Bytes.set st.mem a (Char.chr (Int32.to_int v land 0xff))
      | 2 -> Bytes.set_uint16_le st.mem a (Int32.to_int v land 0xffff)
      | _ -> Bytes.set_int32_le st.mem a v)
    st.img.Image.init_image

let ckpt_page = Image.ckpt_base lsr page_bits
let () = assert ((ckpt_end - 1) lsr page_bits = ckpt_page)

(* Memory, WAR shadow and touched list of [old], a finished verify-mode
   instance nobody uses again, for a new instance: zeroing the pages [old]
   wrote, the checkpoint area's (which the runtime writes untracked) and
   [old]'s initial data clears the memory, and the caller's [init_memory]
   makes it a fresh instance's. *)
let recycled_buffers old =
  clear_shadow old;
  for p = 0 to n_pages - 1 do
    if p = ckpt_page || Bytes.get old.written p <> '\000' then
      Bytes.fill old.mem (p * page_size) page_size '\000'
  done;
  List.iter
    (fun (a, n, _) -> Bytes.fill old.mem a n '\000')
    old.img.Image.init_image;
  (old.mem, old.kinds, old.touched)

let fresh_buffers () =
  ( Bytes.make Image.mem_size '\000',
    Bytes.make Image.mem_size ' ',
    Array.make touched_initial 0 )

type t = state

(* Per-pc cost/mask/callee tables, computed once per instance.  They fold
   every static per-instruction decision — ALU cost class, checkpoint mask
   (incl. the WARIO_SAVE_ALL override) and its popcount-derived cost, push
   width, callee identity — out of the interpreter loop. *)
let build_tables ~save_all (img : Image.t) =
  let n = Array.length img.Image.code in
  let cost = Array.make n 1
  and eff_mask = Array.make n (-1)
  and push_n = Array.make n 0
  and call_fn = Array.make n (-1)
  and fop = Array.make n U_pseudo
  and fa = Array.make n 0
  and fb = Array.make n 0
  and fc = Array.make n 0
  and fcond = Array.make n I.AL in
  (* dense function indexing, in func_of_pc order (deterministic) *)
  let index = Hashtbl.create 16 in
  let names_rev = ref [] in
  let fn_index name =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length index in
        Hashtbl.add index name i;
        names_rev := name :: !names_rev;
        i
  in
  Array.iter (fun f -> ignore (fn_index f)) img.Image.func_of_pc;
  for pc = 0 to n - 1 do
    cost.(pc) <-
      (match img.Image.code.(pc) with
      | I.Alu (op, _, _, _) -> (
          match op with I.SDIV | I.UDIV -> 6 | _ -> 1)
      | I.Mov _ | I.Movc _ | I.Cmp _ | I.Cpsid | I.Cpsie -> 1
      | I.Movw32 _ | I.Ldr _ | I.LdrR _ | I.Str _ | I.StrR _ | I.AdrData _ ->
          2
      | I.Push rs ->
          push_n.(pc) <- List.length rs;
          1 + List.length rs
      | I.B _ | I.Bx_lr -> 3
      | I.Bc _ -> 3 (* taken; not-taken costs 1 *)
      | I.Bl _ ->
          call_fn.(pc) <-
            fn_index img.Image.func_of_pc.(img.Image.target.(pc));
          4
      | I.Ckpt (_, mask) ->
          let m = if save_all then 0x7fff else mask in
          eff_mask.(pc) <- m;
          ckpt_cost m
      | I.Svc 0 ->
          eff_mask.(pc) <- 0x5fff;
          2 + ckpt_cost 0x5fff
      | I.Svc _ -> 1
      | I.FrameAddr _ | I.SpillLd _ | I.SpillSt _ -> 1 (* raises on execute *));
    (* predecode (reads [call_fn] for Bl, so it runs after the cost pass
       above has filled this pc's slot) *)
    (match img.Image.code.(pc) with
    | I.Alu (op, rd, rn, o) ->
        fa.(pc) <- rd;
        fb.(pc) <- rn;
        fop.(pc) <-
          (match (op, o) with
          | I.ADD, I.R _ -> U_add_r | I.SUB, I.R _ -> U_sub_r
          | I.RSB, I.R _ -> U_rsb_r | I.MUL, I.R _ -> U_mul_r
          | I.SDIV, I.R _ -> U_sdiv_r | I.UDIV, I.R _ -> U_udiv_r
          | I.AND, I.R _ -> U_and_r | I.ORR, I.R _ -> U_orr_r
          | I.EOR, I.R _ -> U_eor_r | I.LSL, I.R _ -> U_lsl_r
          | I.LSR, I.R _ -> U_lsr_r | I.ASR, I.R _ -> U_asr_r
          | I.ADD, I.I _ -> U_add_i | I.SUB, I.I _ -> U_sub_i
          | I.RSB, I.I _ -> U_rsb_i | I.MUL, I.I _ -> U_mul_i
          | I.SDIV, I.I _ -> U_sdiv_i | I.UDIV, I.I _ -> U_udiv_i
          | I.AND, I.I _ -> U_and_i | I.ORR, I.I _ -> U_orr_i
          | I.EOR, I.I _ -> U_eor_i | I.LSL, I.I _ -> U_lsl_i
          | I.LSR, I.I _ -> U_lsr_i | I.ASR, I.I _ -> U_asr_i);
        fc.(pc) <- (match o with I.R rm -> rm | I.I i -> Int32.to_int i)
    | I.Mov (rd, o) ->
        fa.(pc) <- rd;
        (match o with
        | I.R rm ->
            fop.(pc) <- U_mov_r;
            fc.(pc) <- rm
        | I.I i ->
            fop.(pc) <- U_mov_i;
            fc.(pc) <- Int32.to_int i)
    | I.Movw32 (rd, v) ->
        fop.(pc) <- U_movw;
        fa.(pc) <- rd;
        fc.(pc) <- Int32.to_int v
    | I.AdrData (rd, _, _) ->
        (* the link-resolved constant: same "load constant" micro-op *)
        fop.(pc) <- U_movw;
        fa.(pc) <- rd;
        fc.(pc) <- Int32.to_int img.Image.adr.(pc)
    | I.Movc (c, rd, o) ->
        fa.(pc) <- rd;
        fcond.(pc) <- c;
        (match o with
        | I.R rm ->
            fop.(pc) <- U_movc_r;
            fc.(pc) <- rm
        | I.I i ->
            fop.(pc) <- U_movc_i;
            fc.(pc) <- Int32.to_int i)
    | I.Cmp (rn, o) ->
        fa.(pc) <- rn;
        (match o with
        | I.R rm ->
            fop.(pc) <- U_cmp_r;
            fc.(pc) <- rm
        | I.I i ->
            fop.(pc) <- U_cmp_i;
            fc.(pc) <- Int32.to_int i)
    | I.Ldr (w, rd, rn, off) ->
        fa.(pc) <- rd;
        fb.(pc) <- rn;
        fc.(pc) <- Int32.to_int off;
        fop.(pc) <-
          (match w with
          | I.W8 -> U_ldr8 | I.S8 -> U_ldr8s
          | I.W16 -> U_ldr16 | I.S16 -> U_ldr16s
          | I.W32 -> U_ldr32)
    | I.LdrR (w, rd, rn, rm) ->
        fa.(pc) <- rd;
        fb.(pc) <- rn;
        fc.(pc) <- rm;
        fop.(pc) <-
          (match w with
          | I.W8 -> U_ldrr8 | I.S8 -> U_ldrr8s
          | I.W16 -> U_ldrr16 | I.S16 -> U_ldrr16s
          | I.W32 -> U_ldrr32)
    | I.Str (w, rd, rn, off) ->
        fa.(pc) <- rd;
        fb.(pc) <- rn;
        fc.(pc) <- Int32.to_int off;
        fop.(pc) <-
          (match w with
          | I.W8 | I.S8 -> U_str8
          | I.W16 | I.S16 -> U_str16
          | I.W32 -> U_str32)
    | I.StrR (w, rd, rn, rm) ->
        fa.(pc) <- rd;
        fb.(pc) <- rn;
        fc.(pc) <- rm;
        fop.(pc) <-
          (match w with
          | I.W8 | I.S8 -> U_strr8
          | I.W16 | I.S16 -> U_strr16
          | I.W32 -> U_strr32)
    | I.Push _ ->
        (* the register list itself is re-read from [code] on execution *)
        fop.(pc) <- U_push;
        fa.(pc) <- push_n.(pc)
    | I.B _ ->
        fop.(pc) <- U_b;
        fc.(pc) <- img.Image.target.(pc)
    | I.Bc (c, _) ->
        fop.(pc) <- U_bc;
        fcond.(pc) <- c;
        fc.(pc) <- img.Image.target.(pc)
    | I.Bl _ ->
        fop.(pc) <- U_bl;
        fa.(pc) <- call_fn.(pc);
        fc.(pc) <- img.Image.target.(pc)
    | I.Bx_lr -> fop.(pc) <- U_bx_lr
    | I.Ckpt _ -> fop.(pc) <- U_ckpt
    | I.Cpsid -> fop.(pc) <- U_cpsid
    | I.Cpsie -> fop.(pc) <- U_cpsie
    | I.Svc 0 -> fop.(pc) <- U_svc_print
    | I.Svc _ -> fop.(pc) <- U_svc_halt
    | I.FrameAddr _ | I.SpillLd _ | I.SpillSt _ -> fop.(pc) <- U_pseudo)
  done;
  let fn_names = Array.of_list (List.rev !names_rev) in
  ( cost, eff_mask, push_n, call_fn, fn_names,
    Array.fold_left max 1 cost, fop, fa, fb, fc, fcond )

(* [build_tables], or the tables of [reuse] when it runs the same image
   under the same save-all setting. *)
let tables_for ?reuse ~save_all img =
  match reuse with
  | Some o when o.img == img && o.save_all = save_all ->
      ( o.cost, o.eff_mask, o.push_n, o.call_fn, o.fn_names, o.max_step_cost,
        o.fop, o.fa, o.fb, o.fc, o.fcond )
  | _ -> build_tables ~save_all img

let create ?(fuel = 2_000_000_000) ?(supply = Power.Continuous)
    ?(irq_period = 0) ?(verify = true) ?(tracer = Tr.null)
    ?(count_pcs = false) ?reuse (img : Image.t) : t =
  (* environment flags are sampled exactly once, here; "" and "0" mean off
     so tests (and shells) can clear them without [unsetenv] *)
  let env_flag name =
    match Sys.getenv_opt name with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  let save_all = env_flag "WARIO_SAVE_ALL" in
  let reuse =
    match reuse with Some old when verify && old.verify -> Some old | _ -> None
  in
  let cost, eff_mask, push_n, call_fn, fn_names, max_step_cost, fop, fa, fb,
      fc, fcond =
    tables_for ?reuse ~save_all img
  in
  let mem, kinds, touched =
    match reuse with
    | Some o -> recycled_buffers o
    | None when verify -> fresh_buffers ()
    | None -> (Bytes.make Image.mem_size '\000', Bytes.empty, [||])
  in
  let st =
    {
      img;
      supply_desc = Power.describe supply;
      mem;
      regs = Array.make 16 0;
      nf = false;
      zf = false;
      cf = false;
      vf = false;
      pc = img.Image.entry;
      primask = false;
      pending_irq = false;
      halted = false;
      exit_code = 0l;
      power = Power.create supply;
      budget = unlimited_budget;
      cycles = 0;
      instrs = 0;
      fuel;
      irq_period;
      next_irq_at = irq_period;
      irqs_taken = 0;
      verify;
      kinds;
      touched;
      n_touched = 0;
      violations = [];
      written = (if verify then Bytes.make n_pages '\000' else Bytes.empty);
      ckpt_read = false;
      counts = { c_entry = 0; c_exit = 0; c_middle = 0; c_backend = 0 };
      region_start = 0;
      regions_rev = [];
      failures = 0;
      boots = 0;
      boots_since_commit = 0;
      out_rev = [];
      fn_names;
      fn_calls = Array.make (Array.length fn_names) 0;
      save_all;
      debug_boots = env_flag "WARIO_DEBUG_EMU";
      cost;
      eff_mask;
      push_n;
      call_fn;
      max_step_cost;
      fop;
      fa;
      fb;
      fc;
      fcond;
      pc_counts =
        (if count_pcs then Some (Array.make (Array.length img.Image.code) 0)
         else None);
      tracer;
      trace_on = Tr.enabled tracer;
      trace_func = "";
      acc_boot = 0;
      acc_restore = 0;
      acc_reexec = 0;
      work_at_commit = 0;
      commits = 0;
      fail_sites_rev = [];
      period_live = false;
      bcache = None;
      n_dispatch = 0;
      n_fallback = 0;
    }
  in
  init_memory st;
  (* first power-on; failing inside boot/restore just burns the period *)
  let rec boot () =
    try power_on st
    with Power_failed ->
      power_failure st;
      boot ()
  in
  boot ();
  st

let rec reboot st =
  try power_on st
  with Power_failed ->
    power_failure st;
    reboot st

type step = Stepped | Rebooted | Halted

let step st : step =
  if st.halted then Halted
  else
    try
      maybe_irq st;
      (match st.pc_counts with
      | Some c -> c.(st.pc) <- c.(st.pc) + 1
      | None -> ());
      exec_instr st st.img.Image.code.(st.pc);
      st.instrs <- st.instrs + 1;
      if st.halted then Halted
      else begin
        if st.trace_on then begin
          let f = st.img.Image.func_of_pc.(st.pc) in
          if f != st.trace_func && f <> st.trace_func then begin
            Tr.emit st.tracer st.cycles
              (Tr.Func_transition { from_func = st.trace_func; to_func = f });
            st.trace_func <- f
          end
        end;
        Stepped
      end
    with Power_failed ->
      power_failure st;
      reboot st;
      Rebooted

let cut_power st =
  if not st.halted then begin
    st.budget <- 0;
    power_failure st;
    reboot st
  end

(* ------------------------------------------------------------------ *)
(* Fast path                                                            *)
(* ------------------------------------------------------------------ *)

(* The branch-light twin of [step]/[exec_instr], for the bench
   configuration: WAR verification off, tracer off, periodic interrupts
   off.  It must stay observably byte-for-byte equivalent to the reference
   path — the qcheck property in test/test_props.ml ("fast path =
   reference path") and the perf artefact's self-check hold the two
   together; [exec_instr] remains the oracle.

   What it drops relative to the reference path:
   - [track_read]/[track_write] calls (no-ops with verify off, but still a
     call + branch per accessed byte-range on the reference path);
   - tracer tag tests and the per-step function-transition check;
   - [maybe_irq] polling (sound: with [irq_period = 0] the reference
     [maybe_irq] can never fire or set [pending_irq]);
   - with [~unchecked:true], the per-instruction power/fuel comparisons —
     [run_batch] only selects unchecked execution for stretches it has
     proven cannot exhaust either (headroom ≥ [max_step_cost] per
     instruction), so omitting the checks is exact, not approximate. *)

(* One fast-path stretch: execute up to [k] instructions over the
   predecoded program.  Returns the number actually executed (short only
   on halt).

   The loop keeps pc and the cycle/instruction counters in parameters of
   a tail-recursive function — registers, not [state] fields — and only
   publishes them ("flush") where some observer can look: checkpoint
   commits (whose region accounting reads [st.cycles]), memory faults and
   pseudo-instruction errors (whose messages and post-mortem state must
   match the reference path), halt, and stretch exit.  [cyc]/[pend] are
   the deltas accumulated since the last flush.

   With [~unchecked:false] every instruction additionally publishes state
   up front and pays through [spend], so [Power_failed] and fuel
   exhaustion are raised with exactly the reference path's state; the
   accumulators then stay at zero.  [run_batch] only selects
   [~unchecked:true] for stretches it has proven cannot exhaust the power
   budget or the fuel (headroom >= [max_step_cost] per instruction), so
   omitting the per-instruction comparisons there is exact, not
   approximate. *)
let exec_batch st ~unchecked k : int =
  let fregs = st.regs in
  let fop = st.fop and fa = st.fa and fb = st.fb and fc = st.fc in
  let fcond = st.fcond and cost = st.cost in
  let code = st.img.Image.code in
  let mem = st.mem in
  let ncode = Array.length fop in
  let flush pc cyc pend =
    st.pc <- pc;
    st.cycles <- st.cycles + cyc;
    st.budget <- st.budget - cyc;
    st.instrs <- st.instrs + pend
  in
  (* out-of-range access: publish state exactly as the reference path
     would have it at the raise, then fail through [check_addr] *)
  let fault pc cyc pend addr n =
    flush pc cyc pend;
    check_addr st addr n;
    assert false
  in
  (* unboxed little-endian halfword accessors (bounds already checked) *)
  let ld16 a =
    Char.code (Bytes.unsafe_get mem a)
    lor (Char.code (Bytes.unsafe_get mem (a + 1)) lsl 8)
  in
  let st16 a v =
    Bytes.unsafe_set mem a (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set mem (a + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))
  in
  let rec go pc cyc pend done_ =
    if done_ = k then begin
      flush pc cyc pend;
      done_
    end
    else if pc < 0 || pc >= ncode then begin
      (* wild pc: fail exactly like the reference fetch *)
      flush pc cyc pend;
      ignore (Array.get code pc : I.instr);
      assert false
    end
    else begin
      let a = Array.unsafe_get fa pc in
      let b = Array.unsafe_get fb pc in
      let c = Array.unsafe_get fc pc in
      let op = Array.unsafe_get fop pc in
      let cst =
        match op with
        | U_bc -> if cond_holds st (Array.unsafe_get fcond pc) then 3 else 1
        | _ -> Array.unsafe_get cost pc
      in
      if not unchecked then begin
        flush pc cyc pend;
        spend st cst
      end;
      let eff = if unchecked then cst else 0 in
      let cyc = if unchecked then cyc else 0 in
      let pend = if unchecked then pend else 0 in
      match op with
      | U_add_r ->
          Array.unsafe_set fregs a
            (sext32 (Array.unsafe_get fregs b + Array.unsafe_get fregs c));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_add_i ->
          Array.unsafe_set fregs a (sext32 (Array.unsafe_get fregs b + c));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_sub_r ->
          Array.unsafe_set fregs a
            (sext32 (Array.unsafe_get fregs b - Array.unsafe_get fregs c));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_sub_i ->
          Array.unsafe_set fregs a (sext32 (Array.unsafe_get fregs b - c));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_rsb_r ->
          Array.unsafe_set fregs a
            (sext32 (Array.unsafe_get fregs c - Array.unsafe_get fregs b));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_rsb_i ->
          Array.unsafe_set fregs a (sext32 (c - Array.unsafe_get fregs b));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_mul_r ->
          Array.unsafe_set fregs a
            (sext32 (Array.unsafe_get fregs b * Array.unsafe_get fregs c));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_mul_i ->
          Array.unsafe_set fregs a (sext32 (Array.unsafe_get fregs b * c));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_sdiv_r | U_sdiv_i ->
          let x = Array.unsafe_get fregs b in
          let y = if op = U_sdiv_r then Array.unsafe_get fregs c else c in
          Array.unsafe_set fregs a
            (* Cortex-M semantics: division by zero yields 0 *)
            (if y = 0 then 0
             else if x = -0x80000000 && y = -1 then -0x80000000
             else x / y);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_udiv_r | U_udiv_i ->
          let x = Array.unsafe_get fregs b land 0xffffffff in
          let y =
            (if op = U_udiv_r then Array.unsafe_get fregs c else c)
            land 0xffffffff
          in
          Array.unsafe_set fregs a (if y = 0 then 0 else sext32 (x / y));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_and_r ->
          Array.unsafe_set fregs a
            (Array.unsafe_get fregs b land Array.unsafe_get fregs c);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_and_i ->
          Array.unsafe_set fregs a (Array.unsafe_get fregs b land c);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_orr_r ->
          Array.unsafe_set fregs a
            (Array.unsafe_get fregs b lor Array.unsafe_get fregs c);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_orr_i ->
          Array.unsafe_set fregs a (Array.unsafe_get fregs b lor c);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_eor_r ->
          Array.unsafe_set fregs a
            (Array.unsafe_get fregs b lxor Array.unsafe_get fregs c);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_eor_i ->
          Array.unsafe_set fregs a (Array.unsafe_get fregs b lxor c);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_lsl_r | U_lsl_i ->
          let sh =
            (if op = U_lsl_r then Array.unsafe_get fregs c else c) land 255
          in
          Array.unsafe_set fregs a
            (if sh >= 32 then 0
             else sext32 (Array.unsafe_get fregs b lsl sh));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_lsr_r | U_lsr_i ->
          let sh =
            (if op = U_lsr_r then Array.unsafe_get fregs c else c) land 255
          in
          Array.unsafe_set fregs a
            (if sh >= 32 then 0
             else sext32 ((Array.unsafe_get fregs b land 0xffffffff) lsr sh));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_asr_r | U_asr_i ->
          let sh =
            (if op = U_asr_r then Array.unsafe_get fregs c else c) land 255
          in
          Array.unsafe_set fregs a
            (if sh >= 32 then Array.unsafe_get fregs b asr 31
             else Array.unsafe_get fregs b asr sh);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_mov_r ->
          Array.unsafe_set fregs a (Array.unsafe_get fregs c);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_mov_i | U_movw ->
          Array.unsafe_set fregs a c;
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_movc_r ->
          if cond_holds st (Array.unsafe_get fcond pc) then
            Array.unsafe_set fregs a (Array.unsafe_get fregs c);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_movc_i ->
          if cond_holds st (Array.unsafe_get fcond pc) then
            Array.unsafe_set fregs a c;
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_cmp_r ->
          set_flags st (Array.unsafe_get fregs a)
            (Array.unsafe_get fregs c);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_cmp_i ->
          set_flags st (Array.unsafe_get fregs a) c;
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_ldr8 | U_ldrr8 ->
          let ad =
            (Array.unsafe_get fregs b
            + (if op = U_ldrr8 then Array.unsafe_get fregs c else c))
            land 0xffffffff
          in
          if ad < 0x40 || ad + 1 > Image.mem_size then
            fault pc (cyc + eff) pend ad 1;
          Array.unsafe_set fregs a (Char.code (Bytes.unsafe_get mem ad));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_ldr8s | U_ldrr8s ->
          let ad =
            (Array.unsafe_get fregs b
            + (if op = U_ldrr8s then Array.unsafe_get fregs c else c))
            land 0xffffffff
          in
          if ad < 0x40 || ad + 1 > Image.mem_size then
            fault pc (cyc + eff) pend ad 1;
          Array.unsafe_set fregs a
            ((Char.code (Bytes.unsafe_get mem ad) lxor 0x80) - 0x80);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_ldr16 | U_ldrr16 ->
          let ad =
            (Array.unsafe_get fregs b
            + (if op = U_ldrr16 then Array.unsafe_get fregs c else c))
            land 0xffffffff
          in
          if ad < 0x40 || ad + 2 > Image.mem_size then
            fault pc (cyc + eff) pend ad 2;
          Array.unsafe_set fregs a (ld16 ad);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_ldr16s | U_ldrr16s ->
          let ad =
            (Array.unsafe_get fregs b
            + (if op = U_ldrr16s then Array.unsafe_get fregs c else c))
            land 0xffffffff
          in
          if ad < 0x40 || ad + 2 > Image.mem_size then
            fault pc (cyc + eff) pend ad 2;
          Array.unsafe_set fregs a ((ld16 ad lxor 0x8000) - 0x8000);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_ldr32 | U_ldrr32 ->
          let ad =
            (Array.unsafe_get fregs b
            + (if op = U_ldrr32 then Array.unsafe_get fregs c else c))
            land 0xffffffff
          in
          if ad < 0x40 || ad + 4 > Image.mem_size then
            fault pc (cyc + eff) pend ad 4;
          Array.unsafe_set fregs a
            (sext32 (ld16 ad lor (ld16 (ad + 2) lsl 16)));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_str8 | U_strr8 ->
          let ad =
            (Array.unsafe_get fregs b
            + (if op = U_strr8 then Array.unsafe_get fregs c else c))
            land 0xffffffff
          in
          if ad < 0x40 || ad + 1 > Image.mem_size then
            fault pc (cyc + eff) pend ad 1;
          Bytes.unsafe_set mem ad
            (Char.unsafe_chr (Array.unsafe_get fregs a land 0xff));
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_str16 | U_strr16 ->
          let ad =
            (Array.unsafe_get fregs b
            + (if op = U_strr16 then Array.unsafe_get fregs c else c))
            land 0xffffffff
          in
          if ad < 0x40 || ad + 2 > Image.mem_size then
            fault pc (cyc + eff) pend ad 2;
          st16 ad (Array.unsafe_get fregs a);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_str32 | U_strr32 ->
          let ad =
            (Array.unsafe_get fregs b
            + (if op = U_strr32 then Array.unsafe_get fregs c else c))
            land 0xffffffff
          in
          if ad < 0x40 || ad + 4 > Image.mem_size then
            fault pc (cyc + eff) pend ad 4;
          let v = Array.unsafe_get fregs a in
          st16 ad v;
          st16 (ad + 2) (v lsr 16);
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_push ->
          let n = a in
          (* signed sp, as the reference path computes it (the fault
             message for an out-of-range sp must match) *)
          let sp = Array.unsafe_get fregs 13 - (4 * n) in
          if sp < 0x40 || sp + (4 * n) > Image.mem_size then
            fault pc (cyc + eff) pend sp (4 * n);
          (match Array.unsafe_get code pc with
          | I.Push rs ->
              List.iteri
                (fun i r ->
                  let ad = sp + (4 * i) in
                  let v = Array.unsafe_get fregs r in
                  st16 ad v;
                  st16 (ad + 2) (v lsr 16))
                rs
          | _ -> assert false);
          Array.unsafe_set fregs 13 sp;
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_b -> go c (cyc + eff) (pend + 1) (done_ + 1)
      | U_bc ->
          go
            (if cond_holds st (Array.unsafe_get fcond pc) then c else pc + 1)
            (cyc + eff) (pend + 1) (done_ + 1)
      | U_bl ->
          Array.unsafe_set st.fn_calls a (Array.unsafe_get st.fn_calls a + 1);
          Array.unsafe_set fregs 14 (pc + 1);
          go c (cyc + eff) (pend + 1) (done_ + 1)
      | U_bx_lr ->
          let l = Array.unsafe_get fregs 14 in
          if l = halt_magic_i then begin
            flush pc (cyc + eff) (pend + 1);
            st.halted <- true;
            st.exit_code <- Int32.of_int (Array.unsafe_get fregs 0);
            done_ + 1
          end
          else go l (cyc + eff) (pend + 1) (done_ + 1)
      | U_ckpt ->
          (* the commit's region accounting reads [st.cycles] and its
             snapshot reads [st.regs]: publish both first *)
          flush pc (cyc + eff) pend;
          let cause =
            match Array.unsafe_get code pc with
            | I.Ckpt (cause, _) -> cause
            | _ -> assert false
          in
          commit_checkpoint st ~cause:(obs_cause cause)
            (Array.unsafe_get st.eff_mask pc)
            (pc + 1);
          (match cause with
          | I.Function_entry -> st.counts.c_entry <- st.counts.c_entry + 1
          | I.Function_exit -> st.counts.c_exit <- st.counts.c_exit + 1
          | I.Middle_end_war -> st.counts.c_middle <- st.counts.c_middle + 1
          | I.Back_end_war -> st.counts.c_backend <- st.counts.c_backend + 1);
          go (pc + 1) 0 1 (done_ + 1)
      | U_cpsid ->
          st.primask <- true;
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_cpsie ->
          st.primask <- false;
          go (pc + 1) (cyc + eff) (pend + 1) (done_ + 1)
      | U_svc_print ->
          flush pc (cyc + eff) pend;
          st.out_rev <- Int32.of_int (Array.unsafe_get fregs 0) :: st.out_rev;
          commit_checkpoint st ~cause:Tr.Console
            (Array.unsafe_get st.eff_mask pc)
            (pc + 1);
          go (pc + 1) 0 1 (done_ + 1)
      | U_svc_halt ->
          flush pc (cyc + eff) (pend + 1);
          st.halted <- true;
          st.exit_code <- Int32.of_int (Array.unsafe_get fregs 0);
          done_ + 1
      | U_pseudo ->
          flush pc (cyc + eff) pend;
          raise
            (Emu_error
               ("pseudo instruction in linked code: "
               ^ I.string_of_instr (Array.unsafe_get code pc)))
    end
  in
  go st.pc 0 0 0

(* The fast path is only sound when nothing per-step is observable beyond
   the architectural state: no WAR tracking, no tracer, no interrupt
   timer.  ([pending_irq] is included for completeness: it can only be set
   while [irq_period > 0].) *)
let fast_eligible st =
  (not st.verify) && (not st.trace_on) && st.irq_period = 0
  && (not st.pending_irq)
  && st.pc_counts = None

(* n [step]s on the fully instrumented reference interpreter *)
let reference_batch st n : step =
  let rec go left =
    if left = 0 then Stepped
    else match step st with Stepped -> go (left - 1) | s -> s
  in
  go n

let uop_batch st n : step =
  match
    let left = ref n in
    while !left > 0 && not st.halted do
      (* instructions that provably cannot exhaust the power budget or
         the fuel; both checks hoist out of the inner loop for that
         stretch *)
      let headroom =
        min
          (st.budget / st.max_step_cost)
          ((st.fuel - st.cycles) / st.max_step_cost)
      in
      let k = min !left headroom in
      if k > 0 then left := !left - exec_batch st ~unchecked:true k
      else begin
        (* within [max_step_cost] of a budget or fuel edge: exact
           per-instruction checks until the edge resolves *)
        ignore (exec_batch st ~unchecked:false 1 : int);
        decr left
      end
    done
  with
  | () -> if st.halted then Halted else Stepped
  | exception Power_failed ->
      (* registers are architectural state shared with the reference path;
         the failing instruction has already published exact counters *)
      power_failure st;
      reboot st;
      Rebooted

(* ------------------------------------------------------------------ *)
(* Block engine                                                         *)
(* ------------------------------------------------------------------ *)

(* Basic blocks of the predecoded uop stream, translated once into fused
   OCaml closures.  Leaders: the image entry, every branch target, the pc
   after any control transfer (call returns included) and every checkpoint
   site — a commit snapshots the registers, cycle counter and flags, so a
   checkpoint must begin its own block with fully published state.  The
   dispatcher pre-checks power budget and fuel against the block's
   worst-case cost, exactly the hoisting [run_batch]'s uop path performs
   per stretch; anywhere the proof fails (power edge, fuel edge, quota
   smaller than the block, or a computed branch landing mid-block) it
   falls back to the checked single-step uop interpreter, which publishes
   reference-exact state per instruction.

   Closures update the cycle/budget/instruction counters with per-exit
   static constants at the block exit only, and capture nothing but ints
   and per-image arrays: the state is passed as the argument, so one
   compiled cache serves every [clone].

   Flags: a [Cmp] feeding the block's own terminating [Bc] skips the four
   flag-field writes entirely when a block-level liveness pass proves the
   flags dead at both successors (checkpoint commits and conditional moves
   count as readers, unknown successors as live), branching instead on the
   equivalent native-int predicate; otherwise the flags are materialized
   bit-for-bit as the reference path would. *)

let max_block_len = 64

let is_terminator = function
  | U_b | U_bc | U_bl | U_bx_lr | U_ckpt | U_svc_print | U_svc_halt
  | U_pseudo ->
      true
  | _ -> false

(* flag readers include the commit sites: [pack_flags] snapshots the flags
   into the checkpoint buffer, which must stay byte-identical *)
let reads_flags = function
  | U_movc_r | U_movc_i | U_bc | U_ckpt | U_svc_print -> true
  | _ -> false

let writes_flags = function U_cmp_r | U_cmp_i -> true | _ -> false

(* out-of-range access inside a block: publish the exact reference state
   (cycles include the faulting instruction, it does not retire), then
   fail through [check_addr] *)
let mfault st pc cyc n ad sz =
  st.pc <- pc;
  st.cycles <- st.cycles + cyc;
  st.budget <- st.budget - cyc;
  st.instrs <- st.instrs + n;
  check_addr st ad sz;
  assert false

(* native-int predicate equivalent to [set_flags a b; cond_holds c] *)
let holds_direct (c : I.cond) (x : int) (y : int) : bool =
  match c with
  | I.EQ -> x = y
  | I.NE -> x <> y
  | I.LT -> x < y
  | I.LE -> x <= y
  | I.GT -> x > y
  | I.GE -> x >= y
  | I.LO -> x land 0xffffffff < y land 0xffffffff
  | I.LS -> x land 0xffffffff <= y land 0xffffffff
  | I.HI -> x land 0xffffffff > y land 0xffffffff
  | I.HS -> x land 0xffffffff >= y land 0xffffffff
  | I.AL -> true

(* Fused two-instruction closures for the block compiler: one closure,
   one indirect call, two architectural updates.  Mechanically
   enumerated over the ALU/mov/flag micro-ops that dominate dynamic
   pair frequency (memory and control micro-ops keep their specialized
   single closures).  Sequential composition through the register file
   and flag fields is semantics-preserving by construction: op1's
   writes land before op2's reads exactly as in the reference
   interpreter.  The one deliberate deviation: a compare whose flags
   are provably dead past its consuming [Movc] ([flags_dead], from the
   caller's block-liveness scan) branches on the native-int predicate
   and skips the flag-field writes — unobservable, because every path
   to the next flag read passes a flag write first, and commits/
   fallback re-entry only happen at block boundaries. *)
let comp_pair op1 op2 a1 b1 c1 cnd1 a2 b2 c2 cnd2 ~flags_dead
    (k : state -> int) : (state -> int) option =
  ignore cnd1;
  match (op1, op2) with
  | U_mov_r, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_mov_r, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_mov_r, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_mov_r, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_mov_r, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_mov_r, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_mov_r, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_mov_r, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_mov_r, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_mov_r, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_mov_r, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_mov_r, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_mov_r, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_mov_r, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_mov_r, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_mov_r, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_mov_r, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_mov_r, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_mov_r, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_mov_r, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | (U_mov_i | U_movw), U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | (U_mov_i | U_movw), (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 c2;
          k st)
  | (U_mov_i | U_movw), U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | (U_mov_i | U_movw), U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | (U_mov_i | U_movw), U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | (U_mov_i | U_movw), U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | (U_mov_i | U_movw), U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | (U_mov_i | U_movw), U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | (U_mov_i | U_movw), U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | (U_mov_i | U_movw), U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | (U_mov_i | U_movw), U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | (U_mov_i | U_movw), U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | (U_mov_i | U_movw), U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | (U_mov_i | U_movw), U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | (U_mov_i | U_movw), U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | (U_mov_i | U_movw), U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | (U_mov_i | U_movw), U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | (U_mov_i | U_movw), U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | (U_mov_i | U_movw), U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | (U_mov_i | U_movw), U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 c1;
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_add_r, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_add_r, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 c2;
          k st)
  | U_add_r, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_add_r, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_add_r, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_add_r, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_add_r, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_add_r, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_add_r, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_add_r, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_add_r, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_add_r, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_add_r, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_add_r, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_add_r, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_add_r, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_add_r, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_add_r, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_add_r, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_add_r, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + Array.unsafe_get r c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_add_i, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_add_i, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 c2;
          k st)
  | U_add_i, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_add_i, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_add_i, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_add_i, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_add_i, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_add_i, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_add_i, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_add_i, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_add_i, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_add_i, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_add_i, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_add_i, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_add_i, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_add_i, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_add_i, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_add_i, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_add_i, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_add_i, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 + c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_sub_r, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_sub_r, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 c2;
          k st)
  | U_sub_r, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_sub_r, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_sub_r, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_sub_r, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_sub_r, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_sub_r, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_sub_r, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_sub_r, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_sub_r, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_sub_r, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_sub_r, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_sub_r, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_sub_r, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_sub_r, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_sub_r, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_sub_r, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_sub_r, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_sub_r, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - Array.unsafe_get r c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_sub_i, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_sub_i, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 c2;
          k st)
  | U_sub_i, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_sub_i, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_sub_i, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_sub_i, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_sub_i, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_sub_i, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_sub_i, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_sub_i, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_sub_i, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_sub_i, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_sub_i, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_sub_i, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_sub_i, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_sub_i, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_sub_i, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_sub_i, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_sub_i, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_sub_i, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 - c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_mul_r, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_mul_r, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 c2;
          k st)
  | U_mul_r, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_mul_r, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_mul_r, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_mul_r, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_mul_r, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_mul_r, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_mul_r, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_mul_r, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_mul_r, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_mul_r, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_mul_r, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_mul_r, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_mul_r, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_mul_r, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_mul_r, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_mul_r, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_mul_r, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_mul_r, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (sext32 (Array.unsafe_get r b1 * Array.unsafe_get r c1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_and_r, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_and_r, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_and_r, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_and_r, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_and_r, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_and_r, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_and_r, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_and_r, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_and_r, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_and_r, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_and_r, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_and_r, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_and_r, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_and_r, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_and_r, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_and_r, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_and_r, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_and_r, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_and_r, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_and_r, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_and_i, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_and_i, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_and_i, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_and_i, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_and_i, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_and_i, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_and_i, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_and_i, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_and_i, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_and_i, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_and_i, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_and_i, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_and_i, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_and_i, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_and_i, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_and_i, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_and_i, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_and_i, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_and_i, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_and_i, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 land c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_orr_r, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_orr_r, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_orr_r, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_orr_r, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_orr_r, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_orr_r, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_orr_r, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_orr_r, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_orr_r, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_orr_r, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_orr_r, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_orr_r, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_orr_r, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_orr_r, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_orr_r, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_orr_r, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_orr_r, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_orr_r, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_orr_r, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_orr_r, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_orr_i, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_orr_i, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_orr_i, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_orr_i, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_orr_i, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_orr_i, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_orr_i, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_orr_i, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_orr_i, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_orr_i, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_orr_i, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_orr_i, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_orr_i, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_orr_i, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_orr_i, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_orr_i, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_orr_i, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_orr_i, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_orr_i, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_orr_i, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lor c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_eor_r, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_eor_r, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_eor_r, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_eor_r, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_eor_r, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_eor_r, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_eor_r, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_eor_r, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_eor_r, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_eor_r, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_eor_r, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_eor_r, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_eor_r, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_eor_r, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_eor_r, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_eor_r, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_eor_r, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_eor_r, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_eor_r, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_eor_r, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_eor_i, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_eor_i, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_eor_i, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_eor_i, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_eor_i, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_eor_i, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_eor_i, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_eor_i, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_eor_i, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_eor_i, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_eor_i, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_eor_i, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_eor_i, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_eor_i, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_eor_i, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_eor_i, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_eor_i, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_eor_i, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_eor_i, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_eor_i, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 lxor c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_lsl_i, U_mov_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_lsl_i, (U_mov_i | U_movw) ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 c2;
          k st)
  | U_lsl_i, U_add_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_lsl_i, U_add_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_lsl_i, U_sub_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_lsl_i, U_sub_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_lsl_i, U_mul_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_lsl_i, U_and_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_lsl_i, U_and_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_lsl_i, U_orr_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_lsl_i, U_orr_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_lsl_i, U_eor_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_lsl_i, U_eor_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_lsl_i, U_lsl_i ->
      Some
        (let sh1 = c1 land 255 in let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_lsl_i, U_lsr_i ->
      Some
        (let sh1 = c1 land 255 in let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_lsl_i, U_asr_i ->
      Some
        (let sh1 = c1 land 255 in let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_lsl_i, U_cmp_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_lsl_i, U_cmp_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_lsl_i, U_movc_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_lsl_i, U_movc_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 (Array.unsafe_get r b1 lsl sh1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_lsr_i, U_mov_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_lsr_i, (U_mov_i | U_movw) ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 c2;
          k st)
  | U_lsr_i, U_add_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_lsr_i, U_add_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_lsr_i, U_sub_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_lsr_i, U_sub_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_lsr_i, U_mul_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_lsr_i, U_and_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_lsr_i, U_and_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_lsr_i, U_orr_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_lsr_i, U_orr_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_lsr_i, U_eor_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_lsr_i, U_eor_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_lsr_i, U_lsl_i ->
      Some
        (let sh1 = c1 land 255 in let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_lsr_i, U_lsr_i ->
      Some
        (let sh1 = c1 land 255 in let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_lsr_i, U_asr_i ->
      Some
        (let sh1 = c1 land 255 in let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_lsr_i, U_cmp_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_lsr_i, U_cmp_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_lsr_i, U_movc_r ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_lsr_i, U_movc_i ->
      Some
        (let sh1 = c1 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (if sh1 >= 32 then 0 else sext32 ((Array.unsafe_get r b1 land 0xffffffff) lsr sh1));
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_asr_i, U_mov_r ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_asr_i, (U_mov_i | U_movw) ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_asr_i, U_add_r ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_asr_i, U_add_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_asr_i, U_sub_r ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_asr_i, U_sub_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_asr_i, U_mul_r ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_asr_i, U_and_r ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_asr_i, U_and_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_asr_i, U_orr_r ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_asr_i, U_orr_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_asr_i, U_eor_r ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_asr_i, U_eor_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_asr_i, U_lsl_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_asr_i, U_lsr_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_asr_i, U_asr_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_asr_i, U_cmp_r ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_asr_i, U_cmp_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_asr_i, U_movc_r ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_asr_i, U_movc_i ->
      Some
        (let sh1 = min (c1 land 255) 31 in
         fun st ->
          let r = st.regs in
          Array.unsafe_set r a1 (Array.unsafe_get r b1 asr sh1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_cmp_r, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_cmp_r, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_cmp_r, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_cmp_r, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_cmp_r, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_cmp_r, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_cmp_r, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_cmp_r, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_cmp_r, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_cmp_r, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_cmp_r, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_cmp_r, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_cmp_r, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_cmp_r, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_cmp_r, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_cmp_r, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_cmp_r, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_cmp_r, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_cmp_r, U_movc_r ->
      Some
        (if flags_dead then fun st ->
           let r = st.regs in
           let x = Array.unsafe_get r a1 and y = Array.unsafe_get r c1 in
           if holds_direct cnd2 x y then Array.unsafe_set r a2 (Array.unsafe_get r c2);
           k st
         else fun st ->
           let r = st.regs in
           set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
           if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
           k st)
  | U_cmp_r, U_movc_i ->
      Some
        (if flags_dead then fun st ->
           let r = st.regs in
           let x = Array.unsafe_get r a1 and y = Array.unsafe_get r c1 in
           if holds_direct cnd2 x y then Array.unsafe_set r a2 c2;
           k st
         else fun st ->
           let r = st.regs in
           set_flags st (Array.unsafe_get r a1) (Array.unsafe_get r c1);
           if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
           k st)
  | U_cmp_i, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_cmp_i, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 c2;
          k st)
  | U_cmp_i, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_cmp_i, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_cmp_i, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_cmp_i, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_cmp_i, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_cmp_i, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_cmp_i, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_cmp_i, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_cmp_i, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_cmp_i, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_cmp_i, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_cmp_i, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_cmp_i, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_cmp_i, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_cmp_i, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_cmp_i, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          set_flags st (Array.unsafe_get r a1) c1;
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_cmp_i, U_movc_r ->
      Some
        (if flags_dead then fun st ->
           let r = st.regs in
           let x = Array.unsafe_get r a1 and y = c1 in
           if holds_direct cnd2 x y then Array.unsafe_set r a2 (Array.unsafe_get r c2);
           k st
         else fun st ->
           let r = st.regs in
           set_flags st (Array.unsafe_get r a1) c1;
           if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
           k st)
  | U_cmp_i, U_movc_i ->
      Some
        (if flags_dead then fun st ->
           let r = st.regs in
           let x = Array.unsafe_get r a1 and y = c1 in
           if holds_direct cnd2 x y then Array.unsafe_set r a2 c2;
           k st
         else fun st ->
           let r = st.regs in
           set_flags st (Array.unsafe_get r a1) c1;
           if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
           k st)
  | U_movc_r, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_movc_r, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 c2;
          k st)
  | U_movc_r, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_movc_r, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_movc_r, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_movc_r, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_movc_r, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_movc_r, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_movc_r, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_movc_r, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_movc_r, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_movc_r, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_movc_r, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_movc_r, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_movc_r, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_movc_r, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_movc_r, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_movc_r, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_movc_r, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_movc_r, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 (Array.unsafe_get r c1);
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | U_movc_i, U_mov_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_movc_i, (U_mov_i | U_movw) ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 c2;
          k st)
  | U_movc_i, U_add_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + Array.unsafe_get r c2));
          k st)
  | U_movc_i, U_add_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 + c2));
          k st)
  | U_movc_i, U_sub_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - Array.unsafe_get r c2));
          k st)
  | U_movc_i, U_sub_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 - c2));
          k st)
  | U_movc_i, U_mul_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (sext32 (Array.unsafe_get r b2 * Array.unsafe_get r c2));
          k st)
  | U_movc_i, U_and_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land Array.unsafe_get r c2);
          k st)
  | U_movc_i, U_and_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 land c2);
          k st)
  | U_movc_i, U_orr_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor Array.unsafe_get r c2);
          k st)
  | U_movc_i, U_orr_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lor c2);
          k st)
  | U_movc_i, U_eor_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor Array.unsafe_get r c2);
          k st)
  | U_movc_i, U_eor_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 lxor c2);
          k st)
  | U_movc_i, U_lsl_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 (Array.unsafe_get r b2 lsl sh2));
          k st)
  | U_movc_i, U_lsr_i ->
      Some
        (let sh2 = c2 land 255 in
         fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (if sh2 >= 32 then 0 else sext32 ((Array.unsafe_get r b2 land 0xffffffff) lsr sh2));
          k st)
  | U_movc_i, U_asr_i ->
      Some
        (let sh2 = min (c2 land 255) 31 in
         fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          Array.unsafe_set r a2 (Array.unsafe_get r b2 asr sh2);
          k st)
  | U_movc_i, U_cmp_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          set_flags st (Array.unsafe_get r a2) (Array.unsafe_get r c2);
          k st)
  | U_movc_i, U_cmp_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          set_flags st (Array.unsafe_get r a2) c2;
          k st)
  | U_movc_i, U_movc_r ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          if cond_holds st cnd2 then Array.unsafe_set r a2 (Array.unsafe_get r c2);
          k st)
  | U_movc_i, U_movc_i ->
      Some
        (fun st ->
          let r = st.regs in
          if cond_holds st cnd1 then Array.unsafe_set r a1 c1;
          if cond_holds st cnd2 then Array.unsafe_set r a2 c2;
          k st)
  | _ -> None

let compile_blocks (st : state) : bcache =
  let img = st.img in
  let code = img.Image.code in
  let n = Array.length code in
  let fop = st.fop
  and fa = st.fa
  and fb = st.fb
  and fc = st.fc
  and fcond = st.fcond
  and cost = st.cost
  and eff_mask = st.eff_mask in
  let msize = Image.mem_size in
  (* ---- pass 1: leaders ---- *)
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(img.Image.entry) <- true;
  let mark t = if t >= 0 && t < n then leader.(t) <- true in
  for pc = 0 to n - 1 do
    match fop.(pc) with
    | U_b | U_bc | U_bl ->
        mark fc.(pc);
        mark (pc + 1)
    | U_bx_lr | U_svc_halt | U_pseudo -> mark (pc + 1)
    | U_ckpt | U_svc_print ->
        mark pc;
        mark (pc + 1)
    | _ -> ()
  done;
  (* cap straight-line runs so a block's worst-case cost stays small
     relative to realistic on-periods (a split point is itself a leader) *)
  let len = ref 0 in
  for pc = 0 to n - 1 do
    if leader.(pc) then len := 1
    else begin
      incr len;
      if !len > max_block_len then begin
        leader.(pc) <- true;
        len := 1
      end
    end
  done;
  let bidx = Array.make (max n 1) (-1) in
  let nbk = ref 0 in
  for pc = 0 to n - 1 do
    if leader.(pc) then begin
      bidx.(pc) <- !nbk;
      incr nbk
    end
  done;
  let nbk = !nbk in
  let starts = Array.make (max nbk 1) 0 in
  for pc = 0 to n - 1 do
    if leader.(pc) then starts.(bidx.(pc)) <- pc
  done;
  (* ---- pass 2: block spans ---- *)
  (* [body_end] is exclusive and never includes the terminator;
     [term_pc.(i) = -1] marks a fallthrough block (next pc is a leader) *)
  let body_end = Array.make (max nbk 1) 0
  and term_pc = Array.make (max nbk 1) (-1) in
  for i = 0 to nbk - 1 do
    let s = starts.(i) in
    let limit = if i + 1 < nbk then starts.(i + 1) else n in
    let rec scan pc =
      if pc >= limit then begin
        body_end.(i) <- limit;
        term_pc.(i) <- -1
      end
      else if is_terminator fop.(pc) then begin
        body_end.(i) <- pc;
        term_pc.(i) <- pc
      end
      else scan (pc + 1)
    in
    scan s
  done;
  (* ---- pass 3: block-level flags liveness ---- *)
  let uses = Array.make (max nbk 1) false
  and defs = Array.make (max nbk 1) false
  and succs = Array.make (max nbk 1) []
  and unknown = Array.make (max nbk 1) false
  and live_in = Array.make (max nbk 1) false in
  for i = 0 to nbk - 1 do
    let s = starts.(i) in
    let stop = if term_pc.(i) >= 0 then term_pc.(i) else body_end.(i) - 1 in
    (let rec scan pc =
       if pc > stop then ()
       else if reads_flags fop.(pc) then uses.(i) <- true
       else if writes_flags fop.(pc) then defs.(i) <- true
       else scan (pc + 1)
     in
     scan s);
    let limit = if i + 1 < nbk then starts.(i + 1) else n in
    match term_pc.(i) with
    | -1 -> if limit < n then succs.(i) <- [ bidx.(limit) ]
    | t -> (
        match fop.(t) with
        | U_b | U_bl -> succs.(i) <- [ bidx.(fc.(t)) ]
        | U_bc ->
            succs.(i) <-
              (bidx.(fc.(t)) :: (if t + 1 < n then [ bidx.(t + 1) ] else []))
        | U_ckpt | U_svc_print | U_pseudo ->
            if t + 1 < n then succs.(i) <- [ bidx.(t + 1) ]
        | U_bx_lr -> unknown.(i) <- true
        | _ -> ())
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = nbk - 1 downto 0 do
      if not live_in.(i) then begin
        let live_out =
          unknown.(i) || List.exists (fun s -> live_in.(s)) succs.(i)
        in
        if uses.(i) || ((not defs.(i)) && live_out) then begin
          live_in.(i) <- true;
          changed := true
        end
      end
    done
  done;
  let live_out i = unknown.(i) || List.exists (fun s -> live_in.(s)) succs.(i) in
  (* ---- pass 4: translate each block to one fused closure ---- *)
  let compile_one i =
    let s = starts.(i) in
    let e = body_end.(i) in
    let t = term_pc.(i) in
    let limit = if i + 1 < nbk then starts.(i + 1) else n in
    (* a [Cmp] immediately feeding the terminating [Bc]: always fused into
       the branch; the flag fields are skipped when provably dead *)
    let fuse_cmp =
      t >= 0
      && fop.(t) = U_bc
      && e > s
      && (match fop.(e - 1) with U_cmp_r | U_cmp_i -> true | _ -> false)
    in
    let body_stop = if fuse_cmp then e - 1 else e in
    (* [flags_dead_from pc]: entering body position [pc], every path to
       the next architectural flag read passes a flag write first — so a
       compare just before [pc] may skip materializing the flag fields.
       Within the block this is a forward scan; past the end it defers to
       the terminator ([Bc]/[Ckpt]/[Svc_print] read, a [fuse_cmp]d
       compare writes) and then to the interblock liveness fixpoint. *)
    let rec flags_dead_from pc =
      if pc < body_stop then
        if writes_flags fop.(pc) then true
        else if reads_flags fop.(pc) then false
        else flags_dead_from (pc + 1)
      else if fuse_cmp then true
      else
        match t with
        | -1 -> not (live_out i)
        | t ->
            if reads_flags fop.(t) then false
            else if writes_flags fop.(t) then true
            else not (live_out i)
    in
    let body_cost = ref 0 in
    for pc = s to e - 1 do
      body_cost := !body_cost + cost.(pc)
    done;
    let bc_ = !body_cost in
    let bn = e - s in
    (* ---- terminator ---- *)
    let tail : state -> int =
      match t with
      | -1 ->
          let tc = bc_ and tn = bn in
          if limit < n then begin
            let nb = bidx.(limit) in
            fun st ->
              st.cycles <- st.cycles + tc;
              st.budget <- st.budget - tc;
              st.instrs <- st.instrs + tn;
              nb
          end
          else fun st ->
            st.cycles <- st.cycles + tc;
            st.budget <- st.budget - tc;
            st.instrs <- st.instrs + tn;
            st.pc <- limit;
            -1
      | t -> (
          match fop.(t) with
          | U_b ->
              let tc = bc_ + 3 and tn = bn + 1 in
              let nb = bidx.(fc.(t)) in
              fun st ->
                st.cycles <- st.cycles + tc;
                st.budget <- st.budget - tc;
                st.instrs <- st.instrs + tn;
                nb
          | U_bl ->
              let tc = bc_ + 4 and tn = bn + 1 in
              let nb = bidx.(fc.(t)) in
              let slot = fa.(t) and ret = t + 1 in
              fun st ->
                Array.unsafe_set st.regs 14 ret;
                Array.unsafe_set st.fn_calls slot
                  (Array.unsafe_get st.fn_calls slot + 1);
                st.cycles <- st.cycles + tc;
                st.budget <- st.budget - tc;
                st.instrs <- st.instrs + tn;
                nb
          | U_bx_lr ->
              let tc = bc_ + 3 and tn = bn + 1 in
              let me = t in
              fun st ->
                st.cycles <- st.cycles + tc;
                st.budget <- st.budget - tc;
                st.instrs <- st.instrs + tn;
                let l = Array.unsafe_get st.regs 14 in
                if l = halt_magic_i then begin
                  st.pc <- me;
                  st.halted <- true;
                  st.exit_code <- Int32.of_int (Array.unsafe_get st.regs 0);
                  -1
                end
                else begin
                  st.pc <- l;
                  if l >= 0 && l < n then Array.unsafe_get bidx l else -1
                end
          | U_svc_halt ->
              let tc = bc_ + 1 and tn = bn + 1 in
              let me = t in
              fun st ->
                st.cycles <- st.cycles + tc;
                st.budget <- st.budget - tc;
                st.instrs <- st.instrs + tn;
                st.pc <- me;
                st.halted <- true;
                st.exit_code <- Int32.of_int (Array.unsafe_get st.regs 0);
                -1
          | U_pseudo ->
              (* the pseudo's cycle is spent, the instruction never
                 retires — exactly the uop path's accounting *)
              let tc = bc_ + 1 and tn = bn in
              let me = t in
              fun st ->
                st.cycles <- st.cycles + tc;
                st.budget <- st.budget - tc;
                st.instrs <- st.instrs + tn;
                st.pc <- me;
                raise
                  (Emu_error
                     ("pseudo instruction in linked code: "
                     ^ I.string_of_instr code.(me)))
          | U_ckpt ->
              (* its own single-instruction block (checkpoint sites are
                 leaders), so every counter is exact at the commit *)
              let cst = cost.(t) and mask = eff_mask.(t) in
              let cause =
                match code.(t) with I.Ckpt (c, _) -> c | _ -> assert false
              in
              let oc = obs_cause cause in
              let me = t in
              let nb = if t + 1 < n then bidx.(t + 1) else -1 in
              fun st ->
                st.pc <- me;
                st.cycles <- st.cycles + cst;
                st.budget <- st.budget - cst;
                commit_checkpoint st ~cause:oc mask (me + 1);
                (match cause with
                | I.Function_entry -> st.counts.c_entry <- st.counts.c_entry + 1
                | I.Function_exit -> st.counts.c_exit <- st.counts.c_exit + 1
                | I.Middle_end_war ->
                    st.counts.c_middle <- st.counts.c_middle + 1
                | I.Back_end_war ->
                    st.counts.c_backend <- st.counts.c_backend + 1);
                st.instrs <- st.instrs + 1;
                if nb >= 0 then nb
                else begin
                  st.pc <- me + 1;
                  -1
                end
          | U_svc_print ->
              let cst = cost.(t) and mask = eff_mask.(t) in
              let me = t in
              let nb = if t + 1 < n then bidx.(t + 1) else -1 in
              fun st ->
                st.pc <- me;
                st.cycles <- st.cycles + cst;
                st.budget <- st.budget - cst;
                st.out_rev <-
                  Int32.of_int (Array.unsafe_get st.regs 0) :: st.out_rev;
                commit_checkpoint st ~cause:Tr.Console mask (me + 1);
                st.instrs <- st.instrs + 1;
                if nb >= 0 then nb
                else begin
                  st.pc <- me + 1;
                  -1
                end
          | U_bc when fuse_cmp ->
              (* cmp+bc superinstruction: native-int predicate; flag
                 fields written only when live at a successor *)
              let cp = e - 1 in
              let xa = fa.(cp) and xc = fc.(cp) in
              let cmp_reg = fop.(cp) = U_cmp_r in
              let cnd = fcond.(t) in
              let live = live_out i in
              let tcT = bc_ + 3 and tcN = bc_ + 1 and tn = bn + 1 in
              let tgt = bidx.(fc.(t)) in
              let nbn = if t + 1 < n then bidx.(t + 1) else -1 in
              let me = t in
              fun st ->
                let x = Array.unsafe_get st.regs xa in
                let y = if cmp_reg then Array.unsafe_get st.regs xc else xc in
                if live then set_flags st x y;
                if holds_direct cnd x y then begin
                  st.cycles <- st.cycles + tcT;
                  st.budget <- st.budget - tcT;
                  st.instrs <- st.instrs + tn;
                  tgt
                end
                else begin
                  st.cycles <- st.cycles + tcN;
                  st.budget <- st.budget - tcN;
                  st.instrs <- st.instrs + tn;
                  if nbn >= 0 then nbn
                  else begin
                    st.pc <- me + 1;
                    -1
                  end
                end
          | U_bc ->
              let cnd = fcond.(t) in
              let tcT = bc_ + 3 and tcN = bc_ + 1 and tn = bn + 1 in
              let tgt = bidx.(fc.(t)) in
              let nbn = if t + 1 < n then bidx.(t + 1) else -1 in
              let me = t in
              fun st ->
                if cond_holds st cnd then begin
                  st.cycles <- st.cycles + tcT;
                  st.budget <- st.budget - tcT;
                  st.instrs <- st.instrs + tn;
                  tgt
                end
                else begin
                  st.cycles <- st.cycles + tcN;
                  st.budget <- st.budget - tcN;
                  st.instrs <- st.instrs + tn;
                  if nbn >= 0 then nbn
                  else begin
                    st.pc <- me + 1;
                    -1
                  end
                end
          | _ -> assert false)
    in
    (* ---- body, folded right-to-left into the terminator ----
       [cc]/[cn] are the cycles/instructions already retired within the
       block before [pc] — the constants a fault must publish. *)
    (* Continuations are built bottom-up ([conts.(i)] executes body
       position [s + i] onward, ending in [tail]) so each position is
       translated exactly once; the chain entered at [s] pairs fusible
       ALU/mov micro-ops greedily left to right. *)
    let conts = Array.make (body_stop - s + 1) tail in
    let comp pc (k1 : state -> int) (k2 : (state -> int) option) :
        state -> int =
      let a = fa.(pc) and b = fb.(pc) and c = fc.(pc) in
      let me = pc in
      let cc = ref 0 in
      for p = s to pc - 1 do
        cc := !cc + cost.(p)
      done;
      let cn = pc - s in
      let fcy = !cc + cost.(pc) in
      (* two fusible ALU/mov/flag micro-ops: one closure for both (none
         of them fault, so the pair needs no intermediate fault state) *)
      match
        match k2 with
        | None -> None
        | Some k2 ->
            comp_pair fop.(pc)
              fop.(pc + 1)
              a b c fcond.(pc)
              fa.(pc + 1)
              fb.(pc + 1)
              fc.(pc + 1)
              fcond.(pc + 1)
              ~flags_dead:(flags_dead_from (pc + 2))
              k2
      with
      | Some fused -> fused
      | None -> (
        let k = k1 in
        match fop.(pc) with
        | U_add_r ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a
                (sext32 (Array.unsafe_get r b + Array.unsafe_get r c));
              k st
        | U_add_i ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a (sext32 (Array.unsafe_get r b + c));
              k st
        | U_sub_r ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a
                (sext32 (Array.unsafe_get r b - Array.unsafe_get r c));
              k st
        | U_sub_i ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a (sext32 (Array.unsafe_get r b - c));
              k st
        | U_rsb_r ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a
                (sext32 (Array.unsafe_get r c - Array.unsafe_get r b));
              k st
        | U_rsb_i ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a (sext32 (c - Array.unsafe_get r b));
              k st
        | U_mul_r ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a
                (sext32 (Array.unsafe_get r b * Array.unsafe_get r c));
              k st
        | U_mul_i ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a (sext32 (Array.unsafe_get r b * c));
              k st
        | U_sdiv_r ->
            fun st ->
              let r = st.regs in
              let x = Array.unsafe_get r b and y = Array.unsafe_get r c in
              Array.unsafe_set r a
                (if y = 0 then 0
                 else if x = -0x80000000 && y = -1 then -0x80000000
                 else x / y);
              k st
        | U_sdiv_i ->
            fun st ->
              let r = st.regs in
              let x = Array.unsafe_get r b in
              Array.unsafe_set r a
                (if c = 0 then 0
                 else if x = -0x80000000 && c = -1 then -0x80000000
                 else x / c);
              k st
        | U_udiv_r ->
            fun st ->
              let r = st.regs in
              let x = Array.unsafe_get r b land 0xffffffff
              and y = Array.unsafe_get r c land 0xffffffff in
              Array.unsafe_set r a (if y = 0 then 0 else sext32 (x / y));
              k st
        | U_udiv_i ->
            let y = c land 0xffffffff in
            fun st ->
              let r = st.regs in
              let x = Array.unsafe_get r b land 0xffffffff in
              Array.unsafe_set r a (if y = 0 then 0 else sext32 (x / y));
              k st
        | U_and_r ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a
                (Array.unsafe_get r b land Array.unsafe_get r c);
              k st
        | U_and_i ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a (Array.unsafe_get r b land c);
              k st
        | U_orr_r ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a
                (Array.unsafe_get r b lor Array.unsafe_get r c);
              k st
        | U_orr_i ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a (Array.unsafe_get r b lor c);
              k st
        | U_eor_r ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a
                (Array.unsafe_get r b lxor Array.unsafe_get r c);
              k st
        | U_eor_i ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a (Array.unsafe_get r b lxor c);
              k st
        | U_lsl_r ->
            fun st ->
              let r = st.regs in
              let sh = Array.unsafe_get r c land 255 in
              Array.unsafe_set r a
                (if sh >= 32 then 0 else sext32 (Array.unsafe_get r b lsl sh));
              k st
        | U_lsl_i ->
            let sh = c land 255 in
            if sh >= 32 then fun st ->
              Array.unsafe_set st.regs a 0;
              k st
            else fun st ->
              let r = st.regs in
              Array.unsafe_set r a (sext32 (Array.unsafe_get r b lsl sh));
              k st
        | U_lsr_r ->
            fun st ->
              let r = st.regs in
              let sh = Array.unsafe_get r c land 255 in
              Array.unsafe_set r a
                (if sh >= 32 then 0
                 else sext32 ((Array.unsafe_get r b land 0xffffffff) lsr sh));
              k st
        | U_lsr_i ->
            let sh = c land 255 in
            if sh >= 32 then fun st ->
              Array.unsafe_set st.regs a 0;
              k st
            else fun st ->
              let r = st.regs in
              Array.unsafe_set r a
                (sext32 ((Array.unsafe_get r b land 0xffffffff) lsr sh));
              k st
        | U_asr_r ->
            fun st ->
              let r = st.regs in
              let sh = Array.unsafe_get r c land 255 in
              Array.unsafe_set r a
                (if sh >= 32 then Array.unsafe_get r b asr 31
                 else Array.unsafe_get r b asr sh);
              k st
        | U_asr_i ->
            let sh = min (c land 255) 31 in
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a (Array.unsafe_get r b asr sh);
              k st
        | U_mov_r ->
            fun st ->
              let r = st.regs in
              Array.unsafe_set r a (Array.unsafe_get r c);
              k st
        | U_mov_i | U_movw ->
            fun st ->
              Array.unsafe_set st.regs a c;
              k st
        | U_movc_r ->
            let cnd = fcond.(pc) in
            fun st ->
              let r = st.regs in
              if cond_holds st cnd then
                Array.unsafe_set r a (Array.unsafe_get r c);
              k st
        | U_movc_i ->
            let cnd = fcond.(pc) in
            fun st ->
              if cond_holds st cnd then Array.unsafe_set st.regs a c;
              k st
        | U_cmp_r ->
            fun st ->
              let r = st.regs in
              set_flags st (Array.unsafe_get r a) (Array.unsafe_get r c);
              k st
        | U_cmp_i ->
            fun st ->
              set_flags st (Array.unsafe_get st.regs a) c;
              k st
        | U_ldr8 ->
            fun st ->
              let r = st.regs in
              let ad = (Array.unsafe_get r b + c) land 0xffffffff in
              if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
              Array.unsafe_set r a (Char.code (Bytes.unsafe_get st.mem ad));
              k st
        | U_ldrr8 ->
            fun st ->
              let r = st.regs in
              let ad =
                (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
              in
              if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
              Array.unsafe_set r a (Char.code (Bytes.unsafe_get st.mem ad));
              k st
        | U_ldr8s ->
            fun st ->
              let r = st.regs in
              let ad = (Array.unsafe_get r b + c) land 0xffffffff in
              if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
              Array.unsafe_set r a
                ((Char.code (Bytes.unsafe_get st.mem ad) lxor 0x80) - 0x80);
              k st
        | U_ldrr8s ->
            fun st ->
              let r = st.regs in
              let ad =
                (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
              in
              if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
              Array.unsafe_set r a
                ((Char.code (Bytes.unsafe_get st.mem ad) lxor 0x80) - 0x80);
              k st
        | U_ldr16 ->
            fun st ->
              let r = st.regs in
              let ad = (Array.unsafe_get r b + c) land 0xffffffff in
              if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
              Array.unsafe_set r a (ld16 st.mem ad);
              k st
        | U_ldrr16 ->
            fun st ->
              let r = st.regs in
              let ad =
                (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
              in
              if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
              Array.unsafe_set r a (ld16 st.mem ad);
              k st
        | U_ldr16s ->
            fun st ->
              let r = st.regs in
              let ad = (Array.unsafe_get r b + c) land 0xffffffff in
              if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
              Array.unsafe_set r a ((ld16 st.mem ad lxor 0x8000) - 0x8000);
              k st
        | U_ldrr16s ->
            fun st ->
              let r = st.regs in
              let ad =
                (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
              in
              if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
              Array.unsafe_set r a ((ld16 st.mem ad lxor 0x8000) - 0x8000);
              k st
        | U_ldr32 ->
            fun st ->
              let r = st.regs in
              let ad = (Array.unsafe_get r b + c) land 0xffffffff in
              if ad < 0x40 || ad + 4 > msize then mfault st me fcy cn ad 4;
              Array.unsafe_set r a (ld32 st.mem ad);
              k st
        | U_ldrr32 ->
            fun st ->
              let r = st.regs in
              let ad =
                (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
              in
              if ad < 0x40 || ad + 4 > msize then mfault st me fcy cn ad 4;
              Array.unsafe_set r a (ld32 st.mem ad);
              k st
        | U_str8 ->
            fun st ->
              let r = st.regs in
              let ad = (Array.unsafe_get r b + c) land 0xffffffff in
              if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
              Bytes.unsafe_set st.mem ad
                (Char.unsafe_chr (Array.unsafe_get r a land 0xff));
              k st
        | U_strr8 ->
            fun st ->
              let r = st.regs in
              let ad =
                (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
              in
              if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
              Bytes.unsafe_set st.mem ad
                (Char.unsafe_chr (Array.unsafe_get r a land 0xff));
              k st
        | U_str16 ->
            fun st ->
              let r = st.regs in
              let ad = (Array.unsafe_get r b + c) land 0xffffffff in
              if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
              st16 st.mem ad (Array.unsafe_get r a);
              k st
        | U_strr16 ->
            fun st ->
              let r = st.regs in
              let ad =
                (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
              in
              if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
              st16 st.mem ad (Array.unsafe_get r a);
              k st
        | U_str32 ->
            fun st ->
              let r = st.regs in
              let ad = (Array.unsafe_get r b + c) land 0xffffffff in
              if ad < 0x40 || ad + 4 > msize then mfault st me fcy cn ad 4;
              st32 st.mem ad (Array.unsafe_get r a);
              k st
        | U_strr32 ->
            fun st ->
              let r = st.regs in
              let ad =
                (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
              in
              if ad < 0x40 || ad + 4 > msize then mfault st me fcy cn ad 4;
              st32 st.mem ad (Array.unsafe_get r a);
              k st
        | U_push ->
            let rs =
              match code.(pc) with I.Push rs -> rs | _ -> assert false
            in
            let nr = a in
            fun st ->
              let r = st.regs in
              let sp = Array.unsafe_get r 13 - (4 * nr) in
              if sp < 0x40 || sp + (4 * nr) > msize then
                mfault st me fcy cn sp (4 * nr);
              let mem = st.mem in
              List.iteri
                (fun i rg -> st32 mem (sp + (4 * i)) (Array.unsafe_get r rg))
                rs;
              Array.unsafe_set r 13 sp;
              k st
        | U_cpsid ->
            fun st ->
              st.primask <- true;
              k st
        | U_cpsie ->
            fun st ->
              st.primask <- false;
              k st
        | U_b | U_bc | U_bl | U_bx_lr | U_ckpt | U_svc_print | U_svc_halt
        | U_pseudo ->
            (* terminators never appear in a block body *)
            assert false)
    in
    for i = body_stop - 1 - s downto 0 do
      let pc = s + i in
      let k2 = if pc + 1 < body_stop then Some conts.(i + 2) else None in
      conts.(i) <- comp pc conts.(i + 1) k2
    done;
    let maxcost =
      bc_
      +
      match t with
      | -1 -> 0
      | t -> (
          match fop.(t) with
          | U_b | U_bx_lr -> 3
          | U_bc -> 3
          | U_bl -> 4
          | U_svc_halt | U_pseudo -> 1
          | U_ckpt | U_svc_print -> cost.(t)
          | _ -> assert false)
    in
    let ninstr = bn + if t >= 0 then 1 else 0 in
    { b_pc = s; b_ninstr = ninstr; b_maxcost = maxcost; b_exec = conts.(0) }
  in
  let blocks = Array.init nbk compile_one in
  { bc_blocks = blocks; bc_index = bidx; bc_compile_ms = 0. }

(* The compiled cache depends only on the image and the save-all toggle
   (closures capture operand constants, checkpoint costs/masks — which
   [WARIO_SAVE_ALL] inflates — and the image's code array, never other
   instance state), so it is shared process-wide: one translation serves
   every instance, clone and rerun of the same image — a campaign probing
   10^5 schedules compiles once.  Keyed by physical identity plus the
   save-all flag; bounded, evicting oldest first. *)
let shared_bcaches : ((Image.t * bool) * bcache) list ref = ref []
let shared_bcaches_max = 32

let get_bcache st =
  match st.bcache with
  | Some c -> c
  | None -> (
      match
        List.find_opt
          (fun ((img, sa), _) -> img == st.img && sa = st.save_all)
          !shared_bcaches
      with
      | Some (_, c) ->
          st.bcache <- Some c;
          c
      | None ->
          let t0 = Sys.time () in
          let c = compile_blocks st in
          let c = { c with bc_compile_ms = (Sys.time () -. t0) *. 1000. } in
          st.bcache <- Some c;
          let kept =
            List.filteri
              (fun i _ -> i < shared_bcaches_max - 1)
              !shared_bcaches
          in
          shared_bcaches := ((st.img, st.save_all), c) :: kept;
          c)

let block_batch st n : step =
  let bc = get_bcache st in
  let blocks = bc.bc_blocks and bidx = bc.bc_index in
  let ncode = Array.length st.fop in
  (* direct-threaded dispatch: each terminator returns its successor's
     block index, so the chain never re-derives it from [st.pc]; [st.pc]
     is published whenever the chain breaks *)
  let rec drive cur left disp =
    let b = Array.unsafe_get blocks cur in
    if left < b.b_ninstr || st.budget < b.b_maxcost
       || st.fuel - st.cycles < b.b_maxcost
    then begin
      st.pc <- b.b_pc;
      st.n_dispatch <- st.n_dispatch + disp;
      left
    end
    else
      let nxt = b.b_exec st in
      if nxt >= 0 then drive nxt (left - b.b_ninstr) (disp + 1)
      else begin
        st.n_dispatch <- st.n_dispatch + disp + 1;
        left - b.b_ninstr
      end
  in
  match
    let left = ref n in
    while !left > 0 && not st.halted do
      let pc = st.pc in
      let cur =
        if pc >= 0 && pc < ncode then Array.unsafe_get bidx pc else -1
      in
      let advanced =
        cur >= 0
        &&
        let left' = drive cur !left 0 in
        let adv = left' < !left in
        left := left';
        adv
      in
      if (not advanced) && !left > 0 && not st.halted then begin
        (* power/fuel edge, quota smaller than the next block, or a pc
           inside a block (dynamic branch): checked single-step fallback
           with reference-exact per-instruction state *)
        st.n_fallback <- st.n_fallback + 1;
        ignore (exec_batch st ~unchecked:false 1 : int);
        decr left
      end
    done
  with
  | () -> if st.halted then Halted else Stepped
  | exception Power_failed ->
      power_failure st;
      reboot st;
      Rebooted

type engine =
  | Auto  (** best eligible engine: block when possible, reference else *)
  | Reference  (** force the fully instrumented per-step interpreter *)
  | Uop  (** the predecoded micro-op loop (PR 4's fast path) *)
  | Block  (** basic blocks fused into closures (falls back when ineligible) *)

let run_batch ?(engine = Auto) st n : step =
  if st.halted then Halted
  else if n <= 0 then invalid_arg "Emulator.run_batch: non-positive batch size"
  else
    match engine with
    | Reference -> reference_batch st n
    | Uop -> if fast_eligible st then uop_batch st n else reference_batch st n
    | Auto | Block ->
        if fast_eligible st then block_batch st n else reference_batch st n

let clone st =
  {
    st with
    mem = Bytes.copy st.mem;
    regs = Array.copy st.regs;
    power = Power.copy st.power;
    kinds = Bytes.copy st.kinds;
    touched = Array.copy st.touched;
    written = Bytes.copy st.written;
    counts =
      {
        c_entry = st.counts.c_entry;
        c_exit = st.counts.c_exit;
        c_middle = st.counts.c_middle;
        c_backend = st.counts.c_backend;
      };
    fn_calls = Array.copy st.fn_calls;
    pc_counts = Option.map Array.copy st.pc_counts;
    (* cost/eff_mask/push_n/call_fn/fn_names are immutable: shared *)
  }

(* Fold the per-pc counts to per-block entry counts: the count of a block's
   first pc is the number of times execution entered it (jumps always
   target block starts; a fall-through enters at the start too).  This is
   exactly the [Wario_analysis.Costmodel.profile] shape. *)
let block_counts st : (string * int) list option =
  Option.map
    (fun counts ->
      List.map
        (fun (lbl, pc) -> (lbl, counts.(pc)))
        (Image.block_starts st.img))
    st.pc_counts

let halted st = st.halted
let cycles st = st.cycles
let pc st = st.pc
let current_function st = st.img.Image.func_of_pc.(st.pc)
let boots st = st.boots
let memory st = Bytes.copy st.mem

(* A digest of every byte outside the checkpoint double buffer: the
   non-volatile state an idempotent run must reproduce exactly.  The buffers
   are excluded because their sequence numbers and saved register images
   legitimately depend on how often power failed.

   Word-wise: each 8-byte little-endian word is folded in by an FNV-style
   xor-multiply (odd multiplier) and an xor-shift.  Both steps are
   bijections of the running hash, so two memories differing in exactly one
   word always digest differently.  One inline loop over a local [ref]:
   ocamlopt keeps the [int64] unboxed there, where a closure capturing it
   would box on every word. *)
let nv_digest st =
  let mem = st.mem in
  let n = Bytes.length mem in
  let h = ref 0xcbf29ce484222325L in
  let i = ref 0 in
  while !i < n do
    if !i = Image.ckpt_base then i := ckpt_end
    else begin
      let w = Bytes.get_int64_le mem !i in
      let x = Int64.mul (Int64.logxor !h w) 0x100000001b3L in
      h := Int64.logxor x (Int64.shift_right_logical x 29);
      i := !i + 8
    end
  done;
  !h

let result st : result =
  {
    output = List.rev st.out_rev;
    exit_code = st.exit_code;
    cycles = st.cycles;
    instrs = st.instrs;
    checkpoints = st.counts;
    checkpoints_total =
      st.counts.c_entry + st.counts.c_exit + st.counts.c_middle
      + st.counts.c_backend;
    region_sizes = List.rev ((st.cycles - st.region_start) :: st.regions_rev);
    power_failures = st.failures;
    failure_sites = List.rev st.fail_sites_rev;
    boots = st.boots;
    violations = List.rev st.violations;
    irqs_taken = st.irqs_taken;
    call_counts =
      (let acc = ref [] in
       for i = Array.length st.fn_calls - 1 downto 0 do
         if st.fn_calls.(i) > 0 then
           acc := (st.fn_names.(i), st.fn_calls.(i)) :: !acc
       done;
       List.sort compare !acc);
    waste =
      {
        w_useful = st.cycles - st.acc_boot - st.acc_restore - st.acc_reexec;
        w_boot = st.acc_boot;
        w_restore = st.acc_restore;
        w_reexec = st.acc_reexec;
      };
  }

let output st = List.rev st.out_rev

(* ------------------------------------------------------------------ *)
(* Commit snapshots                                                     *)
(* ------------------------------------------------------------------ *)

let reads_ckpt_area st = st.ckpt_read

(* Reference-path stepping that stops the moment the [k]th commit has been
   made.  An instruction commits at most once, so a batch of [k - commits]
   steps cannot overshoot: the commit count is tested once per batch, not
   once per step. *)
let rec run_to_commit st k : step =
  if st.halted then Halted
  else if st.commits >= k then Stepped
  else
    match reference_batch st (k - st.commits) with
    | Halted -> Halted
    | Stepped | Rebooted -> run_to_commit st k

(* A snapshot is the instance's scalar state — registers, flags, power
   and statistics — plus the pages written since boot.  Memory, WAR
   shadow and touched list are left out: pages nobody wrote still hold the
   image's initial data, and the shadow is blank.  The checkpoint area's
   page is always kept, because a resumed run restores from it.  The
   written-page bitmap is [s_pages] itself.  Left out too, because they
   would outweigh the pages: the per-pc tables (rebuilt, or lent by the
   resumed run's [reuse]) and the closed regions, one per commit, which
   are the first [commits] of the finished run's [region_sizes]. *)
type snapshot = {
  s_st : state;
      (** [mem], [kinds], [touched], [written], the per-pc tables and
          [regions_rev] empty *)
  s_pages : int array;  (** ascending page indices *)
  s_data : Bytes.t;  (** their contents, page after page *)
  s_out_len : int;  (** console outputs so far *)
  s_viol_len : int;  (** WAR violations so far *)
}

let snapshot st =
  if (not st.verify) || st.n_touched <> 0 then
    invalid_arg "Emulator.snapshot: needs a verify-mode instance with a blank \
                 WAR shadow";
  let pages = ref [] in
  for p = n_pages - 1 downto 0 do
    if p = ckpt_page || Bytes.get st.written p <> '\000' then
      pages := p :: !pages
  done;
  let pages = Array.of_list !pages in
  let data = Bytes.create (Array.length pages * page_size) in
  Array.iteri
    (fun i p ->
      Bytes.blit st.mem (p * page_size) data (i * page_size) page_size)
    pages;
  let s =
    clone
      {
        st with
        mem = Bytes.empty;
        kinds = Bytes.empty;
        touched = [||];
        written = Bytes.empty;
        regions_rev = [];
        cost = [||];
        eff_mask = [||];
        push_n = [||];
        call_fn = [||];
        fop = [||];
        fa = [||];
        fb = [||];
        fc = [||];
        fcond = [||];
      }
  in
  {
    s_st = s;
    s_pages = pages;
    s_data = data;
    s_out_len = List.length st.out_rev;
    s_viol_len = List.length st.violations;
  }

let snapshot_cycles s = s.s_st.cycles
let snapshot_commits s = s.s_st.commits
let snapshot_bytes s = Bytes.length s.s_data

(* The first on-period of a [Schedule] counts active cycles from boot, and
   [spend] only ever compares the cumulative spend against it, so a
   scheduled run whose first cut is at or after the snapshot's cycle is in
   exactly the snapshot's state when it gets there — with [d - cycles] of
   that period left and the cursor past it. *)
let resume ?reuse ~supply ~(final : result) snap =
  let s = snap.s_st in
  let rec rev_take n l acc =
    match l with x :: rest when n > 0 -> rev_take (n - 1) rest (x :: acc) | _ -> acc
  in
  let first =
    match supply with
    | Power.Schedule cuts when Array.length cuts > 0 && cuts.(0) >= s.cycles ->
        cuts.(0)
    | _ ->
        invalid_arg
          "Emulator.resume: needs a schedule whose first cut is at or after \
           the snapshot"
  in
  let power = Power.create supply in
  ignore (Power.next_budget power);
  let cost, eff_mask, push_n, call_fn, _, _, fop, fa, fb, fc, fcond =
    tables_for ?reuse ~save_all:s.save_all s.img
  in
  let mem, kinds, touched =
    match reuse with
    | Some old when old.verify -> recycled_buffers old
    | _ -> fresh_buffers ()
  in
  let st =
    {
      (clone s) with
      cost;
      eff_mask;
      push_n;
      call_fn;
      fop;
      fa;
      fb;
      fc;
      fcond;
      supply_desc = Power.describe supply;
      mem;
      kinds;
      touched;
      written = Bytes.make n_pages '\000';
      power;
      budget = first - s.cycles;
      regions_rev = rev_take s.commits final.region_sizes [];
    }
  in
  init_memory st;
  Array.iteri
    (fun i p ->
      Bytes.blit snap.s_data (i * page_size) st.mem (p * page_size) page_size;
      Bytes.set st.written p '\001')
    snap.s_pages;
  st

(* Memory outside the checkpoint area equals the snapshot's: every page
   the run wrote is one the snapshot holds, and those pages agree.  Pages
   neither wrote still hold the image's initial data in both. *)
let memory_matches st snap =
  (* [i] walks the ascending [s_pages] alongside [p] *)
  let rec unheld p i =
    p < n_pages
    &&
    let held = i < Array.length snap.s_pages && snap.s_pages.(i) = p in
    (Bytes.unsafe_get st.written p <> '\000' && not held)
    || unheld (p + 1) (if held then i + 1 else i)
  in
  let page_equal i p =
    let a = p * page_size and b = i * page_size in
    let rec go o =
      o >= page_size
      || (in_ckpt_area (a + o)
         || Int64.equal
              (Bytes.get_int64_le st.mem (a + o))
              (Bytes.get_int64_le snap.s_data (b + o)))
         && go (o + 8)
    in
    go 0
  in
  let rec pages i =
    i >= Array.length snap.s_pages
    || (page_equal i snap.s_pages.(i) && pages (i + 1))
  in
  (not (unheld 0 0)) && pages 0

let rec drop n l =
  match l with _ :: rest when n > 0 -> drop (n - 1) rest | _ -> l

let splice st snap ~(final : result) : result option =
  let s = snap.s_st in
  let suffix = final.cycles - s.cycles in
  let converged =
    st.commits = s.commits && st.verify && st.n_touched = 0
    && (not st.halted) && st.irq_period = 0 && s.irq_period = 0
    && st.budget >= suffix
    && st.cycles + suffix <= st.fuel
    && st.pc = s.pc && st.nf = s.nf && st.zf = s.zf && st.cf = s.cf
    && st.vf = s.vf && st.primask = s.primask
    && st.pending_irq = s.pending_irq
    && st.regs = s.regs && memory_matches st snap
  in
  if not converged then None
  else begin
    (* from here the run is the golden suffix, cycle for cycle *)
    let plus mine theirs base = mine + theirs - base in
    let counts =
      {
        c_entry = plus st.counts.c_entry final.checkpoints.c_entry s.counts.c_entry;
        c_exit = plus st.counts.c_exit final.checkpoints.c_exit s.counts.c_exit;
        c_middle =
          plus st.counts.c_middle final.checkpoints.c_middle s.counts.c_middle;
        c_backend =
          plus st.counts.c_backend final.checkpoints.c_backend
            s.counts.c_backend;
      }
    in
    let cycles = st.cycles + suffix in
    let calls = ref [] in
    Array.iteri
      (fun i name ->
        let n =
          plus st.fn_calls.(i)
            (Option.value ~default:0 (List.assoc_opt name final.call_counts))
            s.fn_calls.(i)
        in
        if n > 0 then calls := (name, n) :: !calls)
      st.fn_names;
    Some
      {
        output = List.rev_append st.out_rev (drop snap.s_out_len final.output);
        exit_code = final.exit_code;
        cycles;
        instrs = plus st.instrs final.instrs s.instrs;
        checkpoints = counts;
        checkpoints_total =
          counts.c_entry + counts.c_exit + counts.c_middle + counts.c_backend;
        (* one closed region per commit *)
        region_sizes =
          List.rev_append st.regions_rev (drop s.commits final.region_sizes);
        power_failures = st.failures;
        failure_sites = List.rev st.fail_sites_rev;
        boots = st.boots;
        (* the shadow is blank at a commit, so the suffix flags exactly
           what it flagged in the run [final] came from *)
        violations =
          List.rev_append st.violations (drop snap.s_viol_len final.violations);
        irqs_taken = plus st.irqs_taken final.irqs_taken s.irqs_taken;
        call_counts = List.sort compare !calls;
        waste =
          {
            w_useful = cycles - st.acc_boot - st.acc_restore - st.acc_reexec;
            w_boot = st.acc_boot;
            w_restore = st.acc_restore;
            w_reexec = st.acc_reexec;
          };
      }
  end

type engine_stats = {
  es_blocks : int;  (** basic blocks compiled (0 if never block-dispatched) *)
  es_compile_ms : float;  (** wall time spent translating blocks *)
  es_dispatches : int;  (** fused closures executed *)
  es_fallback_steps : int;  (** checked single steps at block-engine edges *)
}

let engine_stats st =
  let blocks, ms =
    match st.bcache with
    | None -> (0, 0.)
    | Some c -> (Array.length c.bc_blocks, c.bc_compile_ms)
  in
  {
    es_blocks = blocks;
    es_compile_ms = ms;
    es_dispatches = st.n_dispatch;
    es_fallback_steps = st.n_fallback;
  }

let batch_size = 4096

let run ?fuel ?supply ?irq_period ?verify ?tracer ?(engine = Auto)
    (img : Image.t) : result =
  let st = create ?fuel ?supply ?irq_period ?verify ?tracer img in
  (match engine with
  | Reference ->
      while not st.halted do
        ignore (step st)
      done
  | Auto | Uop | Block ->
      (* [run_batch] falls back to the reference path per batch whenever the
         configuration makes the fast engines ineligible (verify/trace/irq),
         so every engine shares one loop *)
      while not st.halted do
        ignore (run_batch ~engine st batch_size)
      done);
  result st

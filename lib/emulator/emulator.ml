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
module Util = Wario_support.Util

exception Emu_error of string
exception No_forward_progress of string

let no_forward_progress_threshold = 2000
let boot_cycles = 400

(* hardware exception entry: the eight-word frame push, an empty handler
   and the return *)
let irq_entry_cycles = 24
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

(* Pages of [page_size] bytes: the unit of the written-page bitmap and of
   the copies a jump check keeps.  1 KiB keeps a copy near the bytes
   actually written (a stack top, a few globals) while the checkpoint area
   still fits in page 0. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let n_pages = Image.mem_size lsr page_bits

(* A set of memory pages, each with a copy of its contents. *)
type pageset = {
  ps_slot : int array;  (** page -> slot; -1 when absent *)
  mutable ps_pages : int array;  (** slot -> page *)
  mutable ps_data : Bytes.t;  (** slot [i]'s copy at [i * page_size] *)
  mutable ps_n : int;
}

(* The continuous run's redo log (see {!start_log}).  Commit 0 is the
   state right after the first boot and commit [l_commits + 1] the halt.
   Every column is packed int32 words in chunks (see [word]); the
   per-commit ones hold one word per commit:
   - [l_cyc], [l_ins]: active cycles and retired instructions;
   - [l_meta]: resume pc (the halting pc for the halt) lsl 8, cause lsl 5
     (0 entry, 1 exit, 2 middle, 3 back end, 4 console), primask lsl 4,
     packed flags;
   - [l_off]: for j >= 1, the first word of region j's entries in [l_ops]
     (region j ends in commit j, or in the halt); entry [l_commits + 2]
     ends the stream.
   [l_ops] holds, per region, the bytes the region left written and
   the registers and call counters that differ from the previous commit:
   - [(addr lsl 8 lor byte) lsl 2]: one byte;
   - [addr lsl 2 lor 1], value: an aligned word;
   - [mask lsl 2 lor 2], values: the registers in [mask], lowest first;
   - [fn lsl 2 lor 3], count: calls of function slot [fn]. *)
type log = {
  l_img : Image.t;
  l_commits : int;
  l_cyc : Bytes.t array;
  l_ins : Bytes.t array;
  l_meta : Bytes.t array;
  l_off : Bytes.t array;
  l_ops : Bytes.t array;
  l_out : int32 array;  (** console output, oldest first *)
  l_out_at : int array;  (** the commit that emitted each output *)
  l_exit : int32;
  l_bases : base array;  (** [i]: at commit [(i + 1) * base_stride] *)
  l_tails : int list array;
      (** the logged run's region sizes from region [i * base_stride + 1]
          on: the suffix a run that jumps to the halt shares *)
}

(* The logged state at every [base_stride]th commit, so that a long jump
   replays at most two strides of regions: registers, cause counts and
   call counters there, and the pages the stride's regions wrote, with
   their contents there. *)
and base = {
  b_regs : int array;
  b_counts : int array;  (** as [counts] *)
  b_calls : int array;
  b_pages : int array;
  b_data : Bytes.t;  (** page [b_pages.(i)] at [i * page_size] *)
}

(* A log column while it grows: int32 words in chunks, so that growing
   it copies nothing. *)
type words = {
  mutable w_full : Bytes.t list;  (** full chunks, newest first *)
  mutable w_done : int;  (** words in [w_full] *)
  mutable w_cur : Bytes.t;
  mutable w_pos : int;  (** words in [w_cur] *)
}

(* A logging run's state: the log so far, the registers and call
   counters at the last commit, against which the next region's
   differences are taken, and the pages written since the last base. *)
type recorder = {
  r_cyc : words;
  r_ins : words;
  r_meta : words;
  r_off : words;
  r_ops : words;
  r_regs : int array;
  r_calls : int array;
  mutable r_out_at : int list;
  r_touched : Bytes.t;  (** per page: written since the last base *)
  mutable r_pages : int list;
  mutable r_bases : base list;  (** newest first *)
}

(* A run following a log: the last commit [fl_v] at which it was in the
   logged state (it has executed nothing since when its cycle count is
   still [fl_vcyc]), the logged registers there, the pages written since
   with their contents at [fl_v], and the back-off of failed checks. *)
type follower = {
  fl_log : log;
  mutable fl_v : int;
  mutable fl_vcyc : int;
  fl_vregs : int array;
  mutable fl_retry : int;  (** no check before this commit *)
  mutable fl_gap : int;  (** commits to the next retry after a failed one *)
  fl_undo : pageset;
  fl_scratch : pageset;  (** a check's logged pages *)
  fl_regs : int array;  (** a check's logged registers *)
  mutable fl_jumps : int;
  mutable fl_from_boot : bool;
}

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
  (* pages written since boot, one byte per [page_size] page, marked
     where the shadow first records a write: '\000' never written, '\001'
     written but not since the follower's last verified commit, '\002'
     written since (or written at all, without a follower).  Empty when
     [verify] is off.  [ckpt_read]/[ckpt_write]: a tracked load/store
     addressed the checkpoint area. *)
  written : Bytes.t;
  mutable ckpt_read : bool;
  mutable ckpt_write : bool;
  mutable recorder : recorder option;  (** logging replay ({!record}) *)
  mutable follower : follower option;  (** jumping run ({!follow}) *)
  mutable stop_commit : int;
      (** batches stop right after this commit ({!run_to_commit}) *)
  mutable jump_log : log option;
      (** the log of the jumps recorded in [regions_rev] *)
  mutable pagesets : (pageset * pageset) option;
      (** a follower's page copies, lent on by [create ~reuse] *)
  mutable tail_from : int;
      (** after a jump to the halt from commit [k]: [k], and the logged
          regions from [k + 1] on follow [regions_rev]; -1 otherwise *)
  (* stats *)
  counts : int array;
      (** commits by [cause_code]; console commits are not counted *)
  mutable region_start : int;
  mutable regions_rev : int list;
      (** closed regions, newest first; a negative entry stands for the
          logged regions of a jump (see [segment]) *)
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
  cost : int array;
      (** [instr_cycles] per pc ([Bc]: the taken cost, the larger) *)
  call_fn : int array;  (** callee's [fn_names] slot per pc ([Bl]); -1 *)
  fn_of_pc : int array;  (** enclosing function's [fn_names] slot per pc *)
  (* profiling: per-pc execution counts for the PGO pilot run ([None] =
     off).  Counting forces the reference path ([fast_eligible] checks it):
     compiled blocks never touch per-pc state. *)
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
  (* block engine: basic blocks translated to closures, compiled
     lazily on first use.  Closures are parameterized over the state (they
     capture only per-image constants), so the cache is shared by [clone]s. *)
  mutable bcache : bcache option;
  mutable n_dispatch : int;  (** block-closure dispatches *)
  mutable n_fallback : int;  (** reference-step fallbacks (block engine) *)
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
let func_of st pc = st.fn_names.(st.fn_of_pc.(pc))

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

let pageset_create () =
  {
    ps_slot = Array.make n_pages (-1);
    ps_pages = Array.make 8 0;
    ps_data = Bytes.create (8 * page_size);
    ps_n = 0;
  }

(* Add page [p] (absent) with a copy of [src] from [src_off]; its slot. *)
let pageset_add ps p src src_off =
  let i = ps.ps_n in
  if i = Array.length ps.ps_pages then begin
    let pages = Array.make (2 * i) 0 and data = Bytes.create (2 * i * page_size) in
    Array.blit ps.ps_pages 0 pages 0 i;
    Bytes.blit ps.ps_data 0 data 0 (i * page_size);
    ps.ps_pages <- pages;
    ps.ps_data <- data
  end;
  Bytes.blit src src_off ps.ps_data (i * page_size) page_size;
  ps.ps_pages.(i) <- p;
  ps.ps_slot.(p) <- i;
  ps.ps_n <- i + 1;
  i

let pageset_clear ps =
  for i = 0 to ps.ps_n - 1 do
    ps.ps_slot.(ps.ps_pages.(i)) <- -1
  done;
  ps.ps_n <- 0

(* First write to page [p] since the follower's last verified commit (or
   since boot): a follower keeps the page's contents from before it. *)
let dirty_page st p =
  (match st.follower with
  | Some f -> ignore (pageset_add f.fl_undo p st.mem (p lsl page_bits))
  | None -> ());
  Bytes.unsafe_set st.written p '\002'

let[@inline] note_write st i =
  let p = i lsr page_bits in
  if Bytes.unsafe_get st.written p <> '\002' then dirty_page st p

(* Start a new region: O(bytes touched in the old one), not O(memory). *)
let clear_shadow st =
  for j = 0 to st.n_touched - 1 do
    Bytes.unsafe_set st.kinds (Array.unsafe_get st.touched j) ' '
  done;
  st.n_touched <- 0

(* [shadow_read]/[shadow_write] record an access in a verify-mode
   instance's shadow; [track_read]/[track_write] are the same for any
   instance, a no-op when [verify] is off.  Compiled verify-mode blocks
   call the former directly: their variant is chosen at compile time. *)
let shadow_read st a n =
  if in_ckpt_area a then st.ckpt_read <- true
  else
    for i = a to a + n - 1 do
      if Bytes.unsafe_get st.kinds i = ' ' then mark st i 'r'
    done

(* A byte turns 'w' at most once per region, and only here: that is
   where the written-page bitmap is kept, one test per byte first written
   in a region.  It runs before the store itself, so a follower's copy of
   a page is the page before the write. *)
let shadow_write st a n =
  if in_ckpt_area a then st.ckpt_write <- true
  else
    for i = a to a + n - 1 do
      let k = Bytes.unsafe_get st.kinds i in
      if k = ' ' then begin
        mark st i 'w';
        note_write st i
      end
      else if k = 'r' then begin
        note_write st i;
        st.violations <-
          {
            v_pc = st.pc;
            v_func = func_of st st.pc;
            v_addr = i;
            v_instr = I.string_of_instr st.img.Image.code.(st.pc);
          }
          :: st.violations;
        (* only report each byte once per region *)
        Bytes.unsafe_set st.kinds i 'w'
      end
    done

let track_read st a n = if st.verify then shadow_read st a n
let track_write st a n = if st.verify then shadow_write st a n

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

(* The registers a commit saves: a checkpoint's live mask, r0-r12 and lr
   for console output; -1 for any other instruction. *)
let saved_mask : I.instr -> int = function
  | I.Ckpt (_, mask) -> mask
  | I.Svc 0 -> 0x5fff
  | _ -> -1

(* The cycle model: the cycles one instruction spends, [taken] telling
   whether a conditional branch branches (a taken branch refills the
   three-stage pipeline).  Pseudo instructions never execute. *)
let instr_cycles ~taken (ins : I.instr) =
  match ins with
  | I.Alu ((I.SDIV | I.UDIV), _, _, _) -> 6
  | I.Alu _ | I.Mov _ | I.Movc _ | I.Cmp _ | I.Cpsid | I.Cpsie -> 1
  | I.Movw32 _ | I.Ldr _ | I.LdrR _ | I.Str _ | I.StrR _ | I.AdrData _ -> 2
  | I.Push rs -> 1 + List.length rs
  | I.B _ | I.Bx_lr -> 3
  | I.Bc _ -> if taken then 3 else 1
  | I.Bl _ -> 4
  | I.Ckpt _ -> ckpt_cost (saved_mask ins)
  | I.Svc 0 -> 2 + ckpt_cost (saved_mask ins)
  | I.Svc _ -> 1
  | I.FrameAddr _ | I.SpillLd _ | I.SpillSt _ -> 0

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

(* --- a logging run's records (see [start_log]) --- *)

let chunk_bits = 12
let chunk_words = 1 lsl chunk_bits
let base_stride = 256

let words_create () =
  { w_full = []; w_done = 0; w_cur = Bytes.create (4 * chunk_words); w_pos = 0 }

let words_grow w =
  w.w_full <- w.w_cur :: w.w_full;
  w.w_done <- w.w_done + w.w_pos;
  w.w_cur <- Bytes.create (4 * chunk_words);
  w.w_pos <- 0

let[@inline] words_add w v =
  if w.w_pos = chunk_words then words_grow w;
  Bytes.set_int32_le w.w_cur (4 * w.w_pos) (Int32.of_int v);
  w.w_pos <- w.w_pos + 1

let words_length w = w.w_done + w.w_pos

(* A column kept in its chunks, the last one trimmed: a column is never
   copied whole. *)
let words_chunks w =
  Array.of_list
    (List.rev (Bytes.sub w.w_cur 0 (4 * w.w_pos) :: w.w_full))

(* Word [i] of a finished column. *)
let[@inline] word col i =
  Int32.to_int
    (Bytes.get_int32_le
       (Array.unsafe_get col (i lsr chunk_bits))
       (4 * (i land (chunk_words - 1))))

(* The registers entry [x] at word [i] of [ops] into [regs]; the next
   entry's index. *)
let load_regs ops i x regs =
  let mask = x lsr 2 and j = ref (i + 1) in
  for r = 0 to 15 do
    if mask land (1 lsl r) <> 0 then begin
      regs.(r) <- word ops !j;
      incr j
    end
  done;
  !j

let cause_code : Tr.cause -> int = function
  | Tr.Entry -> 0
  | Tr.Exit -> 1
  | Tr.Middle -> 2
  | Tr.Backend -> 3
  | Tr.Console -> 4

(* The one place a commit's cause is counted, whether the run makes the
   commit or jumps over it; console commits (4) are not counted. *)
let[@inline] count_cause counts code =
  if code < 4 then Array.unsafe_set counts code (Array.unsafe_get counts code + 1)

let meta_of st pc cause =
  (pc lsl 8) lor (cause lsl 5)
  lor (if st.primask then 16 else 0)
  lor pack_flags st

(* The region just ended: the bytes it wrote (each byte it wrote is
   marked 'w' in the shadow, once), with their values now, then the
   registers and call counters that changed since the last commit. *)
let record_region st r =
  let ops = r.r_ops and t = st.touched and n = st.n_touched
  and kinds = st.kinds in
  let j = ref 0 in
  while !j < n do
    let i = !j in
    let a = Array.unsafe_get t i in
    if Bytes.unsafe_get kinds a <> 'w' then j := i + 1
    else begin
      if
        a land 3 = 0 && i + 3 < n
        && Array.unsafe_get t (i + 1) = a + 1
        && Array.unsafe_get t (i + 2) = a + 2
        && Array.unsafe_get t (i + 3) = a + 3
        && Bytes.unsafe_get kinds (a + 1) = 'w'
        && Bytes.unsafe_get kinds (a + 2) = 'w'
        && Bytes.unsafe_get kinds (a + 3) = 'w'
      then begin
        words_add ops ((a lsl 2) lor 1);
        words_add ops (ld32 st.mem a);
        j := i + 4
      end
      else begin
        words_add ops
          (((a lsl 8) lor Char.code (Bytes.unsafe_get st.mem a)) lsl 2);
        j := i + 1
      end;
      let p = a lsr page_bits in
      if Bytes.unsafe_get r.r_touched p = '\000' then begin
        Bytes.unsafe_set r.r_touched p '\001';
        r.r_pages <- p :: r.r_pages
      end
    end
  done;
  let regs = st.regs and logged = r.r_regs in
  let changed = ref 0 in
  for i = 0 to 15 do
    if Array.unsafe_get regs i <> Array.unsafe_get logged i then
      changed := !changed lor (1 lsl i)
  done;
  if !changed <> 0 then begin
    words_add ops ((!changed lsl 2) lor 2);
    for i = 0 to 15 do
      if !changed land (1 lsl i) <> 0 then begin
        words_add ops (Array.unsafe_get regs i);
        Array.unsafe_set logged i (Array.unsafe_get regs i)
      end
    done
  end;
  for i = 0 to Array.length st.fn_calls - 1 do
    if st.fn_calls.(i) <> r.r_calls.(i) then begin
      words_add ops ((i lsl 2) lor 3);
      words_add ops (st.fn_calls.(i) - r.r_calls.(i));
      r.r_calls.(i) <- st.fn_calls.(i)
    end
  done;
  words_add r.r_off (words_length r.r_ops)

(* Called by the commit itself, after its cause is counted and before the
   shadow is cleared; the checkpoint instruction retires right after. *)
let record_commit st r code resume_pc =
  let j = st.commits in
  record_region st r;
  words_add r.r_cyc st.cycles;
  words_add r.r_ins (st.instrs + 1);
  words_add r.r_meta (meta_of st resume_pc code);
  if code = 4 then r.r_out_at <- j :: r.r_out_at;
  if j mod base_stride = 0 then begin
    let pages = Array.of_list (List.sort compare r.r_pages) in
    let data = Bytes.create (Array.length pages * page_size) in
    Array.iteri
      (fun i p ->
        Bytes.blit st.mem (p lsl page_bits) data (i * page_size) page_size;
        Bytes.set r.r_touched p '\000')
      pages;
    r.r_pages <- [];
    r.r_bases <-
      {
        b_regs = Array.copy st.regs;
        b_counts = Array.copy st.counts;
        b_calls = Array.copy st.fn_calls;
        b_pages = pages;
        b_data = data;
      }
      :: r.r_bases
  end

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
  let code = cause_code cause in
  count_cause st.counts code;
  if st.trace_on then
    Tr.emit st.tracer st.cycles
      (Tr.Checkpoint
         {
           cause;
           pc = st.pc;
           func = func_of st st.pc;
           mask;
           bytes = ckpt_bytes mask;
           cost = ckpt_cost mask;
         });
  (match st.recorder with
  | Some r -> record_commit st r code resume_pc
  | None -> ());
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
  if st.trace_on then begin
    let func = func_of st st.pc in
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
  spend st irq_entry_cycles;
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
      (Tr.Irq { pc = st.pc; func = func_of st st.pc })

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

(* Every instruction spends its [cost] entry, an untaken [Bc] its
   untaken cost; a pseudo instruction raises without spending. *)
let exec_instr st (ins : I.instr) =
  let pc = st.pc in
  let next = pc + 1 in
  match ins with
  | I.FrameAddr _ | I.SpillLd _ | I.SpillSt _ ->
      raise (Emu_error ("pseudo instruction in linked code: " ^ I.string_of_instr ins))
  | I.Bc (c, _) when not (cond_holds st c) ->
      spend st (instr_cycles ~taken:false ins);
      st.pc <- next
  | _ -> (
      spend st st.cost.(pc);
      match ins with
      | I.Alu (op, rd, rn, o) ->
          st.regs.(rd) <- eval_alu op st.regs.(rn) (op2 st o);
          st.pc <- next
      | I.Mov (rd, o) ->
          st.regs.(rd) <- op2 st o;
          st.pc <- next
      | I.Movw32 (rd, v) ->
          st.regs.(rd) <- Int32.to_int v;
          st.pc <- next
      | I.Movc (c, rd, o) ->
          if cond_holds st c then st.regs.(rd) <- op2 st o;
          st.pc <- next
      | I.Cmp (rn, o) ->
          set_flags st st.regs.(rn) (op2 st o);
          st.pc <- next
      | I.Ldr (w, rd, rn, off) ->
          st.regs.(rd) <- load st w (st.regs.(rn) + Int32.to_int off);
          st.pc <- next
      | I.LdrR (w, rd, rn, rm) ->
          st.regs.(rd) <- load st w (st.regs.(rn) + st.regs.(rm));
          st.pc <- next
      | I.Str (w, rd, rn, off) ->
          store st w (st.regs.(rn) + Int32.to_int off) st.regs.(rd);
          st.pc <- next
      | I.StrR (w, rd, rn, rm) ->
          store st w (st.regs.(rn) + st.regs.(rm)) st.regs.(rd);
          st.pc <- next
      | I.AdrData (rd, _, _) ->
          st.regs.(rd) <- Int32.to_int st.img.Image.adr.(pc);
          st.pc <- next
      | I.Push rs ->
          let n = List.length rs in
          let sp = st.regs.(I.sp) - (4 * n) in
          check_addr st sp (4 * n);
          List.iteri
            (fun i r ->
              track_write st (sp + (4 * i)) 4;
              raw_store32 st (sp + (4 * i)) st.regs.(r))
            rs;
          st.regs.(I.sp) <- sp;
          st.pc <- next
      | I.B _ | I.Bc _ -> st.pc <- st.img.Image.target.(pc)
      | I.Bl _ ->
          let idx = st.call_fn.(pc) in
          st.fn_calls.(idx) <- st.fn_calls.(idx) + 1;
          st.regs.(I.lr) <- next;
          st.pc <- st.img.Image.target.(pc)
      | I.Bx_lr ->
          if st.regs.(I.lr) = halt_magic_i then begin
            st.halted <- true;
            st.exit_code <- Int32.of_int st.regs.(0);
            if st.trace_on then
              Tr.emit st.tracer st.cycles (Tr.Halt { exit_code = st.exit_code })
          end
          else st.pc <- st.regs.(I.lr)
      | I.Ckpt (cause, mask) ->
          commit_checkpoint st ~cause:(obs_cause cause) mask next;
          st.pc <- next
      | I.Cpsid ->
          st.primask <- true;
          st.pc <- next
      | I.Cpsie ->
          st.primask <- false;
          st.pc <- next
      | I.Svc 0 ->
          (* console output, made atomic with an implicit checkpoint (the
             standard treatment of peripheral output; not counted in the
             cause statistics) *)
          st.out_rev <- Int32.of_int st.regs.(0) :: st.out_rev;
          commit_checkpoint st ~cause:Tr.Console (saved_mask ins) next;
          st.pc <- next
      | I.Svc _ ->
          st.halted <- true;
          st.exit_code <- Int32.of_int st.regs.(0);
          if st.trace_on then
            Tr.emit st.tracer st.cycles (Tr.Halt { exit_code = st.exit_code })
      | I.FrameAddr _ | I.SpillLd _ | I.SpillSt _ -> assert false)

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

(* Per-pc cost/callee tables, computed once per instance.  They fold
   every static per-instruction decision — [instr_cycles] and callee
   identity — out of the interpreter loop. *)
let build_tables (img : Image.t) =
  let n = Array.length img.Image.code in
  let cost = Array.make n 0 and call_fn = Array.make n (-1) in
  let fn_of_pc = Array.make n 0 in
  (* dense function indexing, in layout order (deterministic); the
     image's block ranges expand to one slot per pc *)
  let index = Hashtbl.create 16 in
  let names_rev = ref [] in
  Image.iter_blocks
    (fun b stop ->
      let f = b.Image.func in
      let i =
        match Hashtbl.find_opt index f with
        | Some i -> i
        | None ->
            let i = Hashtbl.length index in
            Hashtbl.add index f i;
            names_rev := f :: !names_rev;
            i
      in
      Array.fill fn_of_pc b.Image.first (stop - b.Image.first) i)
    img;
  for pc = 0 to n - 1 do
    let ins = img.Image.code.(pc) in
    cost.(pc) <- instr_cycles ~taken:true ins;
    match ins with
    | I.Bl _ -> call_fn.(pc) <- fn_of_pc.(img.Image.target.(pc))
    | _ -> ()
  done;
  (cost, call_fn, fn_of_pc, Array.of_list (List.rev !names_rev))

let create ?(fuel = 2_000_000_000) ?(supply = Power.Continuous)
    ?(irq_period = 0) ?(verify = true) ?(tracer = Tr.null)
    ?(count_pcs = false) ?reuse (img : Image.t) : t =
  let reuse =
    match reuse with Some old when verify && old.verify -> Some old | _ -> None
  in
  (* a verify-mode instance of the same image lends its per-pc tables and
     compiled blocks (see [get_bcache]) *)
  let same = match reuse with Some o when o.img == img -> reuse | _ -> None in
  let cost, call_fn, fn_of_pc, fn_names =
    match same with
    | Some o -> (o.cost, o.call_fn, o.fn_of_pc, o.fn_names)
    | None -> build_tables img
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
      ckpt_write = false;
      recorder = None;
      follower = None;
      stop_commit = max_int;
      jump_log = None;
      pagesets = (match reuse with Some o -> o.pagesets | None -> None);
      tail_from = -1;
      counts = Array.make 4 0;
      region_start = 0;
      regions_rev = [];
      failures = 0;
      boots = 0;
      boots_since_commit = 0;
      out_rev = [];
      fn_names;
      fn_calls = Array.make (Array.length fn_names) 0;
      cost;
      call_fn;
      fn_of_pc;
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
      bcache = Option.bind same (fun o -> o.bcache);
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
          let f = func_of st st.pc in
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

(* n [step]s on the fully instrumented reference interpreter, fewer when
   one makes the commit the batch stops at *)
let reference_batch st n : step =
  let rec go left =
    if left = 0 || st.commits >= st.stop_commit then Stepped
    else match step st with Stepped -> go (left - 1) | s -> s
  in
  go n

(* ------------------------------------------------------------------ *)
(* Block engine                                                         *)
(* ------------------------------------------------------------------ *)

(* Basic blocks of the image's code, translated once into closures.  Leaders: the image entry, every branch target, the pc after
   any control transfer (call returns included) and every checkpoint
   site — a commit snapshots the registers, cycle counter and flags, so a
   checkpoint must begin its own block with fully published state.  The
   dispatcher pre-checks power budget and fuel against the block's
   worst-case cost; anywhere the proof fails (power edge, fuel edge, quota
   smaller than the block, or a computed branch landing mid-block) it
   falls back to one reference [step], which is exact by construction.

   Closures update the cycle/budget/instruction counters with per-exit
   static constants at the block exit only, and capture nothing but ints
   and per-image arrays: the state is passed as the argument, so one
   compiled cache serves every [clone].

   A [Cmp] feeding the block's own terminating [Bc] fuses into the branch,
   which tests the equivalent native-int predicate and still sets the
   flags exactly as the reference path does.

   A verify-mode instance gets verify-mode blocks: every load, store and
   push records its access in the WAR shadow where the reference path
   does, so violations, the written-page bitmap and [ckpt_read] come out
   the same.  A commit still ends its block, so the shadow is blank right
   after one, and a batch can stop there, as {!run_to_commit} and the
   jumps of {!follow} need. *)

(* The block engine is only sound when nothing per-step is observable
   beyond the architectural state and the WAR shadow: no tracer, no
   interrupt timer, no per-pc counts.  ([pending_irq] is included for
   completeness: it can only be set while [irq_period > 0].) *)
let fast_eligible st =
  (not st.trace_on) && st.irq_period = 0
  && (not st.pending_irq)
  && st.pc_counts = None

let max_block_len = 64

let is_terminator : I.instr -> bool = function
  | I.B _ | I.Bc _ | I.Bl _ | I.Bx_lr | I.Ckpt _ | I.Svc _ | I.FrameAddr _
  | I.SpillLd _ | I.SpillSt _ ->
      true
  | _ -> false

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

let compile_blocks (st : state) : bcache =
  let img = st.img in
  let code = img.Image.code and target = img.Image.target in
  let n = Array.length code in
  let cost = st.cost
  and call_fn = st.call_fn
  and verify = st.verify in
  let msize = Image.mem_size in
  (* ---- pass 1: leaders ---- *)
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(img.Image.entry) <- true;
  let mark t = if t >= 0 && t < n then leader.(t) <- true in
  for pc = 0 to n - 1 do
    match code.(pc) with
    | I.B _ | I.Bc _ | I.Bl _ ->
        mark target.(pc);
        mark (pc + 1)
    | I.Ckpt _ | I.Svc 0 ->
        mark pc;
        mark (pc + 1)
    | ins -> if is_terminator ins then mark (pc + 1)
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
      else if is_terminator code.(pc) then begin
        body_end.(i) <- pc;
        term_pc.(i) <- pc
      end
      else scan (pc + 1)
    in
    scan s
  done;
  (* ---- pass 3: translate each block to one closure ---- *)
  let compile_one i =
    let s = starts.(i) in
    let e = body_end.(i) in
    let t = term_pc.(i) in
    let limit = if i + 1 < nbk then starts.(i + 1) else n in
    (* a [Cmp] immediately feeding the terminating [Bc] fuses into the
       branch *)
    let fuse_cmp =
      t >= 0
      && (match code.(t) with I.Bc _ -> true | _ -> false)
      && e > s
      && match code.(e - 1) with I.Cmp _ -> true | _ -> false
    in
    let body_stop = if fuse_cmp then e - 1 else e in
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
          match code.(t) with
          | I.B _ ->
              let tc = bc_ + cost.(t) and tn = bn + 1 in
              let nb = bidx.(target.(t)) in
              fun st ->
                st.cycles <- st.cycles + tc;
                st.budget <- st.budget - tc;
                st.instrs <- st.instrs + tn;
                nb
          | I.Bl _ ->
              let tc = bc_ + cost.(t) and tn = bn + 1 in
              let nb = bidx.(target.(t)) in
              let slot = call_fn.(t) and ret = t + 1 in
              fun st ->
                Array.unsafe_set st.regs 14 ret;
                Array.unsafe_set st.fn_calls slot
                  (Array.unsafe_get st.fn_calls slot + 1);
                st.cycles <- st.cycles + tc;
                st.budget <- st.budget - tc;
                st.instrs <- st.instrs + tn;
                nb
          | I.Bx_lr ->
              let tc = bc_ + cost.(t) and tn = bn + 1 in
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
          | I.Ckpt _ | I.Svc 0 ->
              (* its own single-instruction block (commit sites are
                 leaders), so every counter is exact at the commit *)
              let cst = cost.(t) and mask = saved_mask code.(t) in
              let cause =
                match code.(t) with
                | I.Ckpt (c, _) -> obs_cause c
                | _ -> Tr.Console
              in
              let console = cause = Tr.Console in
              let me = t in
              let nb = if t + 1 < n then bidx.(t + 1) else -1 in
              fun st ->
                st.pc <- me;
                st.cycles <- st.cycles + cst;
                st.budget <- st.budget - cst;
                if console then
                  st.out_rev <-
                    Int32.of_int (Array.unsafe_get st.regs 0) :: st.out_rev;
                commit_checkpoint st ~cause mask (me + 1);
                st.instrs <- st.instrs + 1;
                if nb >= 0 && st.commits < st.stop_commit then nb
                else begin
                  st.pc <- me + 1;
                  -1
                end
          | I.Svc _ ->
              let tc = bc_ + cost.(t) and tn = bn + 1 in
              let me = t in
              fun st ->
                st.cycles <- st.cycles + tc;
                st.budget <- st.budget - tc;
                st.instrs <- st.instrs + tn;
                st.pc <- me;
                st.halted <- true;
                st.exit_code <- Int32.of_int (Array.unsafe_get st.regs 0);
                -1
          | I.Bc (cnd, _) ->
              let tcT = bc_ + cost.(t)
              and tcN = bc_ + instr_cycles ~taken:false code.(t)
              and tn = bn + 1 in
              let tgt = bidx.(target.(t)) in
              let nbn = if t + 1 < n then bidx.(t + 1) else -1 in
              let me = t in
              if fuse_cmp then begin
                (* cmp+bc superinstruction: branches on the native-int
                   predicate, sets the flags as the reference path does *)
                let xa, xc, cmp_reg =
                  match code.(e - 1) with
                  | I.Cmp (rn, I.R rm) -> (rn, rm, true)
                  | I.Cmp (rn, I.I v) -> (rn, Int32.to_int v, false)
                  | _ -> assert false
                in
                fun st ->
                  let x = Array.unsafe_get st.regs xa in
                  let y = if cmp_reg then Array.unsafe_get st.regs xc else xc in
                  set_flags st x y;
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
              end
              else fun st ->
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
          | ins ->
              (* a pseudo instruction: it neither spends nor retires, as
                 in the reference path *)
              let tc = bc_ and tn = bn in
              let me = t in
              fun st ->
                st.cycles <- st.cycles + tc;
                st.budget <- st.budget - tc;
                st.instrs <- st.instrs + tn;
                st.pc <- me;
                raise
                  (Emu_error
                     ("pseudo instruction in linked code: " ^ I.string_of_instr ins)))
    in
    (* ---- body, folded right-to-left into the terminator ----
       [fault_consts pc]: the cycles spent within the block up to and
       including [pc], and the instructions retired before it — the
       constants a fault at [pc] must publish. *)
    let fault_consts pc =
      let cc = ref 0 in
      for p = s to pc - 1 do
        cc := !cc + cost.(p)
      done;
      (!cc + cost.(pc), pc - s)
    in
    let comp pc (k : state -> int) : state -> int =
      let me = pc in
      let fcy, cn = fault_consts pc in
      match code.(pc) with
      | I.Alu (op, a, b, I.R c) -> (
          match op with
          | I.ADD ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a
                  (sext32 (Array.unsafe_get r b + Array.unsafe_get r c));
                k st
          | I.SUB ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a
                  (sext32 (Array.unsafe_get r b - Array.unsafe_get r c));
                k st
          | I.RSB ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a
                  (sext32 (Array.unsafe_get r c - Array.unsafe_get r b));
                k st
          | I.MUL ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a
                  (sext32 (Array.unsafe_get r b * Array.unsafe_get r c));
                k st
          | I.SDIV ->
              fun st ->
                let r = st.regs in
                let x = Array.unsafe_get r b and y = Array.unsafe_get r c in
                Array.unsafe_set r a
                  (if y = 0 then 0
                   else if x = -0x80000000 && y = -1 then -0x80000000
                   else x / y);
                k st
          | I.UDIV ->
              fun st ->
                let r = st.regs in
                let x = Array.unsafe_get r b land 0xffffffff
                and y = Array.unsafe_get r c land 0xffffffff in
                Array.unsafe_set r a (if y = 0 then 0 else sext32 (x / y));
                k st
          | I.AND ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a
                  (Array.unsafe_get r b land Array.unsafe_get r c);
                k st
          | I.ORR ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a
                  (Array.unsafe_get r b lor Array.unsafe_get r c);
                k st
          | I.EOR ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a
                  (Array.unsafe_get r b lxor Array.unsafe_get r c);
                k st
          | I.LSL ->
              fun st ->
                let r = st.regs in
                let sh = Array.unsafe_get r c land 255 in
                Array.unsafe_set r a
                  (if sh >= 32 then 0 else sext32 (Array.unsafe_get r b lsl sh));
                k st
          | I.LSR ->
              fun st ->
                let r = st.regs in
                let sh = Array.unsafe_get r c land 255 in
                Array.unsafe_set r a
                  (if sh >= 32 then 0
                   else sext32 ((Array.unsafe_get r b land 0xffffffff) lsr sh));
                k st
          | I.ASR ->
              fun st ->
                let r = st.regs in
                let sh = Array.unsafe_get r c land 255 in
                Array.unsafe_set r a
                  (if sh >= 32 then Array.unsafe_get r b asr 31
                   else Array.unsafe_get r b asr sh);
                k st)
      | I.Alu (op, a, b, I.I v) -> (
          let c = Int32.to_int v in
          match op with
          | I.ADD ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a (sext32 (Array.unsafe_get r b + c));
                k st
          | I.SUB ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a (sext32 (Array.unsafe_get r b - c));
                k st
          | I.RSB ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a (sext32 (c - Array.unsafe_get r b));
                k st
          | I.MUL ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a (sext32 (Array.unsafe_get r b * c));
                k st
          | I.SDIV ->
              fun st ->
                let r = st.regs in
                let x = Array.unsafe_get r b in
                Array.unsafe_set r a
                  (if c = 0 then 0
                   else if x = -0x80000000 && c = -1 then -0x80000000
                   else x / c);
                k st
          | I.UDIV ->
              let y = c land 0xffffffff in
              fun st ->
                let r = st.regs in
                let x = Array.unsafe_get r b land 0xffffffff in
                Array.unsafe_set r a (if y = 0 then 0 else sext32 (x / y));
                k st
          | I.AND ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a (Array.unsafe_get r b land c);
                k st
          | I.ORR ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a (Array.unsafe_get r b lor c);
                k st
          | I.EOR ->
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a (Array.unsafe_get r b lxor c);
                k st
          | I.LSL ->
              let sh = c land 255 in
              if sh >= 32 then fun st ->
                Array.unsafe_set st.regs a 0;
                k st
              else fun st ->
                let r = st.regs in
                Array.unsafe_set r a (sext32 (Array.unsafe_get r b lsl sh));
                k st
          | I.LSR ->
              let sh = c land 255 in
              if sh >= 32 then fun st ->
                Array.unsafe_set st.regs a 0;
                k st
              else fun st ->
                let r = st.regs in
                Array.unsafe_set r a
                  (sext32 ((Array.unsafe_get r b land 0xffffffff) lsr sh));
                k st
          | I.ASR ->
              let sh = min (c land 255) 31 in
              fun st ->
                let r = st.regs in
                Array.unsafe_set r a (Array.unsafe_get r b asr sh);
                k st)
      | I.Mov (a, I.R c) ->
          fun st ->
            let r = st.regs in
            Array.unsafe_set r a (Array.unsafe_get r c);
            k st
      | (I.Mov (a, I.I _) | I.Movw32 (a, _) | I.AdrData (a, _, _)) as ins ->
          let c =
            match ins with
            | I.Mov (_, I.I v) | I.Movw32 (_, v) -> Int32.to_int v
            | _ -> Int32.to_int img.Image.adr.(pc) (* resolved at link *)
          in
          fun st ->
            Array.unsafe_set st.regs a c;
            k st
      | I.Movc (cnd, a, I.R c) ->
          fun st ->
            let r = st.regs in
            if cond_holds st cnd then
              Array.unsafe_set r a (Array.unsafe_get r c);
            k st
      | I.Movc (cnd, a, I.I v) ->
          let c = Int32.to_int v in
          fun st ->
            if cond_holds st cnd then Array.unsafe_set st.regs a c;
            k st
      | I.Cmp (a, I.R c) ->
          fun st ->
            let r = st.regs in
            set_flags st (Array.unsafe_get r a) (Array.unsafe_get r c);
            k st
      | I.Cmp (a, I.I v) ->
          let c = Int32.to_int v in
          fun st ->
            set_flags st (Array.unsafe_get st.regs a) c;
            k st
      | I.Ldr (w, a, b, off) -> (
          let c = Int32.to_int off in
          match w with
          | I.W8 ->
              fun st ->
                let r = st.regs in
                let ad = (Array.unsafe_get r b + c) land 0xffffffff in
                if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
                Array.unsafe_set r a (Char.code (Bytes.unsafe_get st.mem ad));
                k st
          | I.S8 ->
              fun st ->
                let r = st.regs in
                let ad = (Array.unsafe_get r b + c) land 0xffffffff in
                if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
                Array.unsafe_set r a
                  ((Char.code (Bytes.unsafe_get st.mem ad) lxor 0x80) - 0x80);
                k st
          | I.W16 ->
              fun st ->
                let r = st.regs in
                let ad = (Array.unsafe_get r b + c) land 0xffffffff in
                if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
                Array.unsafe_set r a (ld16 st.mem ad);
                k st
          | I.S16 ->
              fun st ->
                let r = st.regs in
                let ad = (Array.unsafe_get r b + c) land 0xffffffff in
                if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
                Array.unsafe_set r a ((ld16 st.mem ad lxor 0x8000) - 0x8000);
                k st
          | I.W32 ->
              fun st ->
                let r = st.regs in
                let ad = (Array.unsafe_get r b + c) land 0xffffffff in
                if ad < 0x40 || ad + 4 > msize then mfault st me fcy cn ad 4;
                Array.unsafe_set r a (ld32 st.mem ad);
                k st)
      | I.LdrR (w, a, b, c) -> (
          match w with
          | I.W8 ->
              fun st ->
                let r = st.regs in
                let ad =
                  (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
                in
                if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
                Array.unsafe_set r a (Char.code (Bytes.unsafe_get st.mem ad));
                k st
          | I.S8 ->
              fun st ->
                let r = st.regs in
                let ad =
                  (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
                in
                if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
                Array.unsafe_set r a
                  ((Char.code (Bytes.unsafe_get st.mem ad) lxor 0x80) - 0x80);
                k st
          | I.W16 ->
              fun st ->
                let r = st.regs in
                let ad =
                  (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
                in
                if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
                Array.unsafe_set r a (ld16 st.mem ad);
                k st
          | I.S16 ->
              fun st ->
                let r = st.regs in
                let ad =
                  (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
                in
                if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
                Array.unsafe_set r a ((ld16 st.mem ad lxor 0x8000) - 0x8000);
                k st
          | I.W32 ->
              fun st ->
                let r = st.regs in
                let ad =
                  (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
                in
                if ad < 0x40 || ad + 4 > msize then mfault st me fcy cn ad 4;
                Array.unsafe_set r a (ld32 st.mem ad);
                k st)
      (* a sign-extending width stores as its unsigned twin *)
      | I.Str (w, a, b, off) -> (
          let c = Int32.to_int off in
          match w with
          | I.W8 | I.S8 ->
              fun st ->
                let r = st.regs in
                let ad = (Array.unsafe_get r b + c) land 0xffffffff in
                if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
                Bytes.unsafe_set st.mem ad
                  (Char.unsafe_chr (Array.unsafe_get r a land 0xff));
                k st
          | I.W16 | I.S16 ->
              fun st ->
                let r = st.regs in
                let ad = (Array.unsafe_get r b + c) land 0xffffffff in
                if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
                st16 st.mem ad (Array.unsafe_get r a);
                k st
          | I.W32 ->
              fun st ->
                let r = st.regs in
                let ad = (Array.unsafe_get r b + c) land 0xffffffff in
                if ad < 0x40 || ad + 4 > msize then mfault st me fcy cn ad 4;
                st32 st.mem ad (Array.unsafe_get r a);
                k st)
      | I.StrR (w, a, b, c) -> (
          match w with
          | I.W8 | I.S8 ->
              fun st ->
                let r = st.regs in
                let ad =
                  (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
                in
                if ad < 0x40 || ad + 1 > msize then mfault st me fcy cn ad 1;
                Bytes.unsafe_set st.mem ad
                  (Char.unsafe_chr (Array.unsafe_get r a land 0xff));
                k st
          | I.W16 | I.S16 ->
              fun st ->
                let r = st.regs in
                let ad =
                  (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
                in
                if ad < 0x40 || ad + 2 > msize then mfault st me fcy cn ad 2;
                st16 st.mem ad (Array.unsafe_get r a);
                k st
          | I.W32 ->
              fun st ->
                let r = st.regs in
                let ad =
                  (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
                in
                if ad < 0x40 || ad + 4 > msize then mfault st me fcy cn ad 4;
                st32 st.mem ad (Array.unsafe_get r a);
                k st)
      | I.Push rs ->
          let nr = List.length rs in
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
      | I.Cpsid ->
          fun st ->
            st.primask <- true;
            k st
      | I.Cpsie ->
          fun st ->
            st.primask <- false;
            k st
      | I.B _ | I.Bc _ | I.Bl _ | I.Bx_lr | I.Ckpt _ | I.Svc _ | I.FrameAddr _
      | I.SpillLd _ | I.SpillSt _ ->
          (* terminators never appear in a block body *)
          assert false
    in
    (* verify mode: the WAR-shadow twin of a load, store or push, run just
       before the access's own closure.  It makes the same bounds check
       (a fault is reported as the access would report it), then records
       the access as the reference [load]/[store]/[Push] do; before a
       write it publishes [st.pc], so a violation names this
       instruction. *)
    let shadow pc (k : state -> int) : state -> int =
      let b, c =
        match code.(pc) with
        | I.Ldr (_, _, b, off) | I.Str (_, _, b, off) -> (b, Int32.to_int off)
        | I.LdrR (_, _, b, c) | I.StrR (_, _, b, c) -> (b, c)
        | _ -> (0, 0)
      in
      let me = pc in
      let fcy, cn = fault_consts pc in
      let read sz =
        fun st ->
          let ad = (Array.unsafe_get st.regs b + c) land 0xffffffff in
          if ad < 0x40 || ad + sz > msize then mfault st me fcy cn ad sz;
          shadow_read st ad sz;
          k st
      and read_r sz =
        fun st ->
          let r = st.regs in
          let ad =
            (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
          in
          if ad < 0x40 || ad + sz > msize then mfault st me fcy cn ad sz;
          shadow_read st ad sz;
          k st
      and write sz =
        fun st ->
          let ad = (Array.unsafe_get st.regs b + c) land 0xffffffff in
          if ad < 0x40 || ad + sz > msize then mfault st me fcy cn ad sz;
          st.pc <- me;
          shadow_write st ad sz;
          k st
      and write_r sz =
        fun st ->
          let r = st.regs in
          let ad =
            (Array.unsafe_get r b + Array.unsafe_get r c) land 0xffffffff
          in
          if ad < 0x40 || ad + sz > msize then mfault st me fcy cn ad sz;
          st.pc <- me;
          shadow_write st ad sz;
          k st
      in
      match code.(pc) with
      | I.Ldr (w, _, _, _) -> read (I.bytes_of_width w)
      | I.LdrR (w, _, _, _) -> read_r (I.bytes_of_width w)
      | I.Str (w, _, _, _) -> write (I.bytes_of_width w)
      | I.StrR (w, _, _, _) -> write_r (I.bytes_of_width w)
      | I.Push rs ->
          let nr = List.length rs in
          fun st ->
            let sp = Array.unsafe_get st.regs 13 - (4 * nr) in
            if sp < 0x40 || sp + (4 * nr) > msize then
              mfault st me fcy cn sp (4 * nr);
            st.pc <- me;
            for i = 0 to nr - 1 do
              shadow_write st (sp + (4 * i)) 4
            done;
            k st
      | _ -> k
    in
    let exec = ref tail in
    for pc = body_stop - 1 downto s do
      exec := comp pc !exec;
      if verify then exec := shadow pc !exec
    done;
    (* the worst exit: a [Bc]'s [cost] entry is its taken cost, the
       larger *)
    let maxcost = if t >= 0 then bc_ + cost.(t) else bc_ in
    let ninstr = bn + if t >= 0 then 1 else 0 in
    { b_pc = s; b_ninstr = ninstr; b_maxcost = maxcost; b_exec = !exec }
  in
  let blocks = Array.init nbk compile_one in
  { bc_blocks = blocks; bc_index = bidx; bc_compile_ms = 0. }

(* The compiled cache depends only on the image and the verify flag
   (closures capture operand constants, checkpoint costs/masks, the
   image's code array and, in verify mode, the WAR-shadow twins; never
   other instance state).  It belongs to the instances that share it:
   {!clone}, and a [create] whose [reuse] runs the same image under the
   same flag, hand it on; a log leaves it out.  So a campaign probing
   10^5 schedules compiles about once per domain, and the cache is
   dropped with the last instance of its image, never later. *)
let get_bcache st =
  match st.bcache with
  | Some c -> c
  | None ->
      let t0 = Wario_obs.Span.now_ms () in
      let c = compile_blocks st in
      let c = { c with bc_compile_ms = Wario_obs.Span.now_ms () -. t0 } in
      st.bcache <- Some c;
      c

let block_batch st n : step =
  let bc = get_bcache st in
  let blocks = bc.bc_blocks and bidx = bc.bc_index in
  let ncode = Array.length st.cost in
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
  let rec go left =
    if st.halted then Halted
    else if left = 0 || st.commits >= st.stop_commit then Stepped
    else
      let pc = st.pc in
      let cur =
        if pc >= 0 && pc < ncode then Array.unsafe_get bidx pc else -1
      in
      let left' = if cur >= 0 then drive cur left 0 else left in
      if left' < left then go left'
      else begin
        (* power/fuel edge, quota smaller than the next block, or a pc
           inside a block (dynamic branch): one reference step, which
           reboots by itself when power fails *)
        st.n_fallback <- st.n_fallback + 1;
        match step st with Stepped -> go (left - 1) | s -> s
      end
  in
  go n

type engine =
  | Reference  (** the fully instrumented per-step interpreter *)
  | Block  (** basic blocks compiled to closures, when eligible *)

let run_batch ?(engine = Block) st n : step =
  if st.halted then Halted
  else if n <= 0 then invalid_arg "Emulator.run_batch: non-positive batch size"
  else
    match engine with
    | Block when fast_eligible st -> block_batch st n
    | Reference | Block -> reference_batch st n

let clone st =
  {
    st with
    mem = Bytes.copy st.mem;
    regs = Array.copy st.regs;
    power = Power.copy st.power;
    kinds = Bytes.copy st.kinds;
    touched = Array.copy st.touched;
    written = Bytes.copy st.written;
    counts = Array.copy st.counts;
    fn_calls = Array.copy st.fn_calls;
    pc_counts = Option.map Array.copy st.pc_counts;
    recorder = None;
    follower = None;
    pagesets = None;
    (* cost/call_fn/fn_of_pc/fn_names are immutable: shared *)
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
let current_function st = func_of st st.pc
let boots st = st.boots
let memory st = Bytes.copy st.mem

(* A digest of every byte outside the checkpoint double buffer: the
   non-volatile state an idempotent run must reproduce exactly.  The buffers
   are excluded because their sequence numbers and saved register images
   legitimately depend on how often power failed.

   Word-wise ([Util.fold_words], the fold the cache store checks its
   payloads with): two memories differing in exactly one word always
   digest differently. *)
let nv_digest st =
  let mem = st.mem in
  let h = Util.fold_words 0xcbf29ce484222325L mem 0 Image.ckpt_base in
  Util.fold_words h mem ckpt_end (Bytes.length mem - ckpt_end)

let result st : result =
  {
    output = List.rev st.out_rev;
    exit_code = st.exit_code;
    cycles = st.cycles;
    instrs = st.instrs;
    checkpoints =
      (let c = st.counts in
       { c_entry = c.(0); c_exit = c.(1); c_middle = c.(2); c_backend = c.(3) });
    checkpoints_total = Array.fold_left ( + ) 0 st.counts;
    region_sizes =
      List.fold_left
        (fun acc x ->
          if x >= 0 then x :: acc
          else
            (* a jump's logged regions *)
            let l = Option.get st.jump_log and x = -1 - x in
            let acc = ref acc in
            for j = x land 0x7fffffff downto x lsr 31 do
              acc := (word l.l_cyc j - word l.l_cyc (j - 1)) :: !acc
            done;
            !acc)
        (match st.jump_log with
        | Some l when st.tail_from >= 0 ->
            let k = st.tail_from in
            let rec drop n t = if n = 0 then t else drop (n - 1) (List.tl t) in
            drop (k mod base_stride) l.l_tails.(k / base_stride)
        | _ -> [ st.cycles - st.region_start ])
        st.regions_rev;
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
(* Redo log and jumps                                                   *)
(* ------------------------------------------------------------------ *)

let reads_ckpt_area st = st.ckpt_read
let batch_size = 4096

(* Stepping that stops the moment the [k]th commit has been made: every
   batch stops right after the commit that reaches [stop_commit] (a
   checkpoint ends its block, so the block engine stops there too). *)
let run_to_commit ?engine st k : step =
  if st.halted then Halted
  else if st.commits >= k then Stepped
  else begin
    let saved = st.stop_commit in
    st.stop_commit <- k;
    let rec go () =
      match run_batch ?engine st batch_size with
      | Halted -> Halted
      | Stepped | Rebooted -> if st.commits >= k then Stepped else go ()
    in
    match go () with
    | s ->
        st.stop_commit <- saved;
        s
    | exception e ->
        st.stop_commit <- saved;
        raise e
  end

(* A logging run is the same run as any other, with [commit_checkpoint]
   recording each region as it closes; the halt closes the last one. *)
let close_row st r =
  words_add r.r_cyc st.cycles;
  words_add r.r_ins st.instrs;
  words_add r.r_meta (meta_of st st.pc 0)

let start_log st =
  if
    not
      (st.verify && st.irq_period = 0 && (not st.trace_on)
      && Power.is_continuous st.power
      && st.instrs = 0 && st.commits = 0 && st.recorder = None)
  then
    invalid_arg
      "Emulator.start_log: needs a fresh continuous-power verify-mode \
       instance without interrupts or tracer";
  let r =
    {
      r_cyc = words_create ();
      r_ins = words_create ();
      r_meta = words_create ();
      r_off = words_create ();
      r_ops = words_create ();
      r_regs = Array.copy st.regs;
      r_calls = Array.copy st.fn_calls;
      r_out_at = [];
      r_touched = Bytes.make n_pages '\000';
      r_pages = [];
      r_bases = [];
    }
  in
  close_row st r;
  words_add r.r_off 0;
  words_add r.r_off 0;
  st.recorder <- Some r

let finish_log ~(continuous : result) st =
  match st.recorder with
  | Some r when st.halted ->
      st.recorder <- None;
      if
        st.cycles <> continuous.cycles
        || st.commits <> List.length continuous.region_sizes - 1
      then invalid_arg "Emulator.finish_log: not this run's result";
      record_region st r;
      close_row st r;
      if st.violations <> [] || st.ckpt_read || st.ckpt_write then None
      else
        let tails = Array.make ((st.commits / base_stride) + 1) [] in
        let rec fill i = function
          | [] -> ()
          | _ :: rest as t ->
              if i mod base_stride = 0 then tails.(i / base_stride) <- t;
              fill (i + 1) rest
        in
        fill 0 continuous.region_sizes;
        Some
          {
            l_img = st.img;
            l_commits = st.commits;
            l_cyc = words_chunks r.r_cyc;
            l_ins = words_chunks r.r_ins;
            l_meta = words_chunks r.r_meta;
            l_off = words_chunks r.r_off;
            l_ops = words_chunks r.r_ops;
            l_out = Array.of_list (List.rev st.out_rev);
            l_out_at = Array.of_list (List.rev r.r_out_at);
            l_exit = st.exit_code;
            l_bases = Array.of_list (List.rev r.r_bases);
            l_tails = tails;
          }
  | _ -> invalid_arg "Emulator.finish_log: needs a halted logging instance"

let log_commits l = l.l_commits

let log_bytes l =
  let column = Array.fold_left (fun a c -> a + Bytes.length c) 0 in
  column l.l_cyc + column l.l_ins + column l.l_meta + column l.l_off
  + column l.l_ops
  + (4 * Array.length l.l_out)
  + (8 * Array.length l.l_out_at)
  + Array.fold_left
      (fun a b ->
        a + Bytes.length b.b_data
        + (8 * (Array.length b.b_regs + Array.length b.b_counts
               + Array.length b.b_calls + Array.length b.b_pages)))
      0 l.l_bases

(* The last logged commit, or the halt ([l_commits + 1]), that a run in
   the logged state at commit [k] reaches within [room] cycles. *)
let reach l k room =
  let base = word l.l_cyc k in
  let lo = ref k and hi = ref (l.l_commits + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if word l.l_cyc mid - base <= room then lo := mid else hi := mid - 1
  done;
  !lo

(* [st] is in the logged state at [st.commits] and has executed nothing
   since: its pages written since the last verified commit need no copy
   any more. *)
let verified st f =
  f.fl_v <- st.commits;
  f.fl_vcyc <- st.cycles;
  Array.blit st.regs 0 f.fl_vregs 0 16;
  let u = f.fl_undo in
  for i = 0 to u.ps_n - 1 do
    Bytes.unsafe_set st.written u.ps_pages.(i) '\001'
  done;
  pageset_clear u;
  f.fl_retry <- 0;
  f.fl_gap <- 1

(* Whether [st], at its commit [k], is in the logged state there:
   registers, flags, pc, primask and pending interrupt, and every byte
   outside the checkpoint area of every page that the run or the log
   wrote since the last verified commit [fl_v].  Those pages are rebuilt
   in [fl_scratch]: their contents at [fl_v] (the run's copy when it
   wrote the page, its memory when only the log did), then the logged
   stores of regions [fl_v + 1 .. k]; the registers likewise, from the
   logged ones at [fl_v]. *)
let matches st f k =
  let l = f.fl_log in
  let meta = word l.l_meta k in
  st.pc = meta lsr 8
  && pack_flags st = meta land 15
  && st.primask = (meta land 16 <> 0)
  && (not st.pending_irq)
  &&
  let regs = f.fl_regs and sc = f.fl_scratch and u = f.fl_undo in
  Array.blit f.fl_vregs 0 regs 0 16;
  pageset_clear sc;
  for i = 0 to u.ps_n - 1 do
    ignore (pageset_add sc u.ps_pages.(i) u.ps_data (i * page_size))
  done;
  let at a =
    let p = a lsr page_bits in
    let s = sc.ps_slot.(p) in
    let s = if s >= 0 then s else pageset_add sc p st.mem (p lsl page_bits) in
    (s lsl page_bits) + (a land (page_size - 1))
  in
  let ops = l.l_ops and stop = word l.l_off (k + 1) in
  let i = ref (word l.l_off (f.fl_v + 1)) in
  while !i < stop do
    let x = word ops !i in
    match x land 3 with
    | 0 ->
        let o = at (x lsr 10) in
        Bytes.unsafe_set sc.ps_data o (Char.unsafe_chr ((x lsr 2) land 0xff));
        i := !i + 1
    | 1 ->
        let o = at (x lsr 2) in
        st32 sc.ps_data o (word ops (!i + 1));
        i := !i + 2
    | 2 -> i := load_regs ops !i x regs
    | _ -> i := !i + 2
  done;
  let rec same_regs r = r > 15 || (st.regs.(r) = regs.(r) && same_regs (r + 1)) in
  let same_page s =
    let a = sc.ps_pages.(s) lsl page_bits and b = s lsl page_bits in
    let rec go o =
      o >= page_size
      || (in_ckpt_area (a + o)
         || Int64.equal
              (Bytes.get_int64_le st.mem (a + o))
              (Bytes.get_int64_le sc.ps_data (b + o)))
         && go (o + 8)
    in
    go 0
  in
  let rec same_pages s = s >= sc.ps_n || (same_page s && same_pages (s + 1)) in
  same_regs 0 && same_pages 0

(* The double-buffer words commit [j] writes — seq, mask, resume pc, sp,
   flags and the masked registers — from the logged state there. *)
let write_buffer st l j regs =
  let meta = word l.l_meta j in
  let pc = meta lsr 8 in
  let mask = saved_mask st.img.Image.code.(pc - 1) in
  let base = buf_addr ((j - 1) land 1) in
  raw_store32 st (base + 4) mask;
  raw_store32 st (base + 8) pc;
  raw_store32 st (base + 12) regs.(I.sp);
  raw_store32 st (base + 16) (meta land 15);
  for r = 0 to 14 do
    if mask land (1 lsl r) <> 0 then
      raw_store32 st (base + 20 + (4 * r)) regs.(r)
  done;
  raw_store32 st base j

(* A jump's logged regions [lo .. hi] in [regions_rev]: one negative
   entry, expanded by [result]. *)
let segment lo hi = -1 - ((lo lsl 31) lor hi)

(* Count of the logged outputs emitted at commits up to [k]. *)
let outputs_upto l k =
  let lo = ref 0 and hi = ref (Array.length l.l_out_at) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if l.l_out_at.(mid) <= k then lo := mid + 1 else hi := mid
  done;
  !lo

(* Move [st], in the logged state at its commit [k], to the logged state at
   commit [m] (the halt when [m = l_commits + 1]): memory, registers,
   calls and causes of regions [k + 1 .. m], their outputs and regions,
   the double buffer of the last two commits, and the counters.  Whole
   strides between bases are not replayed: their pages are copied from
   the bases and the counters taken from them.  Power and fuel are spent
   as stepping would spend them; the caller has checked that they
   last. *)
let jump_to st f k m =
  let l = f.fl_log in
  let n = l.l_commits in
  let last = min m n in
  let regs = st.regs and mem = st.mem and ops = l.l_ops and c = st.counts in
  (* regions [a + 1 .. b] entry by entry *)
  let replay a b =
    for j = a + 1 to b do
      let stop = word l.l_off (j + 1) in
      let i = ref (word l.l_off j) in
      while !i < stop do
        let x = word ops !i in
        match x land 3 with
        | 0 ->
            let a = x lsr 10 in
            Bytes.unsafe_set mem a (Char.unsafe_chr ((x lsr 2) land 0xff));
            Bytes.unsafe_set st.written (a lsr page_bits) '\001';
            i := !i + 1
        | 1 ->
            let a = x lsr 2 in
            st32 mem a (word ops (!i + 1));
            Bytes.unsafe_set st.written (a lsr page_bits) '\001';
            i := !i + 2
        | 2 -> i := load_regs ops !i x regs
        | _ ->
            let fn = x lsr 2 in
            st.fn_calls.(fn) <- st.fn_calls.(fn) + word ops (!i + 1);
            i := !i + 2
      done;
      if j <= n then begin
        count_cause c ((word l.l_meta j lsr 5) land 7);
        if j >= last - 1 then write_buffer st l j regs
      end
    done
  in
  let first = ((k / base_stride) + 1) * base_stride
  and final = (m - 1) / base_stride * base_stride in
  if first < final then begin
    replay k first;
    let b0 = l.l_bases.((first / base_stride) - 1)
    and b1 = l.l_bases.((final / base_stride) - 1) in
    for i = first / base_stride to (final / base_stride) - 1 do
      let b = l.l_bases.(i) in
      Array.iteri
        (fun s p ->
          let a = p lsl page_bits in
          if p = ckpt_page then begin
            Bytes.blit b.b_data (s * page_size) mem a (Image.ckpt_base - a);
            Bytes.blit b.b_data
              ((s * page_size) + ckpt_end - a)
              mem ckpt_end
              (a + page_size - ckpt_end)
          end
          else Bytes.blit b.b_data (s * page_size) mem a page_size;
          Bytes.unsafe_set st.written p '\001')
        b.b_pages
    done;
    Array.iteri (fun i v -> c.(i) <- c.(i) + v - b0.b_counts.(i)) b1.b_counts;
    Array.iteri
      (fun i v -> st.fn_calls.(i) <- st.fn_calls.(i) + v - b0.b_calls.(i))
      b1.b_calls;
    Array.blit b1.b_regs 0 regs 0 16;
    if final >= last - 1 then write_buffer st l final regs;
    replay final m
  end
  else replay k m;
  for o = outputs_upto l k to outputs_upto l last - 1 do
    st.out_rev <- l.l_out.(o) :: st.out_rev
  done;
  if m > n then st.tail_from <- k
  else if last > k then st.regions_rev <- segment (k + 1) last :: st.regions_rev;
  if last > k then st.boots_since_commit <- 0;
  let d = word l.l_cyc m - word l.l_cyc k in
  st.cycles <- st.cycles + d;
  st.budget <- st.budget - d;
  st.instrs <- st.instrs + (word l.l_ins m - word l.l_ins k);
  let meta = word l.l_meta m in
  st.pc <- meta lsr 8;
  unpack_flags st meta;
  st.primask <- meta land 16 <> 0;
  st.commits <- last;
  st.region_start <- st.cycles - (word l.l_cyc m - word l.l_cyc last);
  st.work_at_commit <- work_total st - (st.cycles - st.region_start);
  if m > n then begin
    st.halted <- true;
    st.exit_code <- l.l_exit
  end;
  verified st f

type jumps = { jumps : int; from_boot : bool; to_halt : bool }

(* One stop of a following run, at a commit it made itself or right after
   boot: jump as far as its power and fuel last, when that passes a
   commit and the run is in the logged state.  A failed check is retried
   1, 2, 4, ... commits later, so a run that never converges checks
   O(log) times. *)
let jump st f =
  let l = f.fl_log in
  let k = st.commits in
  (not st.halted)
  && k <= l.l_commits
  && st.region_start = st.cycles
  && st.n_touched = 0
  &&
  let m = reach l k (min st.budget (st.fuel - st.cycles)) in
  m > k
  && (if k = f.fl_v && st.cycles = f.fl_vcyc then true
      else if k < f.fl_retry then false
      else if matches st f k then true
      else begin
        f.fl_retry <- k + f.fl_gap;
        f.fl_gap <- 2 * f.fl_gap;
        false
      end)
  &&
  begin
    if f.fl_jumps = 0 && k = 0 then f.fl_from_boot <- true;
    f.fl_jumps <- f.fl_jumps + 1;
    jump_to st f k m;
    true
  end

let follow ?engine st l =
  if
    not
      (st.verify && st.irq_period = 0 && (not st.trace_on)
      && st.pc_counts = None && l.l_img == st.img)
  then
    invalid_arg
      "Emulator.follow: needs a verify-mode instance of the log's image, \
       without interrupts, tracer or per-pc counts";
  if st.instrs <> 0 || st.commits <> 0 || st.halted then
    invalid_arg "Emulator.follow: needs a freshly booted instance";
  let undo, scratch =
    match st.pagesets with
    | Some p -> p
    | None ->
        let p = (pageset_create (), pageset_create ()) in
        st.pagesets <- Some p;
        p
  in
  pageset_clear undo;
  pageset_clear scratch;
  let f =
    {
      fl_log = l;
      fl_v = 0;
      fl_vcyc = st.cycles;
      fl_vregs = Array.copy st.regs;
      fl_retry = 0;
      fl_gap = 1;
      fl_undo = undo;
      fl_scratch = scratch;
      fl_regs = Array.make 16 0;
      fl_jumps = 0;
      fl_from_boot = false;
    }
  in
  st.follower <- Some f;
  st.jump_log <- Some l;
  let to_halt = ref false in
  let rec go () =
    if jump st f then to_halt := st.halted;
    if not st.halted then
      match run_to_commit ?engine st (max (st.commits + 1) f.fl_retry) with
      | Halted -> ()
      | Stepped | Rebooted -> go ()
  in
  (match go () with
  | () -> st.follower <- None
  | exception e ->
      st.follower <- None;
      raise e);
  { jumps = f.fl_jumps; from_boot = f.fl_from_boot; to_halt = !to_halt }

type engine_stats = {
  es_blocks : int;  (** basic blocks compiled (0 if never block-dispatched) *)
  es_compile_ms : float;  (** wall time spent translating blocks *)
  es_dispatches : int;  (** block closures executed *)
  es_fallback_steps : int;  (** reference steps at block-engine edges *)
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

let run ?fuel ?supply ?irq_period ?verify ?tracer ?(engine = Block)
    (img : Image.t) : result =
  let st = create ?fuel ?supply ?irq_period ?verify ?tracer img in
  (match engine with
  | Reference ->
      while not st.halted do
        ignore (step st)
      done
  | Block ->
      (* [run_batch] falls back to the reference path per batch whenever the
         configuration makes the block engine ineligible (trace/irq) *)
      while not st.halted do
        ignore (run_batch ~engine st batch_size)
      done);
  result st

(* Crash-consistency oracle (paper §5.1.1, automated).

   WARio's correctness claim is idempotence: replaying from the last
   committed checkpoint after a power failure must yield the same final
   state as continuous execution.  The oracle checks this differentially:
   the continuous run of the same compiled image is the golden reference,
   and an injected run diverges if any of

   - the console output differs (including double-emitted values),
   - the exit code differs,
   - the digest of final non-volatile memory differs (checkpoint double
     buffer excluded: its sequence numbers legitimately depend on how
     often power failed),
   - the WAR verifier flagged a violation, or
   - the supply admits no forward progress

   holds.  Runs are driven through the emulator's stepping API so the
   final memory image is observable.

   An injected run pays only for the stretch where it differs from the
   golden run (Surbatovich et al.'s relation: an intermittent run is
   correct when it agrees with the continuous one at checkpoint
   boundaries).  The golden run logs itself (the campaign asks for that)
   or is replayed once more on first demand with a redo log on
   ({!Wario_emulator.Emulator.start_log}): per commit its
   registers, flags, pc and counters, per region the bytes it left
   written.  An injected run then follows that log
   ({!Wario_emulator.Emulator.follow}): right after boot, and right after
   a commit it made in golden's exact state (an equality check against
   the state rebuilt from the log), it jumps to the last golden commit
   before its power or fuel runs out, or to the halt, and emulates only
   from there into the failure, the restore and the re-execution, with
   the WAR shadow on.  A jump from boot is a prefix fork and a jump to
   the halt a suffix splice (the [forked] and [spliced] tallies).  Golden
   runs with WAR
   violations, or that load from or store to the checkpoint area, get no
   log; interrupt-enabled instances never jump.

   Results, digests and verdicts are those of a run from boot; the
   differential property in test/test_props.ml holds the two together. *)

module P = Wario.Pipeline
module E = Wario_emulator

type fork = {
  f_image : E.Image.t;  (** the image the golden run ran *)
  f_log : E.Emulator.log option option Atomic.t;  (** [None] until built *)
  f_lock : Mutex.t;
  f_forked : int Atomic.t;
  f_spliced : int Atomic.t;
  f_jumped : int Atomic.t;
}

type golden = {
  g_output : int32 list;
  g_exit : int32;
  g_digest : int64;
  g_result : E.Emulator.result;
  g_fork : fork;
}

type fork_stats = {
  log_bytes : int;
  log_commits : int;
  forked : int;
  spliced : int;
  jumped : int;
}

type divergence =
  | Output_mismatch of { got : int32 list; want : int32 list }
  | Double_output of { got : int32 list; want : int32 list }
      (** the golden output re-emitted in part: committed output replayed *)
  | Exit_mismatch of { got : int32; want : int32 }
  | Memory_mismatch of { got : int64; want : int64 }
  | War_violations of E.Emulator.violation list
  | No_progress of string
  | Fault of string

(* Every oracle run — golden, logging, injected — goes through [run_batch]
   on the caller's [engine]: verify-mode blocks by default, the reference
   interpreter under [Reference].  The two give identical results, so
   campaign reports can be asserted byte-identical across engines (the CI
   smoke). *)
let run_to_halt ?engine emu =
  while not (E.Emulator.halted emu) do
    ignore (E.Emulator.run_batch ?engine emu 4096)
  done

(* Each domain's last finished injected or logging run: the next run
   takes over its buffers rather than allocating fresh ones.  A golden
   run's own instance is kept only when its log is built right away: a
   process that only takes golden runs would hold 2 MiB for nothing. *)
let spare : E.Emulator.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let take_spare () =
  let reuse = Domain.DLS.get spare in
  Domain.DLS.set spare None;
  reuse

(* The golden run; with [log], it logs itself as it runs, and its
   instance becomes the domain's spare for the runs that follow. *)
let golden ?engine ?(log = false) (c : P.compiled) : golden =
  let emu = E.Emulator.create ?reuse:(take_spare ()) c.P.image in
  if log then E.Emulator.start_log emu;
  run_to_halt ?engine emu;
  let r = E.Emulator.result emu in
  let g =
    {
      g_output = r.E.Emulator.output;
      g_exit = r.E.Emulator.exit_code;
      g_digest = E.Emulator.nv_digest emu;
      g_result = r;
      g_fork =
        {
          f_image = c.P.image;
          f_log =
            Atomic.make
              (if log then Some (E.Emulator.finish_log ~continuous:r emu)
               else None);
          f_lock = Mutex.create ();
          f_forked = Atomic.make 0;
          f_spliced = Atomic.make 0;
          f_jumped = Atomic.make 0;
        };
    }
  in
  if log then Domain.DLS.set spare (Some emu);
  g

(* The golden run's log.  Callers that run schedules build the golden
   run with [~log:true]; this replay on the domain's spare instance is
   kept only for goldens built without one (probes that time the golden
   run alone, tests), and runs at most once: one domain builds the log
   while the others wait, and [finish_log] refuses the runs that get
   none. *)
let log_of ?engine (g : golden) =
  let f = g.g_fork in
  match Atomic.get f.f_log with
  | Some l -> l
  | None ->
      Mutex.protect f.f_lock (fun () ->
          match Atomic.get f.f_log with
          | Some l -> l
          | None ->
              let emu = E.Emulator.create ?reuse:(take_spare ()) f.f_image in
              E.Emulator.start_log emu;
              run_to_halt ?engine emu;
              let l = E.Emulator.finish_log ~continuous:g.g_result emu in
              Domain.DLS.set spare (Some emu);
              Atomic.set f.f_log (Some l);
              l)

let fork_stats (g : golden) =
  let f = g.g_fork in
  let log_bytes, log_commits =
    match Atomic.get f.f_log with
    | Some (Some l) -> (E.Emulator.log_bytes l, E.Emulator.log_commits l)
    | _ -> (0, 0)
  in
  {
    log_bytes;
    log_commits;
    forked = Atomic.get f.f_forked;
    spliced = Atomic.get f.f_spliced;
    jumped = Atomic.get f.f_jumped;
  }

(* Violations of the golden run itself: a broken checkpoint schedule shows
   up even without any injected failure. *)
let golden_violations (g : golden) = g.g_result.E.Emulator.violations

(* [want] embedded as a subsequence of a strictly longer [got]: some
   committed output was emitted again during replay. *)
let is_double_emission ~want ~got =
  let rec sub w g =
    match (w, g) with
    | [], _ -> true
    | _, [] -> false
    | x :: w', y :: g' -> if x = y then sub w' g' else sub w g'
  in
  List.length got > List.length want && sub want got

(* Run to the halt, following the golden log when [c] is the golden
   run's own image; the final result and memory digest.  A run that
   reached the halt by a jump holds golden's final memory outside the
   checkpoint area, so its digest is golden's. *)
let finish ?engine (g : golden) (c : P.compiled) emu =
  let log = if c.P.image == g.g_fork.f_image then log_of ?engine g else None in
  match log with
  | Some l ->
      let j = E.Emulator.follow ?engine emu l in
      let f = g.g_fork in
      if j.E.Emulator.from_boot then Atomic.incr f.f_forked;
      if j.E.Emulator.to_halt then Atomic.incr f.f_spliced;
      ignore (Atomic.fetch_and_add f.f_jumped j.E.Emulator.jumps);
      ( E.Emulator.result emu,
        if j.E.Emulator.to_halt then g.g_digest else E.Emulator.nv_digest emu )
  | _ ->
      run_to_halt ?engine emu;
      (E.Emulator.result emu, E.Emulator.nv_digest emu)

(* The verdict on a finished run, from its result and final memory
   digest. *)
let judge (g : golden) (r : E.Emulator.result) digest =
  if r.E.Emulator.violations <> [] then
    Error (War_violations r.E.Emulator.violations)
  else if r.E.Emulator.output <> g.g_output then
    if is_double_emission ~want:g.g_output ~got:r.E.Emulator.output then
      Error (Double_output { got = r.E.Emulator.output; want = g.g_output })
    else Error (Output_mismatch { got = r.E.Emulator.output; want = g.g_output })
  else if not (Int32.equal r.E.Emulator.exit_code g.g_exit) then
    Error (Exit_mismatch { got = r.E.Emulator.exit_code; want = g.g_exit })
  else if not (Int64.equal digest g.g_digest) then
    Error (Memory_mismatch { got = digest; want = g.g_digest })
  else Ok ()

(* Inject an arbitrary supply and return both the verdict and (when the
   run terminated) the full emulator result: the adversarial cut search
   maximizes [result.waste.w_reexec] across probes, so the measurement and
   the differential check must come from the same run.  An emulator fault
   (a memory fault, an exhausted cycle budget) is a divergence like any
   other: a checkpoint that restores the wrong state can send the replay
   anywhere.  A run that fails once started hands its instance back as
   the domain's spare (its page bitmap covers every write it made); one
   whose start failed has no instance, and the next run allocates. *)
let run_supply ?engine (g : golden) (c : P.compiled) (supply : E.Power.supply)
    : E.Emulator.result option * (unit, divergence) result =
  match E.Emulator.create ?reuse:(take_spare ()) ~supply c.P.image with
  | exception E.Emulator.No_forward_progress s -> (None, Error (No_progress s))
  | exception E.Emulator.Emu_error s -> (None, Error (Fault s))
  | emu -> (
      match
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set spare (Some emu))
          (fun () -> finish ?engine g c emu)
      with
      | exception E.Emulator.No_forward_progress s ->
          (None, Error (No_progress s))
      | exception E.Emulator.Emu_error s -> (None, Error (Fault s))
      | r, digest -> (Some r, judge g r digest))

let run_schedule ?engine (g : golden) (c : P.compiled) (cuts : int array) =
  run_supply ?engine g c (E.Power.Schedule cuts)

let check_schedule ?engine (g : golden) (c : P.compiled) (cuts : int array) :
    (unit, divergence) result =
  snd (run_schedule ?engine g c cuts)

let pp_outputs vs =
  "[" ^ String.concat "," (List.map Int32.to_string vs) ^ "]"

let string_of_divergence = function
  | Output_mismatch { got; want } ->
      Printf.sprintf "output mismatch: got %s, want %s" (pp_outputs got)
        (pp_outputs want)
  | Double_output { got; want } ->
      Printf.sprintf "double-emitted output: got %s, want %s" (pp_outputs got)
        (pp_outputs want)
  | Exit_mismatch { got; want } ->
      Printf.sprintf "exit code mismatch: got %ld, want %ld" got want
  | Memory_mismatch { got; want } ->
      Printf.sprintf "non-volatile memory digest mismatch: got %Lx, want %Lx"
        got want
  | War_violations vs ->
      Printf.sprintf "%d WAR violation(s); first: %s at 0x%x in %s"
        (List.length vs)
        (List.hd vs).E.Emulator.v_instr (List.hd vs).E.Emulator.v_addr
        (List.hd vs).E.Emulator.v_func
  | No_progress s -> Printf.sprintf "no forward progress under %s" s
  | Fault s -> Printf.sprintf "emulator fault: %s" s

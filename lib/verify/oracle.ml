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
   boundaries).  The golden run keeps a compact snapshot right after
   commits 1, 2, 4, 8, ... and every multiple of 4096 (so each
   [Campaign.sweep_chunk] finds one): registers, flags, counters and the
   pages written since boot.

   - Prefix fork.  A [Schedule] whose first cut is at or after a
     snapshot's cycle resumes from the latest such snapshot: the first
     on-period counts active cycles from boot, so the run from boot is in
     exactly that state there.
   - Suffix splice.  When a run has just made commit k and snapshot k
     exists, and the run's registers, flags, pc, primask and memory
     outside the checkpoint double buffer equal the snapshot's, and
     neither the current on-period nor the fuel can run out before the
     golden run's remaining cycles are spent, the run from there is the
     golden suffix: nothing after a commit reads the double buffer except
     the choice of the next commit's target, which costs the same either
     way, and no restore can happen in a period that outlasts the suffix.
     The result is the run's own output, regions and counters joined with
     the golden suffix's, its own failures and waste, and the golden
     digest.  Golden runs with WAR violations, or that load from the
     checkpoint area, take no snapshots.

   Results, digests and verdicts are those of a run from boot; the
   differential property in test/test_props.ml holds the two together. *)

module P = Wario.Pipeline
module E = Wario_emulator

type fork = {
  f_image : E.Image.t;  (** the image the snapshots were taken from *)
  f_snapshots : E.Emulator.snapshot array;  (** in commit order *)
  f_forked : int Atomic.t;
  f_spliced : int Atomic.t;
}

type golden = {
  g_output : int32 list;
  g_exit : int32;
  g_digest : int64;
  g_result : E.Emulator.result;
  g_fork : fork;
}

type fork_stats = {
  snapshots : int;
  snapshot_bytes : int;
  forked : int;
  spliced : int;
}

type divergence =
  | Output_mismatch of { got : int32 list; want : int32 list }
  | Double_output of { got : int32 list; want : int32 list }
      (** the golden output re-emitted in part: committed output replayed *)
  | Exit_mismatch of { got : int32; want : int32 }
  | Memory_mismatch of { got : int64; want : int64 }
  | War_violations of E.Emulator.violation list
  | No_progress of string

(* Stretches with no snapshot to reach run through [run_batch], so an
   [engine] selection reaches the emulator; oracle instances keep the WAR
   verifier on, which makes every engine fall back to the instrumented
   reference path — the path [run_to_commit] steps — and the selection is
   still threaded so campaign reports can be asserted byte-identical
   across engines (the CI smoke). *)
let run_to_halt ?engine emu =
  while not (E.Emulator.halted emu) do
    ignore (E.Emulator.run_batch ?engine emu 4096)
  done

(* Each domain's last finished injected run: the next run or golden run
   takes over its buffers rather than allocating fresh ones.  A golden
   run's own instance is not kept: a process that only takes golden runs
   would hold 2 MiB for nothing. *)
let spare : E.Emulator.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let take_spare () =
  let reuse = Domain.DLS.get spare in
  Domain.DLS.set spare None;
  reuse

(* Snapshot cadence: doubling near boot, where the adversary's cuts
   cluster, then every [snapshot_stride] commits. *)
let snapshot_stride = 4096

let next_snapshot k =
  let rec pow p = if p > k then p else pow (2 * p) in
  min (pow 1) ((k / snapshot_stride + 1) * snapshot_stride)

let golden ?engine:_ (c : P.compiled) : golden =
  let emu = E.Emulator.create ?reuse:(take_spare ()) c.P.image in
  let rec go k acc =
    match E.Emulator.run_to_commit emu k with
    | E.Emulator.Halted -> List.rev acc
    | _ -> go (next_snapshot k) (E.Emulator.snapshot emu :: acc)
  in
  let snapshots = go 1 [] in
  let r = E.Emulator.result emu in
  let digest = E.Emulator.nv_digest emu in
  let reads_ckpt_area = E.Emulator.reads_ckpt_area emu in
  {
    g_output = r.E.Emulator.output;
    g_exit = r.E.Emulator.exit_code;
    g_digest = digest;
    g_result = r;
    g_fork =
      {
        f_image = c.P.image;
        f_snapshots =
          (if r.E.Emulator.violations <> [] || reads_ckpt_area then [||]
           else Array.of_list snapshots);
        f_forked = Atomic.make 0;
        f_spliced = Atomic.make 0;
      };
  }

let fork_stats (g : golden) =
  let f = g.g_fork in
  {
    snapshots = Array.length f.f_snapshots;
    snapshot_bytes =
      Array.fold_left
        (fun a s -> a + E.Emulator.snapshot_bytes s)
        0 f.f_snapshots;
    forked = Atomic.get f.f_forked;
    spliced = Atomic.get f.f_spliced;
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

(* The snapshots a run of [c] may use: none unless [c] is the golden
   run's own image. *)
let snapshots_for (g : golden) (c : P.compiled) =
  if c.P.image == g.g_fork.f_image then g.g_fork.f_snapshots else [||]

(* The instance a run under [supply] starts from, and the index of the
   first snapshot still ahead of it. *)
let start (g : golden) (c : P.compiled) snaps supply =
  let latest =
    match supply with
    | E.Power.Schedule cuts when Array.length cuts > 0 ->
        let rec last i found =
          if
            i < Array.length snaps
            && E.Emulator.snapshot_cycles snaps.(i) <= cuts.(0)
          then last (i + 1) (Some i)
          else found
        in
        last 0 None
    | _ -> None
  in
  match latest with
  | Some i ->
      Atomic.incr g.g_fork.f_forked;
      ( E.Emulator.resume ?reuse:(take_spare ()) ~supply ~final:g.g_result
          snaps.(i),
        i + 1 )
  | None -> (E.Emulator.create ?reuse:(take_spare ()) ~supply c.P.image, 0)

(* Run to the halt, trying a splice at each snapshot's commit on the way;
   the final result and memory digest. *)
let finish ?engine (g : golden) snaps emu i =
  let from_halt () = (E.Emulator.result emu, E.Emulator.nv_digest emu) in
  let rec go i =
    if i >= Array.length snaps then begin
      run_to_halt ?engine emu;
      from_halt ()
    end
    else
      let s = snaps.(i) in
      match E.Emulator.run_to_commit emu (E.Emulator.snapshot_commits s) with
      | E.Emulator.Halted -> from_halt ()
      | _ -> (
          match E.Emulator.splice emu s ~final:g.g_result with
          | Some r ->
              Atomic.incr g.g_fork.f_spliced;
              (r, g.g_digest)
          | None -> go (i + 1))
  in
  go i

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
   the differential check must come from the same run. *)
let run_supply ?engine (g : golden) (c : P.compiled) (supply : E.Power.supply)
    : E.Emulator.result option * (unit, divergence) result =
  let snaps = snapshots_for g c in
  match start g c snaps supply with
  | exception E.Emulator.No_forward_progress s -> (None, Error (No_progress s))
  | emu, i ->
      let outcome =
        match finish ?engine g snaps emu i with
        | exception E.Emulator.No_forward_progress s ->
            (None, Error (No_progress s))
        | r, digest -> (Some r, judge g r digest)
      in
      Domain.DLS.set spare (Some emu);
      outcome

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

(* The fleet-scale adversarial power campaign.

   `iclang verify`'s sweep is a spot check: a few hundred splitmix64
   schedules per case.  A campaign turns that into a budgeted, coverage-
   accounted search.  Per (workload, environment) case it mixes, in a
   fixed priority order:

   1. the boundary set — single-cut schedules at every checkpoint-commit
      offset −1/+0/+1 of the reference run while that fits the budget, the
      greedy ±1 interval cover past that, and for dense-commit geometries
      (ratchet checkpoints every few cycles; tens of thousands of
      boundaries) a multi-cut SWEEP: one machine walked through the whole
      timeline with each power period budgeted to land its failure on the
      next stride-3 target, covering thousands of boundary windows per
      schedule;
   2. the adversary's boundary-bisected worst-case cut per idempotent
      region (Adversary.search — its probes are counted separately);
   3. harvester-style supply models (Supply.builtin: RF, solar, Markov
      bursty), each synthesized at several mean-on-duration scales and
      several derived seeds, injected as multi-cut schedules;
   4. seeded splitmix64 random schedules filling the remaining budget;
   5. a MOP-UP round of plan-exact single cuts at whatever boundary
      windows the observed accounting still reports uncovered.

   The whole plan is generated up front from the campaign seed, fanned out
   over Exec.map in fixed-size chunks, and consumed in input order — so a
   seeded campaign is schedule-for-schedule deterministic for any --jobs,
   and so is everything derived from it (coverage, failures, corpus
   entries; the mop-up is derived from the order-independent coverage
   union, so it is deterministic too).

   Coverage accounting charges two kinds of evidence:
   - each schedule's FIRST cut: before the first power failure the
     injected run is cycle-for-cycle the golden run, so a first cut at
     offset c lands at golden-timeline cycle c exactly;
   - every OBSERVED power failure: the emulator logs (commits_so_far,
     lost_work) per failure, and since execution always resumes at the
     last committed checkpoint, boundary(commits) + lost_work locates the
     failure on the golden timeline — this is what makes multi-cut sweep
     and supply schedules count, and what lets a 2k-schedule smoke budget
     cover a 65k-boundary geometry.

   Failures are deduplicated by (shrunk schedule, divergence class),
   shrunk with the two-phase ddmin, and rendered as corpus entries:
   sabotaged builds (drop-ckpt) become expect=fail detector-regression
   entries; real finds become expect=pass entries that gate CI red until
   the bug is fixed and green forever after. *)

module P = Wario.Pipeline
module E = Wario_emulator
module Exec = Wario_exec.Exec
module S = Wario_obs.Span

(* ------------------------------------------------------------------ *)
(* Coverage                                                             *)
(* ------------------------------------------------------------------ *)

type coverage = {
  cov_boundaries : int;  (** commit boundaries of the reference run *)
  cov_boundaries_cut : int;  (** boundaries with a first cut in [b−1, b+1] *)
  cov_regions : int;  (** idempotent regions, halt-terminated tail included *)
  cov_regions_cut : int;  (** regions with a first cut strictly inside *)
  cov_boot_cut : bool;  (** some first cut landed in the boot window *)
}

let boundary_pct (c : coverage) : float =
  if c.cov_boundaries = 0 then 100.0
  else
    100.0 *. float_of_int c.cov_boundaries_cut /. float_of_int c.cov_boundaries

let region_pct (c : coverage) : float =
  if c.cov_regions = 0 then 100.0
  else 100.0 *. float_of_int c.cov_regions_cut /. float_of_int c.cov_regions

(* Mutable coverage accumulator: a byte per boundary and per region,
   marked by binary search — marking is idempotent set union, so the
   result is independent of the order runs are consumed in (and therefore
   of --jobs). *)
type cov_acc = {
  ca_ref : Schedule.reference;
  ca_b : Bytes.t;  (** per boundary: hit within ±1 *)
  ca_r : Bytes.t;  (** per region (tail included): interior hit *)
  mutable ca_boot : bool;
}

let acc_create (ref_ : Schedule.reference) : cov_acc =
  let n = Array.length ref_.Schedule.boundaries in
  {
    ca_ref = ref_;
    ca_b = Bytes.make n '\000';
    ca_r = Bytes.make (n + 1) '\000';
    ca_boot = false;
  }

(* First index with [bs.(i) >= v], or [length bs]. *)
let lower_bound (bs : int array) (v : int) : int =
  let lo = ref 0 and hi = ref (Array.length bs) in
  while !lo < !hi do
    let m = (!lo + !hi) / 2 in
    if bs.(m) < v then lo := m + 1 else hi := m
  done;
  !lo

(* Charge one golden-timeline position to the coverage accumulator. *)
let acc_mark (acc : cov_acc) (p : int) : unit =
  let bs = acc.ca_ref.Schedule.boundaries in
  let n = Array.length bs in
  if p <= E.Emulator.boot_cycles then acc.ca_boot <- true;
  let i = ref (lower_bound bs (p - 1)) in
  while !i < n && bs.(!i) <= p + 1 do
    Bytes.set acc.ca_b !i '\001';
    incr i
  done;
  (* region interior: positions on a boundary belong to neither side *)
  let j = lower_bound bs p in
  if j >= n || bs.(j) <> p then begin
    let lo = if j = 0 then E.Emulator.boot_cycles else bs.(j - 1) in
    let hi = if j = n then acc.ca_ref.Schedule.total_cycles else bs.(j) in
    if p > lo && p < hi then Bytes.set acc.ca_r j '\001'
  end

let acc_coverage (acc : cov_acc) : coverage =
  let count b =
    let n = ref 0 in
    Bytes.iter (fun c -> if c <> '\000' then incr n) b;
    !n
  in
  {
    cov_boundaries = Bytes.length acc.ca_b;
    cov_boundaries_cut = count acc.ca_b;
    cov_regions = Bytes.length acc.ca_r;
    cov_regions_cut = count acc.ca_r;
    cov_boot_cut = acc.ca_boot;
  }

(* Boundary offsets still unhit, ascending — the mop-up's work list. *)
let acc_uncovered (acc : cov_acc) : int list =
  let bs = acc.ca_ref.Schedule.boundaries in
  let out = ref [] in
  for i = Array.length bs - 1 downto 0 do
    if Bytes.get acc.ca_b i = '\000' then out := bs.(i) :: !out
  done;
  !out

(* Coverage as a pure function of the plan (first cuts vs. reference
   geometry), independent of execution interleaving.  The campaign itself
   additionally charges every observed failure site (see run_case); this
   is the plan-only lower bound. *)
let coverage_of_plan (ref_ : Schedule.reference) (plan : int array list) :
    coverage =
  let acc = acc_create ref_ in
  List.iter (fun s -> if Array.length s > 0 then acc_mark acc s.(0)) plan;
  acc_coverage acc

(* Golden-timeline positions of a run's observed power failures.  The
   machine always resumes at its last committed checkpoint and commits
   advance one boundary at a time, so boundary(commits) + lost locates
   each failure exactly (commit indexes past the golden count — possible
   only on divergent runs — clamp to the last boundary). *)
let positions_of_sites (ref_ : Schedule.reference)
    (sites : (int * int) list) : int list =
  let bs = ref_.Schedule.boundaries in
  let n = Array.length bs in
  List.map
    (fun (commits, lost) ->
      let base =
        if commits <= 0 || n = 0 then E.Emulator.boot_cycles
        else bs.(min commits n - 1)
      in
      base + lost)
    sites

(* ------------------------------------------------------------------ *)
(* Campaign configuration                                               *)
(* ------------------------------------------------------------------ *)

type failure = {
  k_schedule : int array;  (** as found *)
  k_shrunk : int array;  (** after two-phase ddmin *)
  k_divergence : Oracle.divergence;  (** of the shrunk schedule *)
  k_repro : Repro.t;
  k_source : string;  (** ["exhaustive"], ["adversary"], ["random"] or a
                          {!Supply.name} *)
}

type case_report = {
  k_workload : string;
  k_env : P.environment;
  k_schedules : int;  (** schedules exercised *)
  k_probes : int;  (** adversary bisection probes (oracle runs) on top *)
  k_coverage : coverage;
  k_failures : failure list;  (** shrunk + deduplicated, capped *)
  k_failures_total : int;  (** every failing schedule, beyond the cap too *)
  k_worst_reexec : int;
      (** largest re-executed waste any adversary probe provoked *)
}

type config = {
  envs : P.environment list;
  workloads : (string * string) list;
  budget : int;  (** schedules per case (the exhaustive and adversary sets
                     always run, even past the budget) *)
  seed : int64;
  opts : P.options;
  jobs : int;
  max_shrunk_per_case : int;
  engine : E.Emulator.engine;
      (** emulator engine for every oracle run (default [Auto]); the oracle
          verifies WARs, so all engines resolve to the reference path and
          the report is engine-independent — asserted byte-identical in CI *)
}

let default_budget = 100_000
let small_budget = 2_000

let default_config =
  {
    envs = Harness.instrumented_environments;
    workloads = Harness.default_config.Harness.workloads;
    budget = default_budget;
    seed = 1L;
    opts = P.default_options;
    jobs = 1;
    max_shrunk_per_case = 5;
    engine = E.Emulator.Auto;
  }

(* Per-case generator: derived from the campaign seed and the case
   identity (salted so campaign streams never collide with sweep
   streams), so a single case replays identically in isolation. *)
let case_gen config ~workload ~env =
  Schedule.of_seed
    (Int64.logxor config.seed
       (Int64.of_int
          (Hashtbl.hash ("campaign", workload, P.environment_name env))))

let repro_of config ~workload ~env cuts =
  Repro.make ~unroll:config.opts.P.unroll_factor
    ?max_region:config.opts.P.max_region
    ?drop_ckpt:config.opts.P.drop_middle_ckpt ~seed:config.seed ~workload ~env
    cuts

(* ------------------------------------------------------------------ *)
(* Plan generation                                                      *)
(* ------------------------------------------------------------------ *)

(* Supply-model schedules: every builtin model at several mean-on scales
   of the reference run, each at [seeds_per_combo] derived seeds. *)
let supply_plan gen (ref_ : Schedule.reference) ~seeds_per_combo :
    (string * int array) list =
  let total = ref_.Schedule.total_cycles in
  List.concat_map
    (fun model ->
      List.concat_map
        (fun divisor ->
          List.init seeds_per_combo (fun _ ->
              let seed = Schedule.next_int64 gen in
              let mean_on = max 1 (total / divisor) in
              ( Supply.name model,
                Supply.durations model ~seed ~mean_on ~total )))
        [ 4; 16; 64 ])
    Supply.builtin

(* Minimal set of single cuts covering every boundary's ±1 window: the
   classic greedy interval cover.  A first cut at [b + 1] covers every
   boundary in [[b, b + 2]] — on dense-commit environments (ratchet
   checkpoints every few cycles) this needs up to 9× fewer oracle runs
   than the full −1/+0/+1 triple set, with the exact same 100%
   commit-boundary coverage guarantee. *)
let cover_boundaries (bs : int array) : int array list =
  (* boundaries are positive, so -2 can never be within a ±1 window *)
  let cuts = ref [] and last = ref (-2) in
  Array.iter
    (fun b ->
      if b - !last > 1 then begin
        last := b + 1;
        cuts := [| max 1 (b + 1) |] :: !cuts
      end)
    bs;
  List.rev !cuts

(* Multi-cut sweep for dense-commit geometries, where even the greedy
   cover needs more single-cut runs than the whole budget: walk one
   machine boundary-to-boundary through the run, killing power exactly at
   each commit.  The power budget buys [budget - boot] work cycles
   exactly — boot is paid through [spend] but the checkpoint-restore
   replay advances the clock without consuming budget (see
   [Emulator.power_on]) — so period k, resuming at boundary k−1, gets
   [boot + spacing]: it retires the commit at boundary k and dies on the
   very next spend, landing its observed failure site exactly on the
   boundary, one power period per boundary.  Chunk openers cold-start
   with budget = the boundary offset itself, running golden-identically
   to their first commit. *)
let sweep_chunk = 4096

let sweep_plan (ref_ : Schedule.reference) : int array list =
  let bs = ref_.Schedule.boundaries in
  let n = Array.length bs in
  let boot = E.Emulator.boot_cycles in
  let chunks = ref [] and j = ref 0 in
  while !j < n do
    let len = min sweep_chunk (n - !j) in
    let base = !j in
    let buf =
      Array.init len (fun k ->
          let i = base + k in
          if k = 0 then bs.(i) else boot + (bs.(i) - bs.(i - 1)))
    in
    chunks := buf :: !chunks;
    j := base + len
  done;
  List.rev !chunks

(* The full per-case plan: (source, schedule) pairs in priority order. *)
let plan config gen (ref_ : Schedule.reference)
    (worst : Adversary.worst list) ~(sweep : int array list Lazy.t) :
    (string * int array) list =
  let ex_full = Schedule.exhaustive ref_ in
  let budget = max 1 config.budget in
  let ex =
    (* the full triple set while it fits the budget; then the greedy
       cover (same 100% guarantee, up to 9× fewer runs); for geometries
       denser still, the multi-cut sweep (thousands of boundary windows
       per schedule, coverage charged from observed failure sites) *)
    if List.length ex_full <= budget then
      List.map (fun s -> ("exhaustive", s)) ex_full
    else
      let cover = cover_boundaries ref_.Schedule.boundaries in
      if List.length cover <= budget then
        List.map (fun s -> ("exhaustive", s)) cover
      else List.map (fun s -> ("sweep", s)) (Lazy.force sweep)
  in
  let adv =
    List.map (fun s -> ("adversary", s)) (Adversary.schedules worst)
  in
  let sup = supply_plan (Schedule.split gen) ref_ ~seeds_per_combo:4 in
  let used = List.length ex + List.length adv + List.length sup in
  let n_random = max 0 (config.budget - used) in
  let rnd =
    List.map
      (fun s -> ("random", s))
      (Schedule.random_schedules (Schedule.split gen) ref_ ~n:n_random)
  in
  ex @ adv @ sup @ rnd

(* ------------------------------------------------------------------ *)
(* The campaign proper                                                  *)
(* ------------------------------------------------------------------ *)

let divergence_class = function
  | Oracle.Output_mismatch _ -> "output"
  | Oracle.Double_output _ -> "double-output"
  | Oracle.Exit_mismatch _ -> "exit"
  | Oracle.Memory_mismatch _ -> "memory"
  | Oracle.War_violations _ -> "war"
  | Oracle.No_progress _ -> "no-progress"

let run_case ?(log = fun _ -> ()) ?(spans = S.disabled) (config : config)
    ~(workload : string * string) ~(env : P.environment) : case_report =
  let name, source = workload in
  S.with_span spans
    ~attrs:
      [ ("workload", S.Str name); ("env", S.Str (P.environment_name env)) ]
    "campaign.case"
  @@ fun () ->
  let c, g =
    S.with_span spans "campaign.golden" (fun () ->
        let c = P.compile ~opts:config.opts env source in
        let g = Oracle.golden ~engine:config.engine c in
        let fs = Oracle.fork_stats g in
        S.add_counter ~by:fs.Oracle.snapshots spans "snapshots";
        S.add_counter ~by:(fs.Oracle.snapshot_bytes / 1024) spans
          "snapshot_kib";
        (c, g))
  in
  (* runs of this phase that started from a golden snapshot or ended in
     the golden suffix *)
  let count_forks f =
    let before = Oracle.fork_stats g in
    let r = f () in
    let after = Oracle.fork_stats g in
    S.add_counter ~by:(after.Oracle.forked - before.Oracle.forked) spans
      "forked";
    S.add_counter ~by:(after.Oracle.spliced - before.Oracle.spliced) spans
      "spliced";
    r
  in
  match Oracle.golden_violations g with
  | _ :: _ as vs ->
      log
        (Printf.sprintf "%s × %s: golden run already violates (%d)" name
           (P.environment_name env) (List.length vs));
      {
        k_workload = name;
        k_env = env;
        k_schedules = 0;
        k_probes = 0;
        k_coverage =
          {
            cov_boundaries = 0;
            cov_boundaries_cut = 0;
            cov_regions = 0;
            cov_regions_cut = 0;
            cov_boot_cut = false;
          };
        k_failures =
          [
            {
              k_schedule = [||];
              k_shrunk = [||];
              k_divergence = Oracle.War_violations vs;
              k_repro = repro_of config ~workload:name ~env [||];
              k_source = "golden";
            };
          ];
        k_failures_total = 1;
        k_worst_reexec = 0;
      }
  | [] ->
      let ref_ = Schedule.reference_of_result g.Oracle.g_result in
      (* adversary first: deterministic bisection, sequential.  Each
         region costs ~3 probes minimum, so dense-commit environments
         (ratchet checkpoints every few cycles) would dwarf the schedule
         budget — cap the bisection to the widest regions, scaled to the
         budget. *)
      let max_regions = max 16 (config.budget / 16) in
      let worst =
        S.with_span spans "campaign.adversary" (fun () ->
            let w = count_forks (fun () -> Adversary.search ~max_regions g c) in
            S.add_counter ~by:(Adversary.total_probes w) spans "probes";
            S.add_counter ~by:(List.length w) spans "regions";
            w)
      in
      let worst_reexec =
        List.fold_left (fun acc w -> max acc w.Adversary.a_reexec) 0 worst
      in
      let gen = case_gen config ~workload:name ~env in
      let sweep = lazy (sweep_plan ref_) in
      let plan =
        S.with_span spans "campaign.plan" (fun () ->
            let p = plan config gen ref_ worst ~sweep in
            S.add_counter ~by:(List.length p) spans "schedules";
            p)
      in
      let acc = acc_create ref_ in
      let still_fails cuts =
        Result.is_error (Oracle.check_schedule ~engine:config.engine g c cuts)
      in
      (* sweeps carry thousands of cuts; ddmin's subset phase is linear in
         that, so first find a failing prefix by doubling (failure is not
         monotone in prefix length, so this is a heuristic — like ddmin
         itself), then ddmin it if it is small enough *)
      let shrink cuts =
        let n = Array.length cuts in
        let cuts =
          if n <= 128 then cuts
          else begin
            let k = ref 1 in
            while !k < n && not (still_fails (Array.sub cuts 0 !k)) do
              k := !k * 2
            done;
            if !k >= n then cuts else Array.sub cuts 0 !k
          end
        in
        if Array.length cuts <= 512 then Shrink.ddmin ~still_fails cuts
        else cuts
      in
      (* fixed-size chunks + in-order consumption: byte-identical reports
         for every [jobs] (the Harness.run_case argument applies verbatim) *)
      let chunk_size = 64 in
      let rec chunks = function
        | [] -> []
        | l ->
            let rec take n acc = function
              | rest when n = 0 -> (List.rev acc, rest)
              | [] -> (List.rev acc, [])
              | x :: rest -> take (n - 1) (x :: acc) rest
            in
            let c, rest = take chunk_size [] l in
            c :: chunks rest
      in
      let tried = ref 0
      and failures_total = ref 0
      and shrunk_failures = ref []
      and seen = Hashtbl.create 16 in
      let process label sched_list =
        List.iter
          (fun chunk ->
            let verdicts =
              Exec.map ~jobs:config.jobs ~spans ~label
                (fun (src, cuts) ->
                  let res, verdict =
                    Oracle.run_schedule ~engine:config.engine g c cuts
                  in
                  let sites =
                    match res with
                    | Some r -> r.E.Emulator.failure_sites
                    | None -> []
                  in
                  (src, cuts, verdict, sites))
                chunk
            in
            List.iter
              (fun (src, cuts, verdict, sites) ->
                incr tried;
                (* coverage: the plan-exact first cut plus every observed
                   failure site (idempotent marks — order-independent) *)
                if Array.length cuts > 0 then acc_mark acc cuts.(0);
                List.iter (acc_mark acc) (positions_of_sites ref_ sites);
                match verdict with
                | Ok () -> ()
                | Error _ when
                      List.length !shrunk_failures
                      >= config.max_shrunk_per_case ->
                    (* beyond the shrink cap: count it, skip the ddmin *)
                    incr failures_total
                | Error _ ->
                    incr failures_total;
                    let shrunk = shrink cuts in
                    let divergence =
                      match Oracle.check_schedule ~engine:config.engine g c shrunk with
                      | Error d -> d
                      | Ok () ->
                          (* cannot happen: shrinking preserves failure *)
                          assert false
                    in
                    let key =
                      (Array.to_list shrunk, divergence_class divergence)
                    in
                    if not (Hashtbl.mem seen key) then begin
                      Hashtbl.add seen key ();
                      let f =
                        {
                          k_schedule = cuts;
                          k_shrunk = shrunk;
                          k_divergence = divergence;
                          k_repro = repro_of config ~workload:name ~env shrunk;
                          k_source = src;
                        }
                      in
                      log
                        (Printf.sprintf
                           "%s × %s: FAILED [%s] — %s\n  repro: %s" name
                           (P.environment_name env) src
                           (Oracle.string_of_divergence divergence)
                           (Repro.to_string f.k_repro));
                      shrunk_failures := f :: !shrunk_failures
                    end)
              verdicts)
          (chunks sched_list)
      in
      S.with_span spans "campaign.execute" (fun () ->
          count_forks (fun () -> process "campaign.chunk" plan);
          S.add_counter ~by:!tried spans "schedules";
          S.add_counter ~by:!failures_total spans "failures");
      (* mop-up: whatever boundary windows the sweep's landing jitter (or
         plain bad random luck) left unhit get plan-exact single cuts,
         greedily covered and capped at one budget's worth *)
      S.with_span spans "campaign.mopup" (fun () ->
          match acc_uncovered acc with
          | [] -> ()
          | uncovered ->
              S.add_counter ~by:(List.length uncovered) spans "uncovered";
              let singles = cover_boundaries (Array.of_list uncovered) in
              let cap = max 1 config.budget in
              let singles =
                if List.length singles > cap then
                  Wario_support.Util.take cap singles
                else singles
              in
              process "campaign.mopup.chunk"
                (List.map (fun s -> ("mop-up", s)) singles));
      {
        k_workload = name;
        k_env = env;
        k_schedules = !tried;
        k_probes = Adversary.total_probes worst;
        k_coverage = acc_coverage acc;
        k_failures = List.rev !shrunk_failures;
        k_failures_total = !failures_total;
        k_worst_reexec = worst_reexec;
      }

let run ?(log = fun _ -> ()) ?(spans = S.disabled) (config : config) :
    case_report list =
  List.concat_map
    (fun workload ->
      List.map
        (fun env ->
          let r = run_case ~log ~spans config ~workload ~env in
          log
            (Printf.sprintf
               "%s × %s: %d schedules + %d probes, boundary coverage %.1f%%, \
                %s"
               r.k_workload (P.environment_name env) r.k_schedules r.k_probes
               (boundary_pct r.k_coverage)
               (match r.k_failures_total with
               | 0 -> "ok"
               | n ->
                   Printf.sprintf "%d FAILURE(S) (%d distinct shrunk)" n
                     (List.length r.k_failures)));
          r)
        config.envs)
    config.workloads

let total_failures (reports : case_report list) : int =
  List.fold_left (fun acc r -> acc + r.k_failures_total) 0 reports

let min_boundary_pct (reports : case_report list) : float =
  List.fold_left
    (fun acc r -> min acc (boundary_pct r.k_coverage))
    100.0 reports

(* ------------------------------------------------------------------ *)
(* Corpus emission                                                      *)
(* ------------------------------------------------------------------ *)

(* Sabotaged builds (drop-ckpt) are detector-regression entries: the
   verifier must keep catching them.  Real finds are expect=pass: they
   gate CI red until the bug is fixed, and forever green after. *)
let corpus_entries (reports : case_report list) : Corpus.entry list =
  List.concat_map
    (fun r ->
      List.map
        (fun f ->
          let expect =
            if f.k_repro.Repro.drop_ckpt <> None then Corpus.Must_fail
            else Corpus.Must_pass
          in
          let supply =
            match f.k_source with
            | "exhaustive" | "sweep" | "mop-up" | "adversary" | "random"
            | "golden" ->
                None
            | s -> Some s
          in
          Corpus.make ?supply ~found_by:"campaign" ~expect f.k_repro)
        r.k_failures)
    reports

(* ------------------------------------------------------------------ *)
(* Report plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let report_rows (reports : case_report list) : Wario.Report.campaign_row list
    =
  List.map
    (fun r ->
      {
        Wario.Report.cr_workload = r.k_workload;
        cr_env = P.environment_name r.k_env;
        cr_schedules = r.k_schedules;
        cr_probes = r.k_probes;
        cr_boundaries = r.k_coverage.cov_boundaries;
        cr_boundaries_cut = r.k_coverage.cov_boundaries_cut;
        cr_regions = r.k_coverage.cov_regions;
        cr_regions_cut = r.k_coverage.cov_regions_cut;
        cr_boot_cut = r.k_coverage.cov_boot_cut;
        cr_worst_reexec = r.k_worst_reexec;
        cr_failures = r.k_failures_total;
      })
    reports

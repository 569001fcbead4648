(* The fault-injection sweep: workloads × environments × schedules.

   For each (workload, environment) case:
   1. compile and take the continuous golden run (Oracle.golden); a WAR
      violation already present there is reported as a zero-cut failure —
      a broken checkpoint schedule needs no injected power failure;
   2. build the schedule set: the exhaustive boundary ±1 single cuts when
      the program is small enough, topped up with seeded random schedules
      until [schedules_per_case] is reached;
   3. run the oracle on every schedule; each divergence is shrunk to a
      minimal cut set (Shrink.ddmin) and rendered as a one-line
      reproducer (Repro.to_string) replayable by [iclang verify --repro]. *)

module P = Wario.Pipeline
module Exec = Wario_exec.Exec

type failure = {
  f_schedule : int array;  (** as found *)
  f_shrunk : int array;  (** after ddmin *)
  f_divergence : Oracle.divergence;  (** of the shrunk schedule *)
  f_repro : Repro.t;
}

type case_report = {
  c_workload : string;
  c_env : P.environment;
  c_schedules : int;  (** schedules actually exercised *)
  c_failures : failure list;
}

type config = {
  envs : P.environment list;
  workloads : (string * string) list;  (** (name, MiniC source) *)
  schedules_per_case : int;
  exhaustive_limit : int;
      (** use the exhaustive boundary ±1 set only when it is at most this
          many schedules; otherwise rely on the seeded random generator *)
  max_failures_per_case : int;  (** stop a case after this many failures *)
  seed : int64;
  opts : P.options;
  jobs : int;
      (** domains for the schedule fan-out (1 = sequential, 0 = auto) *)
  engine : Wario_emulator.Emulator.engine;
      (** emulator engine for every oracle run (default [Block]; both
          engines verify WARs identically, so verdicts do not depend on
          it) *)
}

let instrumented_environments =
  List.filter (fun e -> e <> P.Plain) P.all_environments

let default_config =
  {
    envs = instrumented_environments;
    workloads =
      List.map
        (fun (m : Wario_workloads.Micro.t) ->
          (m.Wario_workloads.Micro.name, m.Wario_workloads.Micro.source))
        Wario_workloads.Micro.all;
    schedules_per_case = 200;
    exhaustive_limit = 600;
    max_failures_per_case = 3;
    seed = 1L;
    opts = P.default_options;
    jobs = 1;
    engine = Wario_emulator.Emulator.Block;
  }

(* Per-case generator: derived from the sweep seed and the case identity,
   so any single case replays identically without re-running the sweep. *)
let case_gen config ~workload ~env =
  Schedule.of_seed
    (Int64.logxor config.seed
       (Int64.of_int (Hashtbl.hash (workload, P.environment_name env))))

let repro_of config ~workload ~env cuts =
  Repro.make ~unroll:config.opts.P.unroll_factor
    ?max_region:config.opts.P.max_region
    ?drop_ckpt:config.opts.P.drop_middle_ckpt ~seed:config.seed ~workload ~env
    cuts

let run_case ?(log = fun _ -> ()) config ~(workload : string * string)
    ~(env : P.environment) : case_report =
  let name, source = workload in
  let c = P.compile ~opts:config.opts env source in
  let g = Oracle.golden ~engine:config.engine c in
  match Oracle.golden_violations g with
  | _ :: _ as vs ->
      (* the schedule is broken before any failure is injected *)
      log
        (Printf.sprintf "%s × %s: golden run already violates (%d)\n  repro: %s"
           name (P.environment_name env) (List.length vs)
           (Repro.to_string (repro_of config ~workload:name ~env [||])));
      {
        c_workload = name;
        c_env = env;
        c_schedules = 0;
        c_failures =
          [
            {
              f_schedule = [||];
              f_shrunk = [||];
              f_divergence = Oracle.War_violations vs;
              f_repro = repro_of config ~workload:name ~env [||];
            };
          ];
      }
  | [] ->
      let ref_ = Schedule.reference_of_result g.Oracle.g_result in
      let ex = Schedule.exhaustive ref_ in
      let ex = if List.length ex <= config.exhaustive_limit then ex else [] in
      let gen = case_gen config ~workload:name ~env in
      let n_random = max 0 (config.schedules_per_case - List.length ex) in
      let schedules = ex @ Schedule.random_schedules gen ref_ ~n:n_random in
      let still_fails cuts =
        Result.is_error (Oracle.check_schedule ~engine:config.engine g c cuts)
      in
      (* The oracle fan-out runs schedules in fixed-size chunks:
         [Exec.map] evaluates a whole chunk (on [config.jobs] domains —
         each [check_schedule] builds its own emulator; [g]/[c] are only
         read), then the verdicts are consumed sequentially, in input
         order, in the calling domain.  Shrinking, logging and the
         failure cap therefore see schedules in exactly the sequential
         order, and the chunk size is fixed (not derived from [jobs]), so
         reports are byte-identical for every [jobs] value. *)
      let chunk_size = 32 in
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
      let tried = ref 0 and failures = ref [] in
      (try
         List.iter
           (fun chunk ->
             let verdicts =
               Exec.map ~jobs:config.jobs
                 (fun cuts ->
                   (cuts, Oracle.check_schedule ~engine:config.engine g c cuts))
                 chunk
             in
             List.iter
               (fun (cuts, verdict) ->
                 incr tried;
                 match verdict with
                 | Ok () -> ()
                 | Error _ ->
                     let shrunk = Shrink.ddmin ~still_fails cuts in
                     let divergence =
                       match
                         Oracle.check_schedule ~engine:config.engine g c shrunk
                       with
                       | Error d -> d
                       | Ok () ->
                           (* cannot happen: ddmin preserves failure *)
                           assert false
                     in
                     let f =
                       {
                         f_schedule = cuts;
                         f_shrunk = shrunk;
                         f_divergence = divergence;
                         f_repro = repro_of config ~workload:name ~env shrunk;
                       }
                     in
                     log
                       (Printf.sprintf "%s × %s: FAILED — %s\n  repro: %s" name
                          (P.environment_name env)
                          (Oracle.string_of_divergence divergence)
                          (Repro.to_string f.f_repro));
                     failures := f :: !failures;
                     if
                       List.length !failures >= config.max_failures_per_case
                     then raise Exit)
               verdicts)
           (chunks schedules)
       with Exit -> ());
      {
        c_workload = name;
        c_env = env;
        c_schedules = !tried;
        c_failures = List.rev !failures;
      }

(* Static pre-check: run the idempotence certifier (lib/certify) on each
   case's build before injecting any power failure.  A certified image
   cannot trip the dynamic WAR verifier, so a rejection pinpoints a pipeline
   bug — with a concrete load→store witness — without spending a single
   schedule. *)
type precheck = {
  p_workload : string;
  p_env : P.environment;
  p_report : string;  (** rendered rejection (witness paths included) *)
}

let static_precheck ?(log = fun _ -> ()) (config : config) : precheck list =
  List.concat_map
    (fun (name, source) ->
      List.filter_map
        (fun env ->
          let c = P.compile ~opts:config.opts env source in
          match P.certify c with
          | Wario_certify.Certify.Certified _ -> None
          | Wario_certify.Certify.Rejected _ as v ->
              let report = P.certify_report c v in
              log
                (Printf.sprintf "%s × %s: static certifier REJECTED\n%s" name
                   (P.environment_name env) report);
              Some { p_workload = name; p_env = env; p_report = report })
        config.envs)
    config.workloads

let sweep ?(log = fun _ -> ()) (config : config) : case_report list =
  List.concat_map
    (fun workload ->
      List.map
        (fun env ->
          let r = run_case ~log config ~workload ~env in
          log
            (Printf.sprintf "%s × %s: %d schedules, %s" r.c_workload
               (P.environment_name env) r.c_schedules
               (match r.c_failures with
               | [] -> "ok"
               | fs -> Printf.sprintf "%d FAILURE(S)" (List.length fs)));
          r)
        config.envs)
    config.workloads

let total_failures (reports : case_report list) : int =
  List.fold_left (fun acc r -> acc + List.length r.c_failures) 0 reports

(* Replay a reproducer: recompile exactly as recorded and re-run the
   oracle on the recorded cut schedule. *)
let replay ?engine (r : Repro.t) : (unit, string) result =
  match Repro.source_of_workload r.Repro.workload with
  | Error e -> Error e
  | Ok source -> (
      let c = P.compile ~opts:(Repro.options_of r) r.Repro.env source in
      let g = Oracle.golden ?engine c in
      match Oracle.golden_violations g with
      | _ :: _ as vs ->
          Error
            (Oracle.string_of_divergence (Oracle.War_violations vs)
            ^ " (in the golden run, before any injection)")
      | [] -> (
          match Oracle.check_schedule ?engine g c r.Repro.cuts with
          | Ok () -> Ok ()
          | Error d -> Error (Oracle.string_of_divergence d)))

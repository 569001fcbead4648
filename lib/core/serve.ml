(* The `iclang serve` batch protocol: (program, options) compile jobs in,
   per-job results out, both as JSONL.

   This module is the protocol half of the server — parsing job lines,
   canonicalizing them to pipeline stage keys, deduplicating a batch,
   compiling one job and assembling the result lines.  The orchestration
   half (reading streams, fanning distinct jobs over an Exec pool) lives
   in bin/iclang.ml, because lib/core does not depend on wario_exec or the
   workload corpus: the benchmark table reaches [job_of_line] as an
   injected [lookup] function.

   Determinism contract: results are emitted in input order, one line per
   input line, and with [stats_only] the bytes of a result line depend
   only on the job itself (no wall times, no cache outcomes) — CI
   byte-compares a cached serve run against an uncached one. *)

module J = Wario_support.Json

type job = {
  j_id : string;  (** echoed in the result line *)
  j_program : string;  (** benchmark name, or ["<inline>"] for sources *)
  j_source : string;
  j_env : Pipeline.environment;
  j_opts : Pipeline.options;
}

(* Known job fields.  Unknown keys are errors, not ignored: a typo'd
   option silently compiling with defaults would defeat the point of a
   batch front end. *)
let known_fields =
  [
    "id";
    "benchmark";
    "source";
    "env";
    "unroll";
    "optimize";
    "placement";
    "elide";
    "motion";
    "max_region";
    "expander_size_limit";
  ]

let default_id index = Printf.sprintf "job-%d" index

(* A job's id: its ["id"] string field, or the default. *)
let id_of_json ~(index : int) (j : J.t) : string =
  match Option.bind (J.member "id" j) J.to_string with
  | Some s -> s
  | None -> default_id index

let job_of_json ~(lookup : string -> string option) ~(index : int) (j : J.t)
    : (job, string) result =
  match J.obj_fields j with
  | None -> Error "job must be a JSON object"
  | Some fields -> (
      let unknown =
        List.filter (fun (k, _) -> not (List.mem k known_fields)) fields
      in
      match unknown with
      | (k, _) :: _ -> Error (Printf.sprintf "unknown job field %S" k)
      | [] -> (
          let str k = Option.bind (J.member k j) J.to_string in
          let num k = Option.bind (J.member k j) J.to_int in
          let bool_f k default =
            match J.member k j with
            | None -> Ok default
            | Some v -> (
                match J.to_bool v with
                | Some b -> Ok b
                | None -> Error (Printf.sprintf "field %S must be a boolean" k))
          in
          let id = id_of_json ~index j in
          let source =
            match (str "benchmark", str "source") with
            | Some b, None -> (
                match lookup b with
                | Some src -> Ok (b, src)
                | None -> Error (Printf.sprintf "unknown benchmark %S" b))
            | None, Some src -> Ok ("<inline>", src)
            | Some _, Some _ -> Error "give either benchmark or source, not both"
            | None, None -> Error "job needs a benchmark or a source"
          in
          let env =
            match str "env" with
            | None -> Ok Pipeline.Wario
            | Some name -> (
                match Pipeline.environment_of_name name with
                | Some e -> Ok e
                | None -> Error (Printf.sprintf "unknown environment %S" name))
          in
          let placement =
            match str "placement" with
            | None -> Ok Pipeline.default_options.Pipeline.placement
            | Some name -> (
                match Pipeline.placement_of_name name with
                | Some p -> Ok p
                | None ->
                    Error
                      (Printf.sprintf
                         "unknown placement %S (greedy|cost-guided|interprocedural)"
                         name))
          in
          match (source, env, placement) with
          | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
          | Ok (program, source), Ok env, Ok placement -> (
              let ( let* ) = Result.bind in
              let* optimize = bool_f "optimize" true in
              let* elide = bool_f "elide" false in
              let* motion = bool_f "motion" false in
              let d = Pipeline.default_options in
              let opts =
                {
                  d with
                  Pipeline.unroll_factor =
                    Option.value (num "unroll") ~default:d.Pipeline.unroll_factor;
                  optimize;
                  placement;
                  elide;
                  motion;
                  max_region = num "max_region";
                  expander_size_limit =
                    Option.value
                      (num "expander_size_limit")
                      ~default:d.Pipeline.expander_size_limit;
                }
              in
              let* () = Pipeline.check_options opts in
              Ok { j_id = id; j_program = program; j_source = source;
                   j_env = env; j_opts = opts })))

let job_of_line ~lookup ~index (line : string) : (job, string) result =
  match J.parse (String.trim line) with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j -> job_of_json ~lookup ~index j

(* The id a job line names, for its error line when [job_of_line]
   rejected it: the ["id"] field of a JSON line, else the default. *)
let line_id ~index (line : string) : string =
  match J.parse (String.trim line) with
  | Ok j -> id_of_json ~index j
  | Error _ -> default_id index

let key_of_job (job : job) : Cache.Key.t =
  Pipeline.image_key ~opts:job.j_opts job.j_env job.j_source

(* ------------------------------------------------------------------ *)
(* Batch planning: dedupe by image key                                  *)
(* ------------------------------------------------------------------ *)

type plan = {
  p_keys : Cache.Key.t array;  (** image key of each job, input order *)
  p_stage_keys : (string * Cache.Key.t) list array;
      (** every stage key of each job, input order *)
  p_canonical : int array;
      (** for each job, the index of the first job with the same key
          (itself when the job is the first) *)
  p_distinct : int list;  (** indices owning distinct keys, input order *)
}

let plan (jobs : job list) : plan =
  let jobs = Array.of_list jobs in
  let stage_keys =
    Array.map
      (fun job -> Pipeline.stage_keys ~opts:job.j_opts job.j_env job.j_source)
      jobs
  in
  let keys = Array.map (List.assoc "image") stage_keys in
  let first : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let canonical =
    Array.mapi
      (fun i k ->
        match Hashtbl.find_opt first k with
        | Some j -> j
        | None ->
            Hashtbl.add first k i;
            i)
      keys
  in
  let distinct =
    Array.to_list (Array.mapi (fun i c -> (i, c)) canonical)
    |> List.filter_map (fun (i, c) -> if i = c then Some i else None)
  in
  {
    p_keys = keys;
    p_stage_keys = stage_keys;
    p_canonical = canonical;
    p_distinct = distinct;
  }

(* ------------------------------------------------------------------ *)
(* Result lines                                                         *)
(* ------------------------------------------------------------------ *)

let fmt_float f =
  (* shortest round-trip representation, no locale surprises *)
  Printf.sprintf "%.17g" f |> fun s ->
  match float_of_string_opt (Printf.sprintf "%.12g" f) with
  | Some g when g = f -> Printf.sprintf "%.12g" f
  | _ -> s

let error_line ~(id : string) (msg : string) : string =
  Printf.sprintf {|{"id":"%s","ok":false,"error":"%s"}|} (J.escape id)
    (J.escape msg)

(** One result line.  Deterministic field order; [stats_only] drops the
    fields that legitimately vary between runs or cache states (wall
    time, per-stage cache outcomes) so two serve runs over the same batch
    — cached or not — produce byte-identical output. *)
let result_line ?(stats_only = false) ~(job : job) ~(key : Cache.Key.t)
    ~(dedup_of : string option) ~(stages : (string * bool) list)
    ~(wall_ms : float) (c : Pipeline.compiled) : string =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add {|{"id":"%s","ok":true,"program":"%s","env":"%s"|} (J.escape job.j_id)
    (J.escape job.j_program)
    (Pipeline.environment_name job.j_env);
  add {|,"placement":"%s"|} (Pipeline.placement_name job.j_opts.Pipeline.placement);
  add {|,"key":"%s"|} (Cache.Key.to_hex key);
  (match dedup_of with
  | Some id -> add {|,"dedup_of":"%s"|} (J.escape id)
  | None -> ());
  add {|,"text_bytes":%d|} c.Pipeline.text_bytes;
  add {|,"data_bytes":%d|} c.Pipeline.image.Wario_emulator.Image.data_bytes;
  add {|,"wars":%d|} c.Pipeline.middle.Pipeline.wars_found;
  add {|,"middle_ckpts":%d|} c.Pipeline.middle.Pipeline.middle_ckpts;
  add {|,"spill_ckpts":%d|} c.Pipeline.backend.Wario_backend.Backend.spill_ckpts;
  (match c.Pipeline.elision with
  | Some e -> add {|,"elided":%d|} e.Elide.elided
  | None -> ());
  (match c.Pipeline.motion with
  | Some m -> add {|,"motion_applied":%d|} m.Motion.applied
  | None -> ());
  (match c.Pipeline.model_cost with
  | Some f -> add {|,"model_cost":%s|} (fmt_float f)
  | None -> ());
  if not stats_only then begin
    add {|,"stages":{|};
    List.iteri
      (fun i (stage, hit) ->
        add {|%s"%s":"%s"|}
          (if i = 0 then "" else ",")
          stage
          (if hit then "hit" else "miss"))
      stages;
    add "}";
    add {|,"wall_ms":%s|} (fmt_float wall_ms)
  end;
  add "}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Batches                                                              *)
(* ------------------------------------------------------------------ *)

type outcome = (Pipeline.compiled * (string * bool) list * float, string) result

let compile ~cache (plan : plan) (jobs : job array) (idx : int) : outcome =
  let job = jobs.(idx) in
  let t0 = Wario_obs.Span.now_ms () in
  match
    Pipeline.compile_with_report ~opts:job.j_opts ~keys:plan.p_stage_keys.(idx)
      ~cache job.j_env job.j_source
  with
  | c, report -> Ok (c, report, Wario_obs.Span.now_ms () -. t0)
  | exception (Wario_minic.Minic.Error e | Wario_backend.Isel.Isel_error e) ->
      Error e

let result_lines ?stats_only ~(inputs : string list)
    (parsed : (job, string) result list) (plan : plan)
    (outcome : int -> outcome) : string list * int =
  let inputs = Array.of_list inputs in
  let oks = Array.of_list (List.filter_map Result.to_option parsed) in
  let ok_pos = ref 0 and errors = ref 0 in
  let error_line ~id msg =
    incr errors;
    error_line ~id msg
  in
  let lines =
    List.mapi
      (fun i r ->
        match r with
        | Error msg -> error_line ~id:(line_id ~index:i inputs.(i)) msg
        | Ok job -> (
            let p = !ok_pos in
            incr ok_pos;
            let canon = plan.p_canonical.(p) in
            match outcome canon with
            | Error msg -> error_line ~id:job.j_id msg
            | Ok (c, stages, wall_ms) ->
                let dedup_of =
                  if canon = p then None else Some oks.(canon).j_id
                in
                result_line ?stats_only ~job ~key:plan.p_keys.(p) ~dedup_of
                  ~stages ~wall_ms c))
      parsed
  in
  (lines, !errors)

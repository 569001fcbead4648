(** The [iclang serve] batch protocol: JSONL compile jobs in, JSONL
    results out (README "Compile service").

    A job line is one JSON object:
    {v
    {"id":"j1","benchmark":"crc","env":"wario","placement":"cost-guided",
     "elide":true}
    {"id":"j2","source":"int main() { return 0; }","env":"ratchet"}
    v}
    Fields: [id] (echoed; defaults to [job-<line index>]), exactly one of
    [benchmark]/[source], and optionally [env], [unroll], [optimize],
    [placement] ([greedy|cost-guided|interprocedural]), [elide], [motion],
    [max_region], [expander_size_limit] — all defaulting to
    {!Pipeline.default_options}.  Unknown fields are errors.

    This module is the pure protocol half — parsing, canonicalization to
    {!Pipeline.stage_keys} image keys, batch deduplication, result
    formatting.  Stream handling and the {!Wario_exec} fan-out live in
    the driver. *)

type job = {
  j_id : string;  (** echoed in the result line *)
  j_program : string;  (** benchmark name, or ["<inline>"] for sources *)
  j_source : string;
  j_env : Pipeline.environment;
  j_opts : Pipeline.options;
}

val job_of_json :
  lookup:(string -> string option) ->
  index:int ->
  Wario_support.Json.t ->
  (job, string) result
(** [lookup] resolves a benchmark name to its source (the driver injects
    the workload corpus); [index] numbers the job for the default id. *)

val job_of_line :
  lookup:(string -> string option) ->
  index:int ->
  string ->
  (job, string) result

val key_of_job : job -> Cache.Key.t
(** The job's canonical identity: {!Pipeline.image_key} of its
    (source, environment, options) triple. *)

type plan = {
  p_keys : Cache.Key.t array;  (** image key of each job, input order *)
  p_stage_keys : (string * Cache.Key.t) list array;
      (** every {!Pipeline.stage_keys} key of each job, input order: a
          compile of the job takes them as its [keys] *)
  p_canonical : int array;
      (** for each job, the index of the first job with the same key
          (itself when the job is the first) *)
  p_distinct : int list;  (** indices owning distinct keys, input order *)
}

val plan : job list -> plan
(** Dedupe a batch by image key: only [p_distinct] jobs need compiling;
    every other job aliases its [p_canonical] entry's result. *)

val error_line : id:string -> string -> string
(** [{"id":...,"ok":false,"error":...}] for a line that did not parse. *)

val result_line :
  ?stats_only:bool ->
  job:job ->
  key:Cache.Key.t ->
  dedup_of:string option ->
  stages:(string * bool) list ->
  wall_ms:float ->
  Pipeline.compiled ->
  string
(** One result line: the echoed id, program/env/placement, the image key,
    [dedup_of] (the canonical job's id when this one was deduplicated),
    compile stats (sizes, WARs, checkpoint counts, elision/motion deltas,
    model cost), per-stage cache outcomes and wall time.  [stats_only]
    drops the run-varying fields (stages, wall time) so two serve runs
    over the same batch — cached or not — are byte-identical. *)

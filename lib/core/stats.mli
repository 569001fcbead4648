(** Run-artifact trend reporting and regression gating: the analysis
    behind [iclang stats].

    Ingests the artefacts the rest of the stack already emits — the
    benchmark harness's [BENCH_*.json] generations, span JSONL written by
    [--span-jsonl] anywhere in the fleet, campaign coverage JSON — and
    renders a trend report: per-program dynamic-checkpoint / cycle deltas
    across BENCH generations, the top-k slowest spans, and per-worker
    utilization.  With a budget file it additionally gates: any program
    over its dyn-ckpt or cycle budget (or missing from the newest
    generation that should carry it) is a breach, and [iclang stats
    --gate] exits nonzero.

    Everything here is total on degenerate input: zero generations, a
    single generation (no deltas), zero spans, a zero-dyn-ckpt baseline —
    no divide-by-zero, no [nan], no negative table widths. *)

(** {1 BENCH generations} *)

type point = {
  pt_program : string;
  pt_class : string;  (** ["micro"] or ["benchmark"] ([""] when absent) *)
  pt_selected : string;  (** the measured guard's pick *)
  pt_dyn_ckpts : int;  (** selected variant, continuous power *)
  pt_cycles : int;  (** selected variant, continuous power *)
}

type tpoint = {
  tp_program : string;
  tp_ref_ips : float;  (** reference engine, instr/s, continuous power *)
  tp_block_ips : float;
}

type cache_point = {
  cp_cold_s : float;  (** wall seconds of the cold-cache sweep *)
  cp_warm_s : float;  (** wall seconds of the identical warm sweep *)
  cp_speedup : float;  (** [cp_cold_s /. cp_warm_s] *)
  cp_hits : int;
  cp_misses : int;
  cp_evictions : int;
}

type generation = {
  g_label : string;  (** e.g. ["BENCH_5"] — the file's base name *)
  g_kind : string;  (** the artefact's ["bench"] field *)
  g_small : bool;
  g_points : point list;  (** one per program; empty for perf artefacts *)
  g_emulator_ips : float option;
      (** perf artefacts: fast-path instructions per second *)
  g_throughput : tpoint list;
      (** emu artefacts (BENCH_7): per-program per-engine instr/s; empty
          for every other artefact kind *)
  g_cache : cache_point option;
      (** cache artefacts (BENCH_8): the compile-cache cold/warm summary *)
}

val generation_of_json :
  label:string -> Wario_support.Json.t -> (generation, string) result
(** Accepts every BENCH schema in the repo: [perf] (no programs),
    [place] / [place6] (programs × variants), [emu] (programs × engines —
    parsed into [g_throughput], not [g_points]), [cache] (one cold/warm
    compile summary, parsed into [g_cache]).  Each placement program's
    point is its {e selected} variant's continuous-power numbers. *)

val load_generation : label:string -> string -> (generation, string) result
(** [generation_of_json] on raw file text. *)

(** {1 Trend across generations} *)

type trend_row = {
  tr_program : string;
  tr_cells : (string * int * int) option list;
      (** aligned with the input generations (placement generations only):
          [Some (selected, dyn_ckpts, cycles)] where the program appears *)
  tr_dyn_delta_pct : float option;
      (** oldest → newest appearance; [None] with fewer than two
          appearances or a zero baseline *)
  tr_cycles_delta_pct : float option;
}

val trend : generation list -> trend_row list
(** Rows in order of first appearance; generations are taken in the order
    given (pass oldest first). *)

type throughput_row = {
  th_program : string;
  th_cells : tpoint option list;
      (** aligned with the emu generations in input order *)
  th_block_delta_pct : float option;
      (** block-engine instr/s, oldest → newest appearance; [None] with
          fewer than two appearances *)
}

val throughput_trend : generation list -> throughput_row list
(** The instr/s counterpart of {!trend}: one row per program appearing in
    any emu generation. *)

val render_trend : generation list -> string

(** {1 Span statistics} *)

type span_row = {
  sr_path : string;  (** ["/a/b/c"] root-to-span names *)
  sr_dur_ms : float;
  sr_self_ms : float;  (** duration minus same-track child time, >= 0 *)
  sr_track : int;
}

val top_spans : ?k:int -> Wario_obs.Span.span list -> span_row list
(** The [k] (default 10) slowest spans by total duration. *)

type worker_row = {
  wk_pool : string;  (** the pool span's label *)
  wk_worker : int;
  wk_busy_ms : float;
  wk_idle_ms : float;
  wk_items : int;
}

val worker_utilization : Wario_obs.Span.span list -> worker_row list
(** Aggregates every ["worker"] span under each pool label, summed per
    (pool, worker id) over all pool invocations — the per-domain
    busy/idle timeline {!Wario_exec.Exec.map} grafts at each join. *)

val render_spans : ?k:int -> Wario_obs.Span.span list -> string
(** Top-k table + worker-utilization table; a friendly line (not an
    exception) on zero spans. *)

(** {1 Regression gate} *)

type budget = {
  b_program : string;
  b_max_dyn_ckpts : int option;
  b_max_cycles : int option;
  b_min_instr_per_s : float option;
      (** a {e floor} on the block engine's continuous-power instr/s (the
          newest emu generation) — the inverted comparison: falling under
          it is the breach *)
  b_max_warm_compile_s : float option;
      (** ceiling on the warm-cache sweep's wall seconds (the newest
          cache generation); breaches render in milliseconds *)
  b_min_cache_speedup : float option;
      (** floor on cold/warm speedup of the newest cache generation;
          breaches render in percent *)
}

val budgets_of_json :
  Wario_support.Json.t -> (budget list, string) result
(** Schema: [{"budgets": [{"program": s, "max_dyn_ckpts": n?,
    "max_cycles": n?, "min_instr_per_s": x?}, ...]}]. *)

type breach = {
  br_program : string;
  br_metric : string;
      (** ["dyn_ckpts"], ["cycles"], ["missing"], ["instr_per_s"] or
          ["instr_per_s missing"] *)
  br_actual : int option;  (** [None] when the program is missing *)
  br_limit : int;
}

val gate : budgets:budget list -> generation list -> breach list
(** Each budgeted program is checked against its {e newest} appearance
    (the last generation, in input order, whose points include it); a
    program appearing in no generation is itself a breach.  Ceiling
    budgets (dyn-ckpts, cycles) read placement generations; the
    [min_instr_per_s] floor reads emu generations.  Empty result = gate
    passes. *)

val render_breaches : breach list -> string

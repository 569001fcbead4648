(** Run-artifact trend reporting and regression gating: the analysis
    behind [iclang stats].

    Ingests the artefacts the rest of the stack already emits — the
    benchmark harness's [BENCH_*.json] generations, span JSONL written by
    [--span-jsonl] anywhere in the fleet, campaign coverage JSON — and
    renders a trend report: every (program, metric) row across BENCH
    generations with its oldest → newest delta, the top-k slowest spans,
    and per-worker utilization.  With a budget file it additionally gates:
    a (program, metric) past its bound, or carried by no generation, is a
    breach, and [iclang stats --gate] exits nonzero.

    Everything here is total on degenerate input: zero generations, a
    single generation (no deltas), zero spans, a zero baseline — no
    divide-by-zero, no [nan], no negative table widths. *)

(** {1 BENCH generations} *)

type better = Lower | Higher

(** One measurement: the row shape of every gated bench artefact, with
    the field names [BENCHMARK.json] uses. *)
type row = {
  r_program : string;  (** a workload, or a batch name like ["cache-sweep"] *)
  r_metric : string;  (** e.g. ["dyn_ckpts"], ["greedy.cycles"] *)
  r_value : float;
  r_unit : string;  (** ["count"], ["s"], ["instr/s"], ["ratio"] *)
  r_better : better;  (** the direction a budget on this metric gates *)
}

type generation = {
  g_label : string;  (** e.g. ["BENCH_6"] — the file's base name *)
  g_small : bool;
  g_rows : row list;  (** at most one per (program, metric) *)
}

val artefact_json : bench:string -> small:bool -> row list -> string
(** The artefact file: [{"bench": NAME, "small": BOOL, "rows": [{"program",
    "metric", "value", "unit", "better"}, ...]}]. *)

val load_generation : label:string -> string -> (generation, string) result
(** Parses file text in {!artefact_json}'s schema.  Text that is not
    JSON, a file in any other shape, a row missing a field, a [better]
    other than ["lower"]/["higher"] or two rows for one (program, metric)
    is an [Error] naming [label]. *)

(** {1 Trend across generations} *)

type trend_row = {
  tr_program : string;
  tr_metric : string;
  tr_cells : float option list;
      (** aligned with the input generations: [Some value] where the
          (program, metric) appears *)
  tr_delta_pct : float option;
      (** oldest → newest appearance; [None] with fewer than two
          appearances or a zero baseline *)
}

val trend : generation list -> trend_row list
(** One row per (program, metric), in order of first appearance;
    generations are taken in the order given (pass oldest first). *)

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

type budget = { b_program : string; b_metric : string; b_bound : float }

val budgets_of_json : Wario_support.Json.t -> (budget list, string) result
(** Schema: [{"budgets": [{"program": s, "metric": s, "bound": x}, ...]}]
    (other top-level fields, like a ["comment"], are ignored).  A budget
    with a missing or unknown field is an [Error]: a misspelled key must
    not pass the gate unread. *)

type breach = {
  br_budget : budget;
  br_row : row option;
      (** the newest row past the bound; [None] when no generation
          carries the (program, metric) *)
}

val gate : budgets:budget list -> generation list -> breach list
(** Each budget is checked against the {e newest} generation (the last,
    in input order) carrying its (program, metric): the row breaches
    when its value is above the bound for a [Lower]-is-better metric, or
    below it for a [Higher]-is-better one.  A (program, metric) that no
    generation carries is itself a breach.  Empty result = gate passes. *)

val render_breaches : breach list -> string

(** Hierarchical structured spans for toolchain-side attribution.

    A span covers one stage of work (a pipeline pass, a solver call, a
    certifier recheck, a campaign phase, an [Exec.map] worker) with a
    wall-clock window, typed attributes, integer counters and child spans.
    Completed trees render as Chrome trace-event JSON (load in
    [chrome://tracing] / Perfetto) and as JSONL for [iclang stats].

    Recorders are single-domain: parallel fan-outs give each worker its own
    recorder and graft the finished trees back at the join point, on a
    distinct [track] per worker so overlapping wall-clock windows stay
    attributable (the self-check sums child durations per track). *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  sp_name : string;
  sp_t0 : float;  (** absolute wall-clock start, milliseconds since epoch *)
  sp_dur : float;  (** duration in milliseconds (clamped at >= 0) *)
  sp_track : int;  (** Chrome [tid]; 0 = recording domain, workers use 1.. *)
  sp_attrs : (string * value) list;  (** first-set order *)
  sp_counters : (string * int) list;  (** first-bump order *)
  sp_children : span list;  (** completion order *)
}

type t
(** A span recorder: a stack of open spans plus completed roots. *)

val create : ?track:int -> unit -> t
(** Fresh live recorder. [track] tags every span it records (default 0). *)

val disabled : t
(** Shared no-op recorder: every operation on it is free and records
    nothing. The instrumentation default everywhere. *)

val is_enabled : t -> bool

val with_span :
  ?attrs:(string * value) list -> t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] opens a span, runs [f], and closes the span when
    [f] returns — or raises; the span is kept either way and the exception
    rethrown. Nested calls build the parent/child tree. *)

val set_attr : t -> string -> value -> unit
(** Set an attribute on the innermost open span (last write wins; first-set
    order preserved). No-op when disabled or no span is open. *)

val add_counter : ?by:int -> t -> string -> unit
(** Bump a counter on the innermost open span by [by] (default 1). *)

val graft : t -> span list -> unit
(** Attach already-completed spans (e.g. a worker recorder's [roots]) as
    children of the innermost open span, or as roots if none is open.
    Completion order is preserved. *)

val roots : t -> span list
(** Completed top-level spans, in completion order. Open spans are not
    included — call after the outermost [with_span] returns. *)

val check : span list -> (unit, string) result
(** Self-check over completed trees: every child lies inside its parent's
    window, and per track the child durations sum to at most the parent's
    duration (small epsilon for clock granularity). Workers on distinct
    tracks may overlap each other; same-track children may not. *)

val to_chrome_json : ?process_name:string -> span list -> string
(** Chrome trace-event JSON (an object with a ["traceEvents"] array of "X"
    duration slices; [ts]/[dur] in microseconds, normalized so the earliest
    span starts at 0; [tid] is the span's track). *)

val to_jsonl : span list -> string
(** One JSON object per span, depth-first: [{"span","id","parent","track",
    "t0_ms","dur_ms","attrs","counters"}]. [parent] is null for roots. *)

val to_metrics_jsonl : span list -> string
(** The span trees projected onto named timers and counters, one JSON
    object per line ([iclang trace --metrics]):
    [{"metric":"backend.regalloc.ms","kind":"time_ms","value":0.734}]
    [{"metric":"middle.checkpoint_inserter.wars","kind":"count","value":12}]
    For each span name [N], [N.ms] is the summed duration of every span
    named [N] (any parent, any track) and [N.C] the sum of its counter [C]
    over those spans.  Entries appear in depth-first, first-seen order.
    [""] for no spans.
    @raise Invalid_argument if a counter named [ms] collides with a
      span's timer. *)

val of_jsonl : string -> (span list, string) result
(** Rebuild span trees from [to_jsonl] output (used by [iclang stats] to
    re-run [check] and rank spans). Lines that are blank are skipped;
    a malformed line or dangling parent id is an [Error]. *)

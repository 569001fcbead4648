(** The parallel experiment engine: a deterministic map over a pool of
    OCaml 5 domains.

    Every artefact this reproduction produces multiplies runs — benchmarks
    × environments × supplies × schedules — and every run is independent:
    each job compiles its own program and/or builds its own
    {!Wario_emulator.Image}/emulator state, so jobs share nothing mutable.
    [map] exploits that shape while keeping the sequential semantics
    callers already rely on:

    - {b results are returned in input order}, regardless of which domain
      finished first;
    - {b exceptions are deterministic}: if any job raises, the exception
      of the {e lowest-indexed} failing item is re-raised (with its
      backtrace) after the pool drains — never a timing-dependent one;
    - [jobs = 1] never spawns a domain and is exactly [List.map]
      (today's sequential path).

    Determinism therefore reduces to the determinism of [f] itself:
    [map ~jobs:1 f xs = map ~jobs:8 f xs] whenever [f] is a function of
    its argument alone.  The test suite (test/test_exec.ml) holds the
    whole stack to that equation.

    Jobs must not touch shared mutable state.  In this codebase the
    compiler pipeline and emulator allocate everything per call, so
    [fun src -> Emulator.run (Pipeline.compile env src).image] is safe;
    writing to a shared [Hashtbl] (e.g. a result cache) from [f] is not —
    collect results first, then fill the cache in the caller. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the runtime's estimate of how
    many domains this host runs in parallel (1 on a single-core host). *)

val map :
  ?jobs:int ->
  ?spans:Wario_obs.Span.t ->
  ?label:string ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs f items] applies [f] to every item on up to [jobs] domains
    (the calling domain participates, so at most [jobs - 1] are spawned)
    and returns the results in input order.

    @param jobs pool width; [0] (the default) means auto: size the pool
      to {!default_jobs}.  On a single-core host auto resolves to the
      sequential path — a pool with no parallelism to buy only adds
      spawn/join overhead.
    @param spans a live recorder wraps the map in a pool span named
      [label] (default ["exec.map"]) and grafts one ["worker"] child span
      per pool member at the join — each on its own track, carrying
      busy/idle milliseconds and the item count, so per-domain utilization
      timelines survive into the trace.  The recorder is only ever touched
      by the calling domain, so [f] must not record into it.
    @raise Invalid_argument when [jobs < 0]. *)

val serialized : ('a -> unit) -> 'a -> unit
(** [serialized sink] is [sink] behind a mutex: a single-writer funnel for
    progress lines emitted from inside parallel jobs, so concurrent writes
    are never interleaved mid-line.  (Code on the main-domain side of a
    [map] — e.g. the verify harness, which logs verdicts after collecting
    them in input order — does not need this.) *)

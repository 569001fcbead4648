(** Boundary-bisecting adversarial cut search: for every idempotent region
    of the continuous reference run, bisect (with single-cut oracle
    probes) for the worst-case power-failure cycle — the largest cut
    offset that still discards the whole region, i.e. the exact cycle at
    which the region's commit becomes durable.  Probes that provoke a
    differential divergence are surfaced as counterexamples.
    Deterministic: pure bisection over the commit geometry, no
    randomness. *)

type worst = {
  a_region : int;  (** region index; the tail (halt-terminated) region last *)
  a_window : int * int;
      (** [(lo, hi)]: cuts in [(lo, hi]] land inside this region (golden
          active-cycle offsets) *)
  a_cut : int;  (** worst single-cut offset found *)
  a_reexec : int;  (** re-executed cycles that cut provokes *)
  a_divergence : Oracle.divergence option;
      (** a probe that diverged, if any — the real counterexample *)
  a_probes : int;  (** oracle runs spent on this region *)
}

val atomic_slack : int
(** Measured loss may trail the cut offset by one atomic spend (largest:
    a checkpoint commit); the bisection predicate allows this slack. *)

val search :
  ?engine:Wario_emulator.Emulator.engine ->
  ?max_regions:int ->
  Oracle.golden ->
  Wario.Pipeline.compiled ->
  worst list
(** One {!worst} per region with a non-empty cut window, in region order
    (boot-to-first-commit first, the halt-terminated tail last).  Costs
    O(log region-size) oracle runs per region.  [max_regions] caps the
    search to the widest regions (where a worst-case cut loses the most
    work) — dense-commit environments checkpoint every few cycles, and
    bisecting tens of thousands of tiny regions buys nothing; the capped
    selection is deterministic (width-descending, index tie-break). *)

val schedules : worst list -> int array list
(** The worst cuts as single-cut injection schedules. *)

val total_probes : worst list -> int

(** Loop Write Clusterer (paper §3.1.2, Algorithm 1, Figure 3).

    Unrolls candidate loops N times and postpones their WAR stores to the
    final latch, clustering N iterations' writes behind one checkpoint.
    Early exits get write-back blocks; dependent reads get runtime
    address-check/select chains — or direct register forwarding when the
    affine analysis proves must-alias (the [w\[t-3\]] pattern).  A
    cost-aware refinement cancels stores whose runtime checks would exceed
    the checkpoint savings (the paper's break-even point). *)

type stats = {
  loops_seen : int;
  loops_unrolled : int;
  stores_postponed : int;
  reads_instrumented : int;  (** loads rewritten into compare/select chains *)
  reads_forwarded : int;  (** loads replaced by direct register forwards *)
  exit_writebacks : int;
}

val run :
  ?spans:Wario_obs.Span.t -> ?unroll_factor:int -> Wario_ir.Ir.program -> stats
(** @param spans (default {!Wario_obs.Span.disabled}) receives, on its
    innermost open span, the candidate stores each check rejected:
    [cancelled_waw] (an aliasing stationary store follows),
    [cancelled_read] (an aliasing load of another width),
    [cancelled_exit] (the store reaches an exit it does not dominate) and
    [cancelled_latch] (the store does not dominate the latch), counted
    per selection round.
    @param unroll_factor the paper's N; default 8 (§5.2.4) *)

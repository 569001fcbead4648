(** PDG Checkpoint Inserter (paper §3.1.2): convert every remaining WAR
    violation into its set of resolving program points and pick checkpoint
    locations with a minimal hitting set.

    Placement is cost-guided by default: candidate points are weighted by
    the {!Wario_analysis.Costmodel} block-frequency estimate (optionally
    refined by a measured profile) and the weighted solver minimises the
    expected number of dynamically executed checkpoints, proving optimality
    when the instance is small enough.  [Interprocedural] additionally
    scales every block weight by the {!Wario_analysis.Callgraph} invocation
    frequency of its function, so a checkpoint in a hot callee is priced at
    its true global cost.  [Greedy] retains the original unweighted greedy
    costed by loop depth, as the comparison baseline. *)

type placement =
  | Greedy  (** unweighted greedy hitting set costed by loop depth only *)
  | Cost_guided
      (** weighted solver minimising estimated dynamic checkpoint count *)
  | Interprocedural
      (** weighted solver over call-graph-scaled global block weights *)

type placement_info = {
  pi_func : string;
  pi_block : Wario_ir.Ir.label;
  pi_index : int;  (** instruction index the checkpoint was inserted at *)
  pi_weight : float;  (** the weight the solver paid for this point *)
  pi_wars : int;  (** reduced WAR sets this point covers *)
}
(** Rationale record for one inserted checkpoint ([--explain]). *)

type stats = {
  functions : int;
  wars : int;
  checkpoints : int;
  exact : int;  (** functions whose weighted cover was proven optimal *)
  fallback : int;  (** functions placed by the weighted-greedy fallback *)
  hs_nodes : int;
      (** branch-and-bound nodes explored across all per-function solves
          (solver-effort attribution for spans/metrics) *)
  placements : placement_info list;
      (** one record per inserted checkpoint, function order *)
}

val run :
  ?spans:Wario_obs.Span.t ->
  ?mode:Wario_analysis.Alias.mode ->
  ?placement:placement ->
  ?profile:Wario_analysis.Costmodel.profile ->
  ?global:(string -> Wario_ir.Ir.label -> float) ->
  Wario_ir.Ir.program ->
  stats
(** [mode] selects the alias precision: [Basic] reproduces Ratchet,
    [Precise] (default) reproduces R-PDG / WARio.  [placement] defaults to
    [Cost_guided]; [profile] (measured per-block entry counts, validated by
    the caller) is consulted under [Cost_guided] and [Interprocedural].
    [global] supplies interprocedural block weights (typically
    {!Wario_analysis.Callgraph.t.block_weight}) and is only consulted under
    [Interprocedural]; when absent that policy degrades to [Cost_guided].
    A live [spans] (default {!Wario_obs.Span.disabled}) receives, on its
    innermost open span, the microseconds spent in each phase summed over
    functions: [analysis_us] (CFG, alias analysis, PDG and WARs),
    [candidates_us] (subsumption and candidate sets), [solve_us] (the
    hitting set) and [insert_us] (rationale records and insertion).  The
    clock is read only when [spans] is live. *)

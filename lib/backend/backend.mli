(** Back-end driver: WIR program -> TM2 machine program (paper Figure 2,
    dark-blue area): isel, web splitting, linear-scan register allocation
    with stack-slot sharing disabled, the stack-spill checkpoint inserter,
    frame lowering with pop conversion, and checkpoint live masks. *)

type config = {
  spill_strategy : Stack_ckpt.strategy option;  (** [None] = uninstrumented *)
  epilog_style : Frame.epilog_style;
}

val plain_backend : config
(** No checkpoints at all (the uninstrumented C baseline). *)

val ratchet_backend : config
(** Naive spill checkpoints, up-to-three-checkpoint epilogs. *)

val wario_backend : config
(** Hitting-set spill checkpoints, single-checkpoint epilogs. *)

type stats = { spill_wars : int; spill_ckpts : int; spill_slots : int }

val run :
  ?spans:Wario_obs.Span.t ->
  ?block_weights:(string -> float) ->
  config:config ->
  Wario_ir.Ir.program ->
  Wario_machine.Isa.mprog * stats
(** [spans] (default {!Wario_obs.Span.disabled}) runs each per-function
    pass in a child span of the caller's open span — [backend.isel],
    [backend.webs], [backend.regalloc], [backend.stack_ckpt],
    [backend.frame], [backend.mliveness] — and adds the counters
    [functions], [spill_wars], [spill_ckpts] and [spill_slots] to the open
    span itself.  [block_weights] (mangled machine label -> estimated
    execution frequency, from {!Wario_analysis.Costmodel}) makes the
    stack-spill checkpoint inserter cost-guided. *)

(** Location-specific checkpoints (an extension the paper's §6 leaves
    open): bound the size of every idempotent region so that devices with
    very short on-times keep making forward progress.

    Runs after the checkpoint inserter; guarantees every CFG cycle contains
    a barrier and no barrier-free path exceeds roughly [max_instrs]
    estimated cycles. *)

type stats = { bounded_functions : int; extra_checkpoints : int }

val min_bound : int
(** The smallest usable [max_instrs] (4). *)

val run : max_instrs:int -> Wario_ir.Ir.program -> stats
(** @raise Invalid_argument when the bound is below {!min_bound} *)

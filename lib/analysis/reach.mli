(** Barrier-aware reachability between program points.

    A {e barrier} starts a new idempotent region: an explicit checkpoint or
    a call (every function is bracketed by entry/exit checkpoints).
    [reaches] underlies both the static WAR definition and checkpoint
    placement. *)

type t

val build : Cfg.t -> t

val reaches : t -> Wario_ir.Ir.point -> Wario_ir.Ir.point -> bool
(** Is there a CFG path from the first point to the second that executes no
    barrier? *)

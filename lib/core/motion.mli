(** Certifier-validated checkpoint motion.

    Generalises {!Elide}: instead of only deleting a redundant WAR
    checkpoint, move it to a cheaper block — hoist it out of a loop into
    a predecessor, or sink it into a successor past the hot part of its
    block — whenever the static idempotence certifier still proves the
    image WAR-free with the barrier at the new location.  A move is one
    {!Wario_certify.Certify.Session.recheck_insertion} at the
    destination (sound by monotonicity: adding a barrier only removes
    barrier-free paths) followed by one
    {!Wario_certify.Certify.Session.recheck_removal} at the source (the
    expensive direction); rejected removals are reverted and the
    destination barrier is taken back out when no other move needs it.
    Every decision ships with the certifier's verdict.

    After materialising kept moves into the machine program the pass
    re-runs {!Wario_backend.Mliveness.set_ckpt_masks} on every touched
    function: checkpoint masks are live-register sets at the {e old}
    location, and the emulator zeroes unmasked registers on restore, so
    stale masks would be a crash-consistency bug the WAR certifier
    cannot see.  The caller relinks. *)

type kind = Hoist | Sink

type move = {
  mv_func : string;
  mv_kind : kind;
  mv_cause : Wario_machine.Isa.ckpt_cause;
  mv_from : string;  (** source machine block label *)
  mv_to : string;  (** destination machine block label *)
  mv_from_pc : int;  (** pc of the source checkpoint (anchored image) *)
  mv_to_pc : int;  (** pc of the destination anchor (anchored image) *)
  mv_w_from : float;  (** model weight of the source block *)
  mv_w_to : float;  (** model weight of the destination block *)
  mv_applied : bool;
  mv_verdict : string;
      (** the certifier's verdict for this move: ["certified"] or the
          rejection's first reason *)
}

type stats = {
  proposed : int;
  applied : int;
  hoisted : int;
  sunk : int;
  rejected : int;
  moves : move list;  (** every proposed move, program order *)
}

val zero : stats
(** No move proposed: what [run] returns when it leaves the program
    untouched. *)

val run :
  weights:(string -> float) ->
  ?spans:Wario_obs.Span.t ->
  Wario_machine.Isa.mprog ->
  stats
(** Mutates the program in place; the caller relinks.  A live [spans]
    recorder gets one ["certify.recheck"] span per session recheck
    (op/pc/verdict attributes).  [weights] prices a
    {e mangled} machine block label (the same table the back end's
    weighted spill placement uses); a move is proposed only when the
    destination is strictly cheaper.  Images that do not certify
    beforehand are left untouched and get {!zero}.  Only
    [Middle_end_war] and [Back_end_war] checkpoints move; the entry/exit
    checkpoints of the calling convention never do. *)

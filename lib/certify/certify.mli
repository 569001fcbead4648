(** Static idempotence certifier: translation validation of WAR-freedom
    over the linked TM2 image.

    Independently of the compiler passes, reconstructs the machine-level
    CFG from the {!Wario_emulator.Image}, abstract-interprets every
    function over the {!Absdom} value domain (sp-relative offsets,
    register copies, base+offset NVM addresses), and judges every
    barrier-free load-to-store pair for address disjointness — the same
    WAR definition the middle end's [Pdg.wars] uses, applied to the final
    binary.  The result is either a certificate (all pairs discharged,
    with per-rule statistics and the structural obligations checked) or a
    rejection with concrete barrier-free path witnesses. *)

type obligation = { ob_name : string; ob_sites : int }

type stats = {
  s_functions : int;
  s_instrs : int;
  s_loads : int;
  s_stores : int;
  s_barriers : int;
  s_pairs : int;  (** barrier-free load->store pairs judged *)
  s_rules : (string * int) list;  (** disjointness rule -> times used *)
  s_obligations : obligation list;
}

type pair_witness = {
  w_load_pc : int;
  w_load_func : string;
  w_store_pc : int;
  w_store_func : string;
  w_path : int list;  (** barrier-free pc trace, load first, store last *)
  w_reason : string;
}

type reject_reason =
  | War_pair of pair_witness
  | Obligation_failed of { ob_name : string; ob_pc : int option; ob_msg : string }

type verdict = Certified of stats | Rejected of reject_reason list * stats

val certify : Wario_emulator.Image.t -> verdict
(** Prove every idempotent region of the image WAR-free, or produce
    witnesses.  Only instrumented builds can certify: the uninstrumented
    baseline fails the pop-conversion obligation by construction. *)

val first_unstable_pc : Wario_emulator.Image.t -> int option
(** Test-facing check of the abstract interpretation behind {!certify}:
    the lowest pc whose fixpoint state one more transfer from a
    predecessor, joined in, would change; [None] when every state is
    stable. *)

(** The one abstract interpretation of an image behind {!certify},
    checkpoint elision ({!Wario.Elide}) and checkpoint motion
    ({!Wario.Motion}): each analyses an image once, through a session,
    and then judges it whole ({!verdict}) or incrementally.

    The incremental half serves search loops that repeatedly remove one
    checkpoint from an already-certified image and re-validate.  The
    session caches the abstract interpretation of every function keyed by
    pc, so edits must keep pcs stable: overwrite the checkpoint in the
    image's code array with [Mov (r0, R r0)] — the certifier models
    [Ckpt] as a state no-op whose only effect is barrierhood, and that
    [Mov] has the same identity transfer, so the cached states stay exact
    — then call [recheck_removal] on that pc.  Reverting a rejected
    removal (writing the [Ckpt] back) needs no session maintenance for
    the same reason. *)
module Session : sig
  type t

  val create : Wario_emulator.Image.t -> t
  (** Full abstract interpretation of every function, plus the escape
      sweep and the reverse walk relation; the pair sweep is deferred. *)

  val verdict : t -> verdict
  (** The full judgement — structural obligations and every
      barrier-free load->store pair — over the session's cached states
      and escape sweep.  Equal to {!certify} of the session's image as it
      stands (stats and rejection lists included), at the cost of the
      pair sweep alone. *)

  val recheck_removal : t -> int -> verdict
  (** Re-validate after the barrier at [pc] was substituted away.  Every
      barrier-free path the removal adds passes through [pc], so only
      loads reaching [pc] barrier-free (by reverse BFS) are re-swept, and
      the one barrier-dependent structural obligation (pop conversion at
      [pc+1]) is re-checked; all other pairs and obligations keep their
      verdicts.  The verdict's [stats] are zeroed — this answers
      "does the image still certify?", not the full census. *)

  val recheck_insertion : t -> int -> verdict
  (** Validate a barrier newly substituted IN at [pc].  Insertion is
      certification-monotone: a new barrier only removes barrier-free
      paths (no pair verdict can flip to overlap) and cannot violate pop
      conversion (O1 wants an sp-increase {e preceded} by a checkpoint,
      and a checkpoint never writes sp), while the abstract states are
      unchanged (Ckpt and the Mov it replaced both have the identity
      transfer).  So this only checks that [pc] really holds a barrier,
      and rejects on API misuse.  Checkpoint {e motion} = one
      [recheck_insertion] at the new site + one {!recheck_removal} at the
      old site, in that order. *)
end

val pp_witness : Wario_emulator.Image.t -> pair_witness -> string
(** Render a witness as an assembly trace via [Isa]'s printer. *)

val report : Wario_emulator.Image.t -> verdict -> string
(** Human-readable certificate or rejection report. *)

(** Block-level control flow and liveness on machine code, shared by webs,
    register allocation and checkpoint live masks.  Blocks are indexed in
    layout order. *)

module Int_set = Wario_support.Util.Int_set

val succs : Wario_machine.Isa.mblock array -> int list array
(** Successor indices per block: in-function [B]/[Bc] targets, plus the
    next block unless the block ends in [B] or [Bx_lr]. *)

val liveness :
  succs:int list array ->
  regs:(Wario_machine.Isa.instr -> int list * int list) ->
  Wario_machine.Isa.mblock array ->
  Int_set.t array * Int_set.t array
(** Least fixpoint of backward liveness: [(live_in, live_out)] per block.
    [regs ins] is (registers read, registers written). *)

val vreg_def : Wario_machine.Isa.instr -> int option
(** The virtual register an instruction writes, if any. *)

val vregs_of_instr : Wario_machine.Isa.instr -> int list * int option
(** Virtual registers read and written; [Movc] reads and writes its
    destination. *)

val vreg_liveness :
  succs:int list array ->
  Wario_machine.Isa.mblock array ->
  Int_set.t array * Int_set.t array
(** {!liveness} of the virtual registers. *)

(** ELF-lite linking: flatten a machine program into an executable image
    with resolved branch targets and data-symbol addresses.

    Memory map: a reserved null page, the checkpoint double buffer at
    [ckpt_base], globals from [globals_base], and a descending stack from
    [stack_top]. *)

exception Link_error of string

val mem_size : int
val ckpt_base : int
val globals_base : int
val stack_top : int

type block = {
  func : string;  (** enclosing function *)
  label : string;  (** machine block label *)
  first : int;  (** the block's first pc *)
}

type t = {
  code : Wario_machine.Isa.instr array;
  target : int array;  (** resolved branch/call target per pc; -1 if none *)
  adr : int32 array;  (** resolved AdrData value per pc *)
  entry : int;  (** pc of [main] *)
  symbols : (string * int) list;
  blocks : block array;
      (** the non-empty machine blocks in layout order: a block owns the
          pcs from its [first] up to the next block's.  Names are kept
          per block, not per pc; read them through {!iter_blocks}. *)
  init_image : (int * int * int32) list;  (** (addr, bytes, value) *)
  text_bytes : int;
  data_bytes : int;
  frame_meta : (string * Wario_machine.Isa.frame_meta) list;
      (** per-function frame layout recorded by frame lowering, carried
          through the link for the static certifier *)
  symbol_sizes : (string * int) list;  (** data symbol -> object size *)
}

val link : Wario_machine.Isa.mprog -> t

val symbol : t -> string -> int
(** Address of a data symbol (tests and examples). *)

(** {2 Machine-CFG recovery}

    The certifier (lib/certify) reconstructs the machine-level control-flow
    graph of the linked image from these accessors. *)

val instr_count : t -> int

val succs : t -> int -> int list
(** Intra-procedural control successors of a pc: fall-through and resolved
    branch targets.  [Bl] falls through to its return continuation (the
    call edge is [target.(pc)]); [Bx_lr] and halting [Svc]s have none. *)

val iter_blocks : (block -> int -> unit) -> t -> unit
(** [iter_blocks f t] calls [f b stop] on every non-empty machine block in
    layout order; [b] owns the pcs [\[b.first, stop)].  A reader that needs
    a name per pc expands these ranges once. *)

val func_at : t -> int -> string
(** The function owning a pc, by a scan of the blocks: for rendering
    single pcs, not for walks over every pc. *)

val function_entry : t -> string -> int
(** Pc of the first instruction of a function. *)

val return_sites : t -> string -> int list
(** Return continuations of a function: the pc after every [Bl] targeting
    it.  Empty for [main] (its return halts the machine). *)

val frame_meta_of : t -> string -> Wario_machine.Isa.frame_meta option

val block_starts : t -> (string * int) list
(** Machine block labels in layout order with their start pcs (labels of
    empty blocks own no pc and are omitted) — the key set of the profiles
    {!Wario_analysis.Costmodel} consumes. *)

(* ELF-lite linking: flatten a machine program into an executable image.

   Code lives in its own (flash) space addressed by instruction index; data
   is laid out in the byte-addressable non-volatile main memory:

       0x00000 .. 0x0003f   reserved (catches null dereferences)
       0x00040 .. 0x0013f   checkpoint double buffer (see Emulator)
       0x00200 ..           globals (.data/.rodata)
       ...                  heapless gap
       mem_size - 8         initial stack pointer (descending)

   Branch targets and data symbols are resolved at link time into side
   arrays indexed by pc, so the emulator never does string lookups.
   Function and block names are kept per block, not per pc: [blocks]
   holds each non-empty machine block's function, label and first pc in
   layout order, and a block owns the pcs up to the next one's first.
   Readers that need a name per pc expand the ranges once
   ({!iter_blocks}). *)

module I = Wario_machine.Isa
module Util = Wario_support.Util

exception Link_error of string

let mem_size = 1 lsl 20 (* 1 MiB NVM *)
let ckpt_base = 0x40
let globals_base = 0x200
let stack_top = mem_size - 8

type block = { func : string; label : string; first : int }

type t = {
  code : I.instr array;
  target : int array;  (** resolved branch/call target per pc; -1 if none *)
  adr : int32 array;  (** resolved AdrData value per pc; 0 if none *)
  entry : int;  (** pc of [main] *)
  symbols : (string * int) list;  (** data symbol -> address *)
  blocks : block array;
      (** non-empty machine blocks in layout order; read through
          {!iter_blocks} *)
  init_image : (int * int * int32) list;  (** (addr, bytes, value) *)
  text_bytes : int;
  data_bytes : int;
  frame_meta : (string * I.frame_meta) list;
      (** per-function frame layout recorded by frame lowering, carried
          through the link for the static certifier *)
  symbol_sizes : (string * int) list;  (** data symbol -> object size *)
}

let link (p : I.mprog) : t =
  (* lay out data *)
  let next = ref globals_base in
  let symbols =
    List.map
      (fun (d : I.data) ->
        let a = Util.align_up !next (max 1 d.dalign) in
        next := a + d.dsize;
        (d.dname, a))
      p.mdata
  in
  let data_bytes = !next - globals_base in
  if !next >= stack_top - 65536 then raise (Link_error "data section too large");
  let init_image =
    List.concat_map
      (fun (d : I.data) ->
        let base = List.assoc d.dname symbols in
        List.map (fun (off, w, v) -> (base + off, w, v)) d.dinit)
      p.mdata
  in
  (* flatten code *)
  let instrs = ref [] and blocks = ref [] and labels = Hashtbl.create 256 in
  let counter = ref 0 in
  List.iter
    (fun (f : I.mfunc) ->
      List.iter
        (fun (b : I.mblock) ->
          if Hashtbl.mem labels b.I.mlabel then
            raise (Link_error ("duplicate label " ^ b.I.mlabel));
          Hashtbl.replace labels b.I.mlabel !counter;
          if b.I.mcode <> [] then
            blocks :=
              { func = f.I.mname; label = b.I.mlabel; first = !counter }
              :: !blocks;
          List.iter
            (fun ins ->
              instrs := ins :: !instrs;
              incr counter)
            b.I.mcode)
        f.I.mblocks)
    p.mfuncs;
  let code = Array.of_list (List.rev !instrs) in
  let resolve l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None -> raise (Link_error ("undefined label " ^ l))
  in
  let target =
    Array.map
      (function
        | I.B l | I.Bc (_, l) | I.Bl l -> resolve l
        | _ -> -1)
      code
  in
  let adr =
    Array.map
      (function
        | I.AdrData (_, s, off) -> (
            match List.assoc_opt s symbols with
            | Some a -> Int32.add (Int32.of_int a) off
            | None -> raise (Link_error ("undefined data symbol " ^ s)))
        | _ -> 0l)
      code
  in
  let entry =
    match Hashtbl.find_opt labels "main" with
    | Some i -> i
    | None -> raise (Link_error "no main function")
  in
  {
    code;
    target;
    adr;
    entry;
    symbols;
    blocks = Array.of_list (List.rev !blocks);
    init_image;
    text_bytes =
      Array.fold_left (fun a i -> a + Wario_machine.Encode.size_bytes i) 0 code;
    data_bytes;
    frame_meta =
      List.filter_map
        (fun (f : I.mfunc) ->
          match f.I.mframe with Some m -> Some (f.I.mname, m) | None -> None)
        p.mfuncs;
    symbol_sizes = List.map (fun (d : I.data) -> (d.dname, d.dsize)) p.mdata;
  }

(** Address of a data symbol (for tests and examples). *)
let symbol t name =
  match List.assoc_opt name t.symbols with
  | Some a -> a
  | None -> raise (Link_error ("unknown symbol " ^ name))

(* ------------------------------------------------------------------ *)
(* Machine-CFG recovery (for the static certifier)                      *)
(* ------------------------------------------------------------------ *)

let instr_count t = Array.length t.code

(** Intra-procedural control successors of [pc]: fall-through and resolved
    branch targets.  [Bl] falls through to the return continuation (the
    call edge is [target.(pc)], the return edges come from [return_sites]);
    [Bx_lr] and halting [Svc]s have none. *)
let succs t pc : int list =
  let n = Array.length t.code in
  let next = if pc + 1 < n then [ pc + 1 ] else [] in
  match t.code.(pc) with
  | I.B _ -> [ t.target.(pc) ]
  | I.Bc _ -> t.target.(pc) :: next
  | I.Bl _ -> next
  | I.Bx_lr -> []
  | I.Svc 0 -> next
  | I.Svc _ -> []
  | _ -> next

(** [iter_blocks f t] calls [f b stop] on every non-empty machine block in
    layout order; [b] owns the pcs [b.first, stop). *)
let iter_blocks f t =
  let nb = Array.length t.blocks in
  Array.iteri
    (fun i b ->
      f b (if i + 1 < nb then t.blocks.(i + 1).first else Array.length t.code))
    t.blocks

(* The pcs [lo, stop) of [fname]: its blocks are laid out contiguously *)
let function_range t fname =
  let lo = ref (-1) and stop = ref (-1) in
  iter_blocks
    (fun b s ->
      if b.func = fname then begin
        if !lo < 0 then lo := b.first;
        stop := s
      end)
    t;
  if !lo < 0 then raise (Link_error ("no function " ^ fname));
  (!lo, !stop)

(** The pc of the first instruction of [fname]. *)
let function_entry t fname : int = fst (function_range t fname)

(** Return continuations of [fname]: the pc after every [Bl] that targets
    it.  [main] has none (its return halts the machine). *)
let return_sites t fname : int list =
  let lo, stop = function_range t fname in
  let acc = ref [] in
  Array.iteri
    (fun pc ins ->
      match ins with
      | I.Bl _
        when t.target.(pc) >= lo && t.target.(pc) < stop
             && pc + 1 < Array.length t.code ->
          acc := (pc + 1) :: !acc
      | _ -> ())
    t.code;
  List.rev !acc

(** The function owning [pc], by a scan of the blocks: for rendering
    single pcs, not for walks over every pc. *)
let func_at t pc : string =
  Array.fold_left (fun f b -> if b.first <= pc then b.func else f) "" t.blocks

let frame_meta_of t fname : I.frame_meta option =
  List.assoc_opt fname t.frame_meta

(** Machine block labels in layout order with their start pcs (labels of
    empty blocks own no pc and are omitted).  This is the key set of the
    profiles the cost model consumes: a pilot run's per-pc execution counts
    fold to per-block entry counts by sampling each start pc. *)
let block_starts t : (string * int) list =
  Array.fold_right (fun b acc -> (b.label, b.first) :: acc) t.blocks []

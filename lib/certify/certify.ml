(* Static idempotence certifier: translation validation of WAR-freedom over
   the linked TM2 image (paper §5.1.1 made static; correctness condition
   from Surbatovich et al.: no WAR on non-volatile memory inside any
   idempotent region).

   The certifier is independent of the compiler passes whose output it
   checks: it reconstructs the machine-level CFG from [Image], runs a
   context-insensitive interprocedural abstract interpretation per function
   (domain in [Absdom]), and then, for every load, walks the barrier-free
   machine CFG forward — through calls and returns, carrying an sp
   translation — judging every reachable store for address disjointness.
   The WAR definition matches the middle end's [Pdg.wars] exactly: a
   may-alias load/store pair with a barrier-free load-to-store path.

   Verdict: either a certificate (every pair discharged, with the rule used
   and the structural obligations checked) or a rejection carrying concrete
   path witnesses from the offending load to the store.

   Stated assumptions (printed in the certificate):
   - A1  the stack never grows into the data section (no stack overflow);
   - A2  pointer arithmetic stays within the provenance of its base object
         (the same C-model assumption the middle-end [Alias] makes).

   Structural obligations (checked, not assumed):
   - O1  sp is statically tracked: every sp write is a push, a frame
         [sub], or a pop-converted [add] immediately preceded by a
         checkpoint (the Idempotent Stack Pop Converter discipline that
         also protects against ISR pushes below sp);
   - O2  the only frame addresses ever computed ([add rd, sp, #k]) point
         into the IR slot area — spill and saved-register cells are
         machine-private, so store-to-load forwarding over them is sound;
   - O3  the checkpoint double buffer lies below the data section. *)

module I = Wario_machine.Isa
module Img = Wario_emulator.Image
module Util = Wario_support.Util
module D = Absdom

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Per-function context                                                 *)
(* ------------------------------------------------------------------ *)

(* All frame geometry below is in bytes relative to the *entry-time* sp of
   the function (before the prolog push), negative offsets growing down:

       [caller ...]                          offset >= 0
       [saved regs + lr]                     [-push_bytes, 0)
       [IR slot area]
       [spill slots]                         frame_lo = -(push_bytes+frame) *)
type fctx = {
  fname : string;
  lo : int;
  hi : int;  (** pc range [lo, hi] inclusive *)
  frame_lo : int;
  slot_ranges : (int * int * int) list;  (** slot id, rel-entry offset, size *)
  spill_range : int * int;  (** rel-entry [lo, hi) *)
  saved_range : int * int;
  params : int;
  returns : bool;
  has_meta : bool;
}

let build_fctxs (img : Img.t) : fctx list * (int -> fctx) =
  let n = Img.instr_count img in
  let ranges = ref [] in
  let cur = ref None in
  for pc = 0 to n - 1 do
    let f = img.func_of_pc.(pc) in
    match !cur with
    | Some (g, lo) when g = f -> ignore lo
    | Some (g, lo) ->
        ranges := (g, lo, pc - 1) :: !ranges;
        cur := Some (f, pc)
    | None -> cur := Some (f, pc)
  done;
  (match !cur with Some (g, lo) -> ranges := (g, lo, n - 1) :: !ranges | None -> ());
  let ctxs =
    List.rev_map
      (fun (f, lo, hi) ->
        match Img.frame_meta_of img f with
        | Some m ->
            let push_bytes = 4 * List.length m.I.fm_saved in
            let frame_lo = -(push_bytes + m.I.fm_frame_bytes) in
            {
              fname = f;
              lo;
              hi;
              frame_lo;
              slot_ranges =
                List.map
                  (fun (id, off, sz) -> (id, frame_lo + off, sz))
                  m.I.fm_slots;
              spill_range = (frame_lo, frame_lo + m.I.fm_spill_bytes);
              saved_range = (-push_bytes, 0);
              params = m.I.fm_params;
              returns = m.I.fm_returns;
              has_meta = true;
            }
        | None ->
            {
              fname = f;
              lo;
              hi;
              frame_lo = 0;
              slot_ranges = [];
              spill_range = (0, 0);
              saved_range = (0, 0);
              params = 4;
              returns = true;
              has_meta = false;
            })
      !ranges
  in
  let by_pc = Array.make (max n 1) (List.hd ctxs) in
  List.iter (fun c -> for pc = c.lo to c.hi do by_pc.(pc) <- c done) ctxs;
  (ctxs, fun pc -> by_pc.(pc))

let slot_of_off ctx o =
  List.find_map
    (fun (id, rel, sz) -> if o >= rel && o < rel + sz then Some (id, o - rel) else None)
    ctx.slot_ranges

let in_range (lo, hi) o n = o >= lo && o + n <= hi

let in_cell_area ctx o n = in_range ctx.spill_range o n || in_range ctx.saved_range o n

(* ------------------------------------------------------------------ *)
(* Abstract interpretation                                              *)
(* ------------------------------------------------------------------ *)

type st = { regs : D.aval array; cells : D.aval Util.Int_map.t }

let entry_state () =
  let regs = Array.make 16 D.unknown in
  regs.(I.sp) <- D.Exact (D.of_base D.Sp);
  { regs; cells = Util.Int_map.empty }

let join_st ~slot_of_off a b =
  let regs = Array.init 16 (fun i -> D.join_aval ~slot_of_off a.regs.(i) b.regs.(i)) in
  let cells =
    Util.Int_map.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y -> Some (D.join_aval ~slot_of_off x y)
        | _ -> None)
      a.cells b.cells
  in
  { regs; cells }

let equal_st a b =
  (try
     Array.iter2 (fun x y -> if not (D.equal_aval x y) then raise Exit) a.regs b.regs;
     true
   with Exit -> false)
  && Util.Int_map.equal D.equal_aval a.cells b.cells

let eval_op2 st = function
  | I.R r -> st.regs.(r)
  | I.I k -> D.Exact (D.const (Int32.to_int k))

(** Entry-sp-relative byte offset, if the value is an exact stack address. *)
let stack_off = function
  | D.Exact e -> ( match D.place_of e with D.P_stack o -> Some o | _ -> None)
  | _ -> None

let set_reg st r v =
  let regs = Array.copy st.regs in
  regs.(r) <- v;
  { st with regs }

(** Effect of a store through [addr] on the tracked stack cells. *)
let store_cells ~so ctx st addr data bytes =
  match stack_off addr with
  | Some o ->
      if bytes = 4 && o mod 4 = 0 && in_cell_area ctx o 4 then
        { st with cells = Util.Int_map.add o data st.cells }
      else
        (* sub-word or non-cell stack store: kill overlapped cells *)
        {
          st with
          cells =
            Util.Int_map.filter
              (fun co _ -> co + 4 <= o || co >= o + bytes)
              st.cells;
        }
  | None ->
      let p = D.prov_of ~slot_of_off:so addr in
      (* A store that may target the frame through an untracked pointer
         invalidates every forwarded cell (assumption A2 keeps slot-based
         pointers inside their slot, so those cannot reach the cells). *)
      if p.D.stack || p.D.unknown then { st with cells = Util.Int_map.empty }
      else st

let transfer (ctx : fctx) (img : Img.t) (pc : int) (st : st) : st =
  let so = slot_of_off ctx in
  match img.code.(pc) with
  | I.Alu (op, rd, rn, o2) ->
      let a = st.regs.(rn) and b = eval_op2 st o2 in
      let v =
        match op with
        | I.ADD -> D.av_add ~slot_of_off:so a b
        | I.SUB -> D.av_sub ~slot_of_off:so a b
        | I.RSB -> D.av_sub ~slot_of_off:so b a
        | I.MUL -> (
            match (a, b) with
            | D.Exact e1, D.Exact e2 -> (
                match (D.is_const e1, D.is_const e2) with
                | _, Some k -> D.Exact (D.mul_const e1 k)
                | Some k, _ -> D.Exact (D.mul_const e2 k)
                | None, None -> D.av_blur ~slot_of_off:so a b)
            | _ -> D.av_blur ~slot_of_off:so a b)
        | I.LSL -> (
            match (a, o2) with
            | D.Exact e, I.I k when Int32.to_int k >= 0 && Int32.to_int k < 31 ->
                D.Exact (D.mul_const e (1 lsl Int32.to_int k))
            | _ -> D.av_blur ~slot_of_off:so a b)
        | _ -> D.av_blur ~slot_of_off:so a b
      in
      set_reg st rd v
  | I.Mov (rd, o2) -> set_reg st rd (eval_op2 st o2)
  | I.Movw32 (rd, v) -> set_reg st rd (D.Exact (D.const (Int32.to_int v)))
  | I.Movc (_, rd, o2) ->
      set_reg st rd (D.join_aval ~slot_of_off:so st.regs.(rd) (eval_op2 st o2))
  | I.AdrData (rd, s, off) ->
      set_reg st rd (D.Exact (D.add_const (D.of_base (D.Glob s)) (Int32.to_int off)))
  | I.Ldr (w, rd, rn, off) ->
      let addr =
        D.av_add ~slot_of_off:so st.regs.(rn) (D.Exact (D.const (Int32.to_int off)))
      in
      let v =
        match stack_off addr with
        | Some o when I.bytes_of_width w = 4 && o mod 4 = 0 -> (
            match Util.Int_map.find_opt o st.cells with
            | Some v -> v
            | None -> D.unknown)
        | _ -> D.unknown
      in
      set_reg st rd v
  | I.LdrR (_, rd, _, _) -> set_reg st rd D.unknown
  | I.Str (w, rd, rn, off) ->
      let addr =
        D.av_add ~slot_of_off:so st.regs.(rn) (D.Exact (D.const (Int32.to_int off)))
      in
      store_cells ~so ctx st addr st.regs.(rd) (I.bytes_of_width w)
  | I.StrR (w, rd, rn, rm) ->
      let addr = D.av_add ~slot_of_off:so st.regs.(rn) st.regs.(rm) in
      store_cells ~so ctx st addr st.regs.(rd) (I.bytes_of_width w)
  | I.Push rs -> (
      let n = List.length rs in
      match stack_off st.regs.(I.sp) with
      | Some c ->
          let cells = ref st.cells in
          List.iteri
            (fun i r ->
              let o = c - (4 * n) + (4 * i) in
              if in_cell_area ctx o 4 then cells := Util.Int_map.add o st.regs.(r) !cells)
            rs;
          let st = { st with cells = !cells } in
          set_reg st I.sp (D.Exact (D.add_const (D.of_base D.Sp) (c - (4 * n))))
      | None ->
          (* sp lost: flagged by obligation O1; stay conservative *)
          let st = { st with cells = Util.Int_map.empty } in
          set_reg st I.sp D.unknown)
  | I.Bl _ ->
      (* scratch registers and lr are clobbered by the callee; callee-saved
         registers and sp survive; tracked cells at or above the current sp
         are out of the callee's reach. *)
      let regs = Array.copy st.regs in
      List.iter (fun r -> regs.(r) <- D.unknown) [ 0; 1; 2; 3; 11; 12; I.lr ];
      let cells =
        match stack_off st.regs.(I.sp) with
        | Some c -> Util.Int_map.filter (fun o _ -> o >= c) st.cells
        | None -> Util.Int_map.empty
      in
      { regs; cells }
  | I.Cmp _ | I.B _ | I.Bc _ | I.Bx_lr | I.Ckpt _ | I.Cpsid | I.Cpsie | I.Svc _ -> st
  | I.FrameAddr (rd, _) -> set_reg st rd (D.Ptr { D.bot_prov with D.stack = true })
  | I.SpillLd (rd, _) -> set_reg st rd D.unknown
  | I.SpillSt _ -> { st with cells = Util.Int_map.empty }

(** Context-insensitive fixpoint over one function's pc range. *)
let analyse_function (img : Img.t) (ctx : fctx) (inp : st option array) : unit =
  let so = slot_of_off ctx in
  inp.(ctx.lo) <- Some (entry_state ());
  let work = Queue.create () in
  Queue.add ctx.lo work;
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    match inp.(pc) with
    | None -> ()
    | Some st ->
        let out = transfer ctx img pc st in
        List.iter
          (fun q ->
            if q >= ctx.lo && q <= ctx.hi then
              match inp.(q) with
              | None ->
                  inp.(q) <- Some out;
                  Queue.add q work
              | Some old ->
                  let j = join_st ~slot_of_off:so old out in
                  if not (equal_st j old) then (
                    inp.(q) <- Some j;
                    Queue.add q work))
          (Img.succs img pc)
  done

(* ------------------------------------------------------------------ *)
(* Escape analysis (post-fixpoint sweep, mirrors [Alias]'s sources)      *)
(* ------------------------------------------------------------------ *)

type esc = {
  mutable e_globs : Util.Str_set.t;
  mutable e_slots : (string * int) list;
  mutable e_frames : Util.Str_set.t;  (** imprecise frame pointer escaped *)
}

let mark_escape esc fname (p : D.prov) =
  D.Tset.iter
    (fun (t, _) ->
      match t with
      | D.T_glob g -> esc.e_globs <- Util.Str_set.add g esc.e_globs
      | D.T_slot s ->
          if not (List.mem (fname, s) esc.e_slots) then
            esc.e_slots <- (fname, s) :: esc.e_slots)
    p.D.targets;
  if p.D.stack then esc.e_frames <- Util.Str_set.add fname esc.e_frames

let sweep_escapes (img : Img.t) (ctx_of : int -> fctx) (inp : st option array) : esc =
  let esc = { e_globs = Util.Str_set.empty; e_slots = []; e_frames = Util.Str_set.empty } in
  Array.iteri
    (fun pc ins ->
      match inp.(pc) with
      | None -> ()
      | Some st -> (
          let ctx = ctx_of pc in
          let so = slot_of_off ctx in
          let pv r = D.prov_of ~slot_of_off:so st.regs.(r) in
          match ins with
          | I.Bl _ ->
              (* argument registers escape into the callee *)
              let callee = ctx_of img.Img.target.(pc) in
              for r = 0 to min 3 (callee.params - 1) do
                mark_escape esc ctx.fname (pv r)
              done
          | I.Str (_, rd, rn, off) ->
              (* stored data escapes, except into the machine-private spill
                 and saved-register cells (no IR-level store happens there) *)
              let addr =
                D.av_add ~slot_of_off:so st.regs.(rn)
                  (D.Exact (D.const (Int32.to_int off)))
              in
              let private_cell =
                match stack_off addr with
                | Some o -> in_cell_area ctx o 1
                | None -> false
              in
              if not private_cell then mark_escape esc ctx.fname (pv rd)
          | I.StrR (_, rd, _, _) -> mark_escape esc ctx.fname (pv rd)
          | I.Bx_lr -> if ctx.returns then mark_escape esc ctx.fname (pv 0)
          | _ -> ()))
    img.Img.code;
  esc

(* ------------------------------------------------------------------ *)
(* Structural obligations                                               *)
(* ------------------------------------------------------------------ *)

let is_barrier = function I.Ckpt _ -> true | I.Svc 0 -> true | _ -> false

let check_obligations (img : Img.t) (ctx_of : int -> fctx) (inp : st option array) :
    reject_reason list * obligation list =
  let fails = ref [] in
  let fail name pc msg =
    fails := Obligation_failed { ob_name = name; ob_pc = pc; ob_msg = msg } :: !fails
  in
  let n_o1 = ref 0 and n_o2 = ref 0 in
  Array.iteri
    (fun pc ins ->
      let ctx = ctx_of pc in
      (* O1: sp writes are structurally analysable, and every sp increase
         (a pop) sits immediately after a checkpoint (pop conversion) *)
      (match ins with
      | I.Alu (I.SUB, rd, rn, I.I _) when rd = I.sp ->
          incr n_o1;
          if rn <> I.sp then fail "sp-discipline" (Some pc) "sub sp from non-sp source"
      | I.Alu (I.ADD, rd, rn, I.I _) when rd = I.sp ->
          incr n_o1;
          if rn <> I.sp then fail "sp-discipline" (Some pc) "add sp from non-sp source"
          else if not (pc > ctx.lo && is_barrier img.Img.code.(pc - 1)) then
            fail "sp-discipline" (Some pc)
              "stack-pointer increase not immediately preceded by a checkpoint \
               (pop conversion)"
      | I.Push _ -> incr n_o1
      | ins -> (
          match I.writes ins with
          | Some rd when rd = I.sp ->
              fail "sp-discipline" (Some pc) "untracked write to sp"
          | _ -> ()));
      (* O1b: sp must remain an exact entry-relative offset wherever its
         value matters (pushes, sp adjustments, calls) *)
      (match ins with
      | I.Push _ | I.Bl _ | I.Alu (_, 13, _, _) -> (
          match inp.(pc) with
          | Some st when stack_off st.regs.(I.sp) = None ->
              fail "sp-discipline" (Some pc) "sp not statically tracked here"
          | _ -> ())
      | _ -> ());
      (* O2: computed frame addresses stay inside the IR slot area *)
      match ins with
      | I.Alu (I.ADD, rd, rn, op2) when rd <> I.sp && rn = I.sp -> (
          incr n_o2;
          match op2 with
          | I.I k ->
              let off = ctx.frame_lo + Int32.to_int k in
              if
                not
                  (List.exists
                     (fun (_, rel, sz) -> off >= rel && off < rel + sz)
                     ctx.slot_ranges)
              then
                fail "frame-address" (Some pc)
                  (Printf.sprintf
                     "frame address sp+%ld does not point into the slot area" k)
          | I.R _ -> fail "frame-address" (Some pc) "register-indexed frame address")
      | _ -> ())
    img.Img.code;
  if Img.globals_base < Img.ckpt_base + 0x100 then
    fail "layout" None "checkpoint buffer overlaps the data section";
  ( List.rev !fails,
    [
      { ob_name = "sp-discipline (O1)"; ob_sites = !n_o1 };
      { ob_name = "frame-address (O2)"; ob_sites = !n_o2 };
      { ob_name = "ckpt-buffer layout (O3)"; ob_sites = 1 };
    ] )

(* ------------------------------------------------------------------ *)
(* Pair judgment                                                        *)
(* ------------------------------------------------------------------ *)

(** One side of a pair, normalised: either an exact place in the *load*
    function's entry-sp coordinates, or a provenance relative to [func]. *)
type side = SE of D.place | SP of string * D.prov

let normalise ~(ctx : fctx) (v : D.aval) : side =
  match v with
  | D.Exact e -> (
      match D.place_of e with
      | D.P_messy -> SP (ctx.fname, D.prov_of_expr ~slot_of_off:(slot_of_off ctx) e)
      | p -> SE p)
  | D.Ptr p -> if D.is_bot_prov p then SP (ctx.fname, D.unknown_prov) else SP (ctx.fname, p)

type judgment = { j_overlap : bool; j_rule : string }

let ok rule = { j_overlap = false; j_rule = rule }
let bad reason = { j_overlap = true; j_rule = reason }

let judge (img : Img.t) (ctx_by_name : string -> fctx) (esc : esc)
    ~(ctxl : fctx) ~(crossed_return : bool) (sl : side) (nl : int) (ss : side)
    (ns : int) : judgment =
  let sym g = List.assoc_opt g img.Img.symbols in
  let sym_size g = Option.value ~default:1 (List.assoc_opt g img.Img.symbol_sizes) in
  (* absolute data interval of an exact non-stack place *)
  let abs_of = function
    | D.P_abs a -> Some a
    | D.P_glob (g, k) -> Option.map (fun a -> a + k) (sym g)
    | _ -> None
  in
  let ivl_overlap (a, n) (b, m) = a < b + m && b < a + n in
  (* absolute intervals a glob-target may occupy *)
  let glob_tgt_ivl g off n =
    match sym g with
    | None -> None
    | Some a -> (
        match off with Some k -> Some (a + k, n) | None -> Some (a, sym_size g))
  in
  let prov_globs p =
    D.Tset.elements p.D.targets
    |> List.filter_map (function D.T_glob g, o -> Some (g, o) | _ -> None)
  in
  let prov_slots p =
    D.Tset.elements p.D.targets
    |> List.filter_map (function D.T_slot s, o -> Some (s, o) | _ -> None)
  in
  (* rel-entry intervals of the escaped slots of [f] *)
  let escaped_slot_ivls (f : fctx) =
    List.filter_map
      (fun (g, s) ->
        if g = f.fname then
          List.find_map
            (fun (id, rel, sz) -> if id = s then Some (rel, sz) else None)
            f.slot_ranges
        else None)
      esc.e_slots
    @ if Util.Str_set.mem f.fname esc.e_frames then [ (f.frame_lo, -f.frame_lo) ] else []
  in
  let has_escaped_target (f : string) (p : D.prov) =
    List.exists (fun (g, _) -> Util.Str_set.mem g esc.e_globs) (prov_globs p)
    || List.exists (fun (s, _) -> List.mem (f, s) esc.e_slots) (prov_slots p)
    || (p.D.stack
       && ((not (escaped_slot_ivls (ctx_by_name f) = []))
          || Util.Str_set.mem f esc.e_frames))
  in
  (* does the absolute data interval reach any escaped global? *)
  let ivl_reaches_escaped ivl =
    Util.Str_set.exists
      (fun g ->
        match glob_tgt_ivl g None 1 with
        | Some gi -> ivl_overlap ivl gi
        | None -> false)
      esc.e_globs
  in
  (* [pe]: an exact place (always in the load function's coordinates) of
     width [ne]; [p]: a provenance relative to [pf] of width [np]. *)
  let exact_vs_prov pe ne pf p np = (
      match abs_of pe with
      | Some a ->
          (* a data address: only glob provenance or escape can reach it *)
          let ivl = (a, ne) in
          if p.D.unknown && ivl_reaches_escaped ivl then
            bad "may alias an escaped object"
          else if
            List.exists
              (fun (g, o) ->
                match glob_tgt_ivl g o np with
                | Some gi -> ivl_overlap ivl gi
                | None -> false)
              (prov_globs p)
          then bad "overlapping global provenance"
          else if p.D.unknown then ok "not-escaped"
          else if prov_globs p <> [] then ok "distinct-objects"
          else ok "stack-vs-data"
      | None -> (
          match pe with
          | D.P_stack o ->
              let own = ctxl in
              let pe_ivl = (o, ne) in
              let frame_based =
                prov_slots p <> [] || p.D.stack
              in
              if crossed_return && (frame_based || p.D.unknown) then
                bad "frame reasoning unsound across a return on this path"
              else if
                (* provenance of the same function's frame *)
                pf = own.fname
                && (List.exists
                      (fun (s, off) ->
                        match
                          List.find_map
                            (fun (id, rel, sz) ->
                              if id = s then Some (rel, sz) else None)
                            own.slot_ranges
                        with
                        | None -> true (* unknown slot: conservative *)
                        | Some (rel, sz) ->
                            let si =
                              match off with
                              | Some k -> (rel + k, np)
                              | None -> (rel, sz)
                            in
                            ivl_overlap pe_ivl si)
                      (prov_slots p)
                   || (p.D.stack && ivl_overlap pe_ivl (own.frame_lo, -own.frame_lo)))
              then bad "overlapping frame provenance"
              else if
                pf <> own.fname && frame_based
                && o < own.frame_lo
                (* below our frame lives the callees' stack *)
              then bad "may reach a callee frame"
              else if
                p.D.unknown
                &&
                if o >= own.frame_lo && o < 0 then
                  List.exists (fun ivl -> ivl_overlap pe_ivl ivl)
                    (escaped_slot_ivls own)
                else true (* outside own frame: anything escaped *)
              then bad "may alias an escaped object"
              else if p.D.unknown then ok "frame-private"
              else if frame_based then
                if pf = own.fname then ok "distinct-slots" else ok "distinct-frames"
              else ok "stack-vs-data"
          | _ -> bad "unresolved exact address"))
  in
  match (sl, ss) with
  (* -- both exact (store side already in load coordinates) --------- *)
  | SE pa, SE pb -> (
      match (abs_of pa, abs_of pb) with
      | Some a, Some b ->
          if ivl_overlap (a, nl) (b, ns) then bad "overlapping data intervals"
          else ok "exact-interval"
      | _ -> (
          match (pa, pb) with
          | D.P_stack o1, D.P_stack o2 ->
              if ivl_overlap (o1, nl) (o2, ns) then bad "overlapping stack intervals"
              else ok "stack-interval"
          | _ -> ok "stack-vs-data"))
  (* -- exact vs provenance ---------------------------------------- *)
  | SE pe, SP (pf, p) -> exact_vs_prov pe nl pf p ns
  | SP (pf, p), SE pe -> exact_vs_prov pe ns pf p nl
  (* -- both provenance -------------------------------------------- *)
  | SP (f1, p1), SP (f2, p2) ->
      if p1.D.unknown && p2.D.unknown then bad "two untracked pointers"
      else if p1.D.unknown && has_escaped_target f2 p2 then
        bad "may alias an escaped object"
      else if p2.D.unknown && has_escaped_target f1 p1 then
        bad "may alias an escaped object"
      else if
        List.exists
          (fun (g1, o1) ->
            List.exists
              (fun (g2, o2) ->
                g1 = g2
                &&
                match (o1, o2) with
                | Some k1, Some k2 -> ivl_overlap (k1, nl) (k2, ns)
                | _ -> true)
              (prov_globs p2))
          (prov_globs p1)
      then bad "overlapping global provenance"
      else if
        crossed_return
        && (prov_slots p1 <> [] || p1.D.stack)
        && (prov_slots p2 <> [] || p2.D.stack)
      then bad "frame reasoning unsound across a return on this path"
      else if
        f1 = f2
        && (List.exists
              (fun (s1, o1) ->
                List.exists
                  (fun (s2, o2) ->
                    s1 = s2
                    &&
                    match (o1, o2) with
                    | Some k1, Some k2 -> ivl_overlap (k1, nl) (k2, ns)
                    | _ -> true)
                  (prov_slots p2))
              (prov_slots p1)
           || (p1.D.stack && (p2.D.stack || prov_slots p2 <> []))
           || (p2.D.stack && prov_slots p1 <> []))
      then bad "overlapping frame provenance"
      else if p1.D.unknown || p2.D.unknown then ok "not-escaped"
      else if prov_slots p1 <> [] || prov_slots p2 <> [] then
        if f1 = f2 then ok "distinct-slots" else ok "distinct-frames"
      else ok "distinct-objects"

(* ------------------------------------------------------------------ *)
(* Barrier-free region walk                                             *)
(* ------------------------------------------------------------------ *)

(** Per-visited-pc walk state: sp translation [t] such that
    Sp(func(pc)) = Sp(load func) + t, whether any return was crossed on
    some path here, and the BFS parent for witness extraction. *)
type visit = { mutable v_t : int option; mutable v_cr : bool; v_parent : int }

let merge_t a b = match (a, b) with Some x, Some y when x = y -> a | _ -> None

(** sp offset (rel entry) at [pc], if tracked. *)
let sp_at (inp : st option array) pc =
  match inp.(pc) with None -> None | Some st -> stack_off st.regs.(I.sp)

let is_store = function I.Str _ | I.StrR _ | I.Push _ -> true | _ -> false

let is_load = function I.Ldr _ | I.LdrR _ -> true | _ -> false

(** Walk the barrier-free CFG forward from the load at [pc_l]; call [judge]
    on every store encountered (again when its walk state weakens).
    Returns the visit table for witness extraction. *)
let walk_region (img : Img.t) (ctx_of : int -> fctx) (inp : st option array)
    ~(pc_l : int) ~(on_store : int -> int option -> bool -> (int, visit) Hashtbl.t -> unit) :
    unit =
  let visits : (int, visit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push parent q t cr =
    match Hashtbl.find_opt visits q with
    | None ->
        Hashtbl.replace visits q { v_t = t; v_cr = cr; v_parent = parent };
        Queue.add q queue;
        if is_store img.Img.code.(q) then on_store q t cr visits
    | Some v ->
        let t' = merge_t v.v_t t and cr' = v.v_cr || cr in
        if t' <> v.v_t || cr' <> v.v_cr then (
          v.v_t <- t';
          v.v_cr <- cr';
          Queue.add q queue;
          if is_store img.Img.code.(q) then on_store q t' cr' visits)
  in
  (* seed with the load's successors (translation 0: same frame) *)
  List.iter (fun q -> push pc_l q (Some 0) false) (Img.succs img pc_l);
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    let v = Hashtbl.find visits q in
    let t = v.v_t and cr = v.v_cr in
    if not (is_barrier img.Img.code.(q)) then
      match img.Img.code.(q) with
      | I.Bl _ ->
          (* into the callee: Sp(callee) = current sp at the call *)
          let t' =
            match (t, sp_at inp q) with
            | Some t, Some s -> Some (t + s)
            | _ -> None
          in
          push q img.Img.target.(q) t' cr
      | I.Bx_lr ->
          (* back to every return site of this function (context-free) *)
          let f = (ctx_of q).fname in
          List.iter
            (fun r ->
              let t' =
                match (t, sp_at inp (r - 1)) with
                | Some t, Some s -> Some (t - s)
                | _ -> None
              in
              push q r t' true)
            (Img.return_sites img f)
      | _ -> List.iter (fun s -> push q s t cr) (Img.succs img q)
  done

let witness_path visits ~pc_l ~pc_s =
  let rec go acc pc =
    if pc = pc_l then pc :: acc
    else
      match Hashtbl.find_opt visits pc with
      | Some v when v.v_parent <> pc -> go (pc :: acc) v.v_parent
      | _ -> pc :: acc
  in
  go [] pc_s

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(** Address and width of the access performed by [pc], in the coordinates
    of its own function, from the analysed entry state. *)
let access_of (img : Img.t) (ctx : fctx) (inp : st option array) pc :
    (D.aval * int) option =
  let so = slot_of_off ctx in
  let st =
    match inp.(pc) with Some st -> st | None -> entry_state ()
    (* unreachable-in-analysis pc: conservative arbitrary state *)
  in
  let c k = D.Exact (D.const (Int32.to_int k)) in
  match img.Img.code.(pc) with
  | I.Ldr (w, _, rn, off) | I.Str (w, _, rn, off) ->
      Some (D.av_add ~slot_of_off:so st.regs.(rn) (c off), I.bytes_of_width w)
  | I.LdrR (w, _, rn, rm) | I.StrR (w, _, rn, rm) ->
      Some (D.av_add ~slot_of_off:so st.regs.(rn) st.regs.(rm), I.bytes_of_width w)
  | I.Push rs -> (
      let n = 4 * List.length rs in
      match stack_off st.regs.(I.sp) with
      | Some c -> Some (D.Exact (D.add_const (D.of_base D.Sp) (c - n)), n)
      | None -> Some (D.Ptr { D.unknown_prov with D.stack = true }, n))
  | _ -> None

(** Rebase a store-side address from its own function's coordinates into
    the load function's, given the walk's sp translation. *)
let rebase ~(ctxs : fctx) (t : int option) (v : D.aval) : side =
  match v with
  | D.Exact e -> (
      match D.place_of e with
      | D.P_stack _ | D.P_messy when Absdom.Bmap.mem D.Sp e.D.terms -> (
          match t with
          | Some d ->
              let coeff = Absdom.Bmap.find D.Sp e.D.terms in
              normalise ~ctx:ctxs (D.Exact (D.add_const e (coeff * d)))
          | None ->
              SP (ctxs.fname, D.prov_of_expr ~slot_of_off:(slot_of_off ctxs) e))
      | _ -> normalise ~ctx:ctxs v)
  | _ -> normalise ~ctx:ctxs v

let max_witnesses = 50

(** Judge every barrier-free pair whose load is [pc_l]: walk the region,
    and per store event call [on_judged pc_s jo visits] — [jo] is [None]
    when the store's access is untracked (counted but not judged). *)
let sweep_load (img : Img.t) (ctx_of : int -> fctx)
    (ctx_by_name : string -> fctx) (esc : esc) (inp : st option array)
    ~on_judged (pc_l : int) : unit =
  let ctxl = ctx_of pc_l in
  match access_of img ctxl inp pc_l with
  | None -> ()
  | Some (al, nl) ->
      let sl = normalise ~ctx:ctxl al in
      walk_region img ctx_of inp ~pc_l ~on_store:(fun pc_s t cr visits ->
          let ctxs_ = ctx_of pc_s in
          match access_of img ctxs_ inp pc_s with
          | None -> on_judged pc_s None visits
          | Some (as_, ns) ->
              let ss = rebase ~ctxs:ctxs_ t as_ in
              let j =
                judge img ctx_by_name esc ~ctxl ~crossed_return:cr sl nl ss ns
              in
              on_judged pc_s (Some j) visits)

(* One abstract interpretation of a linked image: the per-function
   contexts, the fixpoint state at every pc, and the escape sweep over
   those states.  [certify] judges it once; a [Session] keeps it for
   rechecks and can judge it whole ([Session.verdict]). *)
type analysis = {
  an_img : Img.t;
  an_ctxs : fctx list;
  an_ctx_of : int -> fctx;
  an_inp : st option array;
  an_esc : esc;
}

let analyse (img : Img.t) : analysis =
  let n = Img.instr_count img in
  let ctxs, ctx_of = build_fctxs img in
  let inp : st option array = Array.make (max n 1) None in
  List.iter (fun c -> analyse_function img c inp) ctxs;
  {
    an_img = img;
    an_ctxs = ctxs;
    an_ctx_of = ctx_of;
    an_inp = inp;
    an_esc = sweep_escapes img ctx_of inp;
  }

(* The judging tail of [certify]: structural obligations and the
   load->store pair sweep, over a completed analysis. *)
let judge_image (an : analysis) : verdict =
  let img = an.an_img and ctxs = an.an_ctxs and ctx_of = an.an_ctx_of in
  let inp = an.an_inp and esc = an.an_esc in
  let n = Img.instr_count img in
  let ctx_by_name f = List.find (fun c -> c.fname = f) ctxs in
  let ob_fails, obligations = check_obligations img ctx_of inp in
  let meta_fails =
    List.filter_map
      (fun c ->
        if c.has_meta then None
        else
          Some
            (Obligation_failed
               {
                 ob_name = "frame-metadata";
                 ob_pc = Some c.lo;
                 ob_msg = "no frame metadata for function " ^ c.fname;
               }))
      ctxs
  in
  let rules : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let count_rule r = Hashtbl.replace rules r (1 + Option.value ~default:0 (Hashtbl.find_opt rules r)) in
  let pairs = ref 0 in
  let witnesses = ref [] in
  let reported : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let loads = ref 0 and stores = ref 0 and barriers = ref 0 in
  Array.iteri
    (fun _ ins ->
      if is_load ins then incr loads;
      if is_store ins then incr stores;
      if is_barrier ins then incr barriers)
    img.Img.code;
  for pc_l = 0 to n - 1 do
    if is_load img.Img.code.(pc_l) then
      sweep_load img ctx_of ctx_by_name esc inp pc_l
        ~on_judged:(fun pc_s jo visits ->
          incr pairs;
          match jo with
          | None -> ()
          | Some j ->
              if j.j_overlap then begin
                if
                  (not (Hashtbl.mem reported (pc_l, pc_s)))
                  && List.length !witnesses < max_witnesses
                then begin
                  Hashtbl.replace reported (pc_l, pc_s) ();
                  witnesses :=
                    {
                      w_load_pc = pc_l;
                      w_load_func = (ctx_of pc_l).fname;
                      w_store_pc = pc_s;
                      w_store_func = (ctx_of pc_s).fname;
                      w_path = witness_path visits ~pc_l ~pc_s;
                      w_reason = j.j_rule;
                    }
                    :: !witnesses
                end
              end
              else count_rule j.j_rule)
  done;
  let stats =
    {
      s_functions = List.length ctxs;
      s_instrs = n;
      s_loads = !loads;
      s_stores = !stores;
      s_barriers = !barriers;
      s_pairs = !pairs;
      s_rules =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) rules []
        |> List.sort compare;
      s_obligations = obligations;
    }
  in
  let rejects =
    meta_fails @ ob_fails @ List.rev_map (fun w -> War_pair w) !witnesses
  in
  if rejects = [] then Certified stats else Rejected (rejects, stats)

let certify (img : Img.t) : verdict = judge_image (analyse img)

(* ------------------------------------------------------------------ *)
(* Incremental re-certification session                                 *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type certify_session = {
    ses_an : analysis;
        (* the escape sweep in it reads only the cached states and the
           call/store/return instructions, none of which a Ckpt<->Mov
           substitution touches: it stays valid for the whole session *)
    ses_preds : int list array;
        (* reverse edges of [walk_region]'s walk relation: p is in
           [ses_preds.(q)] iff the walk at p can push q.  Built from the
           branch structure only, which Ckpt<->Mov substitutions never
           change, so it stays valid for the whole session. *)
  }

  type t = certify_session

  let create (img : Img.t) : t =
    let an = analyse img in
    let n = Img.instr_count img in
    let preds = Array.make (max n 1) [] in
    Array.iteri
      (fun q ins ->
        let outs =
          match ins with
          | I.Bl _ -> [ img.Img.target.(q) ]
          | I.Bx_lr -> Img.return_sites img (an.an_ctx_of q).fname
          | _ -> Img.succs img q
        in
        List.iter
          (fun p -> if p >= 0 && p < n then preds.(p) <- q :: preds.(p))
          outs)
      img.Img.code;
    { ses_an = an; ses_preds = preds }

  (* Every cached state is exact for the image as it stands (substitutions
     keep the identity transfer), so judging the cached analysis is
     [certify] of the current image without re-running the fixpoint. *)
  let verdict (s : t) : verdict = judge_image s.ses_an

  (* Pair-free stats: [recheck_removal] verdicts answer one question
     (does the image still certify?), not the full census. *)
  let null_stats =
    {
      s_functions = 0;
      s_instrs = 0;
      s_loads = 0;
      s_stores = 0;
      s_barriers = 0;
      s_pairs = 0;
      s_rules = [];
      s_obligations = [];
    }

  let recheck_removal (s : t) (pc : int) : verdict =
    let an = s.ses_an in
    let img = an.an_img in
    let n = Img.instr_count img in
    (* The one barrier-dependent structural obligation: a stack-pointer
       increase must sit immediately after a checkpoint (pop conversion).
       The removed barrier may have been exactly that checkpoint. *)
    let pop_broken =
      pc + 1 < n
      &&
      match img.Img.code.(pc + 1) with
      | I.Alu (I.ADD, rd, rn, I.I _) -> rd = I.sp && rn = I.sp
      | _ -> false
    in
    if pop_broken then
      Rejected
        ( [
            Obligation_failed
              {
                ob_name = "sp-discipline";
                ob_pc = Some (pc + 1);
                ob_msg =
                  "stack-pointer increase not immediately preceded by a \
                   checkpoint (pop conversion)";
              };
          ],
          null_stats )
    else begin
      (* Un-barriering [pc] only adds barrier-free paths, and every added
         path passes through [pc]; the abstract states are untouched (the
         [Mov (r0, R r0)] substitute has the identity transfer, like
         [Ckpt]), so every previously judged pair keeps its verdict.  The
         loads whose pair sets can have grown — or whose walk states can
         have weakened — are exactly those reaching [pc] barrier-free:
         find them by reverse BFS and re-sweep only them. *)
      let seen = Hashtbl.create 64 in
      let cands = ref [] in
      let queue = Queue.create () in
      Queue.add pc queue;
      Hashtbl.replace seen pc ();
      while not (Queue.is_empty queue) do
        let p = Queue.pop queue in
        List.iter
          (fun q ->
            if not (Hashtbl.mem seen q) then begin
              Hashtbl.replace seen q ();
              if is_load img.Img.code.(q) then cands := q :: !cands;
              if not (is_barrier img.Img.code.(q)) then Queue.add q queue
            end)
          s.ses_preds.(p)
      done;
      let ctx_by_name f = List.find (fun c -> c.fname = f) an.an_ctxs in
      let bad = ref [] in
      List.iter
        (fun pc_l ->
          if !bad = [] then
            sweep_load img an.an_ctx_of ctx_by_name an.an_esc an.an_inp pc_l
              ~on_judged:(fun pc_s jo visits ->
                match jo with
                | Some j when j.j_overlap && !bad = [] ->
                    bad :=
                      [
                        War_pair
                          {
                            w_load_pc = pc_l;
                            w_load_func = (an.an_ctx_of pc_l).fname;
                            w_store_pc = pc_s;
                            w_store_func = (an.an_ctx_of pc_s).fname;
                            w_path = witness_path visits ~pc_l ~pc_s;
                            w_reason = j.j_rule;
                          };
                      ]
                | _ -> ()))
        !cands;
      if !bad = [] then Certified null_stats else Rejected (!bad, null_stats)
    end

  (* Adding a barrier is certification-monotone: every barrier-free path
     in the new image is a barrier-free path of the old one (the new Ckpt
     only removes paths from the walk), so no pair verdict can flip to
     overlap, and pop conversion cannot break either — O1 requires an
     sp-increase to be PRECEDED by a checkpoint, and a new checkpoint
     never writes sp.  The abstract states are untouched (Ckpt has the
     identity transfer, exactly like the Mov it replaced).  So insertion
     needs only the structural sanity check that the claimed pc really is
     a barrier now; the expensive re-sweep is reserved for removals. *)
  let recheck_insertion (s : t) (pc : int) : verdict =
    let img = s.ses_an.an_img in
    let n = Img.instr_count img in
    if pc < 0 || pc >= n || not (is_barrier img.Img.code.(pc)) then
      Rejected
        ( [
            Obligation_failed
              {
                ob_name = "insertion-site";
                ob_pc = Some pc;
                ob_msg = "claimed insertion pc does not hold a barrier";
              };
          ],
          null_stats )
    else Certified null_stats
end

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let pp_pc (img : Img.t) pc =
  Printf.sprintf "%4d  %-12s %s" pc
    img.Img.func_of_pc.(pc)
    (I.string_of_instr img.Img.code.(pc))

let pp_witness (img : Img.t) (w : pair_witness) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "WAR witness: load at pc %d (%s) -> store at pc %d (%s): %s\n"
    w.w_load_pc w.w_load_func w.w_store_pc w.w_store_func w.w_reason;
  Printf.bprintf b "  barrier-free path:\n";
  List.iter (fun pc -> Printf.bprintf b "    %s\n" (pp_pc img pc)) w.w_path;
  Buffer.contents b

let pp_reject (img : Img.t) = function
  | War_pair w -> pp_witness img w
  | Obligation_failed { ob_name; ob_pc; ob_msg } -> (
      match ob_pc with
      | Some pc ->
          Printf.sprintf "obligation %s failed at pc %d (%s): %s\n" ob_name pc
            (I.string_of_instr img.Img.code.(pc))
            ob_msg
      | None -> Printf.sprintf "obligation %s failed: %s\n" ob_name ob_msg)

let pp_stats (s : stats) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "  %d functions, %d instructions, %d loads, %d stores, %d barriers\n"
    s.s_functions s.s_instrs s.s_loads s.s_stores s.s_barriers;
  Printf.bprintf b "  %d barrier-free load->store pairs judged\n" s.s_pairs;
  if s.s_rules <> [] then begin
    Printf.bprintf b "  disjointness rules used:\n";
    List.iter (fun (r, c) -> Printf.bprintf b "    %-24s %d\n" r c) s.s_rules
  end;
  Printf.bprintf b "  obligations checked:\n";
  List.iter
    (fun o -> Printf.bprintf b "    %-24s %d sites\n" o.ob_name o.ob_sites)
    s.s_obligations;
  Printf.bprintf b
    "  assumptions: A1 no stack overflow; A2 in-bounds pointer arithmetic\n";
  Buffer.contents b

let report (img : Img.t) (v : verdict) : string =
  match v with
  | Certified s ->
      "CERTIFIED: every idempotent region of the image is WAR-free\n" ^ pp_stats s
  | Rejected (rs, s) ->
      Printf.sprintf "REJECTED: %d problem(s) found\n" (List.length rs)
      ^ String.concat "" (List.map (pp_reject img) rs)
      ^ pp_stats s

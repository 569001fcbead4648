(* Loop Write Clusterer (paper §3.1.2, Algorithm 1, Figure 3).

   For each candidate loop:
   1. unroll it N times (WIR registers are mutable, so block cloning without
      register renaming is semantics-preserving);
   2. postpone the WAR stores: each postponed store is replaced in place by
      two moves snapshotting its address and data into fresh registers, and
      the actual store is emitted at the end of the (final) latch block —
      clustering all the stores of N iterations next to each other;
   3. early exits: every exit edge gets a write-back block storing the
      postponed values whose original position dominates the exit
      (paper: ModifyExits);
   4. dependent reads: a load that may alias a postponed store is replaced
      by load + address-compare + select chain forwarding the in-register
      value when the addresses match at run time (paper: InstrumentReads).
      The snapshot registers are zero-initialised in a preheader, so a
      comparison against a snapshot that has not executed yet can never
      match (no object lives at address 0).

   Candidate conditions (paper: IsCandidate):
   - the loop contains at least one WAR violation and no calls;
   - single latch;
   - the latch post-dominates every WAR store of the loop.

   Cancellation (conservative correctness):
   - a postponed store may not move past an aliasing stationary store;
   - an aliasing load of a different access size cancels the postponement;
   - a store that can reach an exit-edge source it does not dominate is
     cancelled (its write-back would be speculative). *)

open Wario_ir.Ir
module Analysis = Wario_analysis
module Str_set = Wario_support.Util.Str_set
module Util = Wario_support.Util

type stats = {
  loops_seen : int;
  loops_unrolled : int;
  stores_postponed : int;
  reads_instrumented : int;  (** loads rewritten into compare/select chains *)
  reads_forwarded : int;  (** loads replaced by direct register forwards *)
  exit_writebacks : int;
}

let empty_stats =
  {
    loops_seen = 0;
    loops_unrolled = 0;
    stores_postponed = 0;
    reads_instrumented = 0;
    reads_forwarded = 0;
    exit_writebacks = 0;
  }

(* ------------------------------------------------------------------ *)
(* Candidate selection                                                  *)
(* ------------------------------------------------------------------ *)

let loop_has_call (f : func) (blocks : Str_set.t) =
  Str_set.exists
    (fun lbl ->
      List.exists (function Call _ -> true | _ -> false)
        (find_block f lbl).insns)
    blocks

let wars_in_loop (wars : Analysis.Pdg.war list) (blocks : Str_set.t) =
  List.filter
    (fun (w : Analysis.Pdg.war) ->
      Str_set.mem (fst w.war_load.mo_point) blocks
      && Str_set.mem (fst w.war_store.mo_point) blocks)
    wars

let is_candidate (f : func) (pdom : Analysis.Dominance.post)
    (wars : Analysis.Pdg.war list) (loop : Analysis.Loops.loop) : bool =
  match loop.latches with
  | [ latch ] ->
      let loop_wars = wars_in_loop wars loop.blocks in
      loop_wars <> []
      && (not (loop_has_call f loop.blocks))
      && List.for_all
           (fun (w : Analysis.Pdg.war) ->
             Analysis.Dominance.post_dominates pdom latch
               (fst w.war_store.mo_point))
           loop_wars
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Unrolling                                                            *)
(* ------------------------------------------------------------------ *)

(* Clone the loop body N-1 extra times.  Copy k's back edge goes to copy
   k+1's header; the last copy branches back to the original header.
   Returns the labels of the unrolled body (all copies) and the final
   latch label. *)
let unroll (f : func) (loop : Analysis.Loops.loop) (n : int) :
    Str_set.t * label =
  let latch = List.hd loop.latches in
  let header = loop.header in
  let copy_label k lbl = if k = 0 then lbl else Printf.sprintf "%s$u%d" lbl k in
  let in_body lbl = Str_set.mem lbl loop.blocks in
  (* Terminator retargeting for copy k. *)
  let retarget k is_latch l =
    if not (in_body l) then l (* exit edge *)
    else if is_latch && l = header then
      if k = n - 1 then header else copy_label (k + 1) header
    else copy_label k l
  in
  let body_blocks =
    List.filter (fun b -> in_body b.bname) f.blocks
  in
  (* Create copies 1..n-1 from the pristine originals. *)
  let new_blocks = ref [] in
  for k = 1 to n - 1 do
    List.iter
      (fun b ->
        let is_latch = b.bname = latch in
        let nb =
          {
            bname = copy_label k b.bname;
            insns = b.insns;
            term = retarget_term (retarget k is_latch) b.term;
          }
        in
        new_blocks := nb :: !new_blocks)
      body_blocks
  done;
  (* Only then fix copy 0 (the original blocks) in place. *)
  List.iter
    (fun b ->
      let is_latch = b.bname = latch in
      b.term <- retarget_term (retarget 0 is_latch) b.term)
    body_blocks;
  f.blocks <- f.blocks @ List.rev !new_blocks;
  let all_labels =
    List.concat_map
      (fun b ->
        List.init n (fun k -> copy_label k b.bname))
      body_blocks
    |> Str_set.of_list
  in
  (all_labels, copy_label (n - 1) latch)

(* ------------------------------------------------------------------ *)
(* Postponement analysis on the unrolled body                           *)
(* ------------------------------------------------------------------ *)

type postponed = {
  p_point : point;  (** original position in the unrolled body *)
  p_width : width;
  p_addr_reg : reg;  (** snapshot of the address *)
  p_data_reg : reg;  (** snapshot of the data *)
  p_addr : value;  (** original address value (for alias queries) *)
}

(* Body-internal reachability from point p to point q avoiding the back
   edge out of [final_latch] (postponed stores commit there).  The
   block-level relation is memoised per query source: the transformation
   issues O(stores x ops) queries on heavily unrolled bodies. *)
let body_reacher (cfg : Analysis.Cfg.t) (body : Str_set.t)
    (final_latch : label) : point -> point -> bool =
  let memo : (label, Str_set.t) Hashtbl.t = Hashtbl.create 32 in
  let from_block bl =
    match Hashtbl.find_opt memo bl with
    | Some s -> s
    | None ->
        let seen = ref Str_set.empty in
        let q = Queue.create () in
        if bl <> final_latch then
          List.iter (fun x -> Queue.add x q) (Analysis.Cfg.succs cfg bl);
        while not (Queue.is_empty q) do
          let x = Queue.take q in
          if (not (Str_set.mem x !seen)) && Str_set.mem x body then begin
            seen := Str_set.add x !seen;
            if x <> final_latch then
              List.iter (fun y -> Queue.add y q) (Analysis.Cfg.succs cfg x)
          end
        done;
        Hashtbl.replace memo bl !seen;
        !seen
  in
  fun (bl, i) (bq, j) ->
    (bl = bq && i < j) || Str_set.mem bq (from_block bl)

(* Point p dominates block x (p's block strictly dominates x, or p is in x
   itself — any position within x dominates x's terminator edges). *)
let point_dominates (dom : Analysis.Dominance.t) ((bl, _) : point) (x : label) =
  bl = x || Analysis.Dominance.dominates dom bl x

(* ------------------------------------------------------------------ *)
(* The transformation proper                                            *)
(* ------------------------------------------------------------------ *)

let widen_to_canonical f (w : width) (data : reg) : reg * instr list =
  match w with
  | W32 -> (data, [])
  | W8 ->
      let d = fresh_reg f in
      (d, [ Bin (d, And, Reg data, Imm 0xffl) ])
  | W16 ->
      let d = fresh_reg f in
      (d, [ Bin (d, And, Reg data, Imm 0xffffl) ])
  | S8 ->
      let a = fresh_reg f and d = fresh_reg f in
      (d, [ Bin (a, Shl, Reg data, Imm 24l); Bin (d, Ashr, Reg a, Imm 24l) ])
  | S16 ->
      let a = fresh_reg f and d = fresh_reg f in
      (d, [ Bin (a, Shl, Reg data, Imm 16l); Bin (d, Ashr, Reg a, Imm 16l) ])

let transform_loop ~escapes ~cancelled (f : func) (loop : Analysis.Loops.loop)
    (n : int) (stats : stats ref) : bool =
  (* --- unroll --- *)
  let body, final_latch = unroll f loop n in
  stats := { !stats with loops_unrolled = !stats.loops_unrolled + 1 };
  (* --- rebuild analyses on the unrolled function --- *)
  let cfg = Analysis.Cfg.build f in
  let dom = Analysis.Dominance.build cfg in
  let alias = Analysis.Alias.build ~mode:Analysis.Alias.Precise ~escapes f in
  let pdg = Analysis.Pdg.build alias cfg f in
  let wars = Analysis.Pdg.wars pdg in
  let body_reaches = body_reacher cfg body final_latch in
  let loop_wars = wars_in_loop wars body in
  (* WAR store points inside the body, in reverse-postorder-then-index order *)
  let order_of lbl = try Hashtbl.find cfg.index lbl with Not_found -> 0 in
  let war_store_points =
    List.map (fun (w : Analysis.Pdg.war) -> w.war_store) loop_wars
    |> List.sort_uniq (fun a b ->
           compare
             (order_of (fst a.Analysis.Pdg.mo_point), snd a.Analysis.Pdg.mo_point)
             (order_of (fst b.Analysis.Pdg.mo_point), snd b.Analysis.Pdg.mo_point))
  in
  (* Exit edges of the unrolled body. *)
  let exit_edges =
    Str_set.fold
      (fun lbl acc ->
        List.fold_left
          (fun acc s -> if Str_set.mem s body then acc else (lbl, s) :: acc)
          acc (Analysis.Cfg.succs cfg lbl))
      body []
  in
  (* Affine address disambiguation within one traversal of the unrolled
     body (the paper's system gets this from scalar evolution): the spine is
     the chain of body blocks dominating the final latch, executed exactly
     once per traversal in order. *)
  let spine =
    Str_set.elements body
    |> List.filter (fun lbl -> Analysis.Dominance.dominates dom lbl final_latch)
    |> List.sort (fun a b ->
           compare (Hashtbl.find cfg.index a) (Hashtbl.find cfg.index b))
  in
  let spine_set = Str_set.of_list spine in
  let tainted =
    Str_set.fold
      (fun lbl acc ->
        if Str_set.mem lbl spine_set then acc
        else
          List.fold_left
            (fun acc ins ->
              match instr_def ins with
              | Some d -> Wario_support.Util.Int_set.add d acc
              | None -> acc)
            acc (find_block f lbl).insns)
      body Wario_support.Util.Int_set.empty
  in
  let affine = Analysis.Affine.mem_addresses f ~spine ~tainted in
  (* May two body memory operations alias *within one traversal*?  Combines
     the base-object alias analysis with the affine disambiguation. *)
  let intra_may_alias (p1 : point) (a1 : value) (n1 : int) (p2 : point)
      (a2 : value) (n2 : int) : bool =
    Analysis.Alias.may_alias alias a1 n1 a2 n2
    &&
    match (Hashtbl.find_opt affine p1, Hashtbl.find_opt affine p2) with
    | Some e1, Some e2 -> not (Analysis.Affine.disjoint e1 n1 e2 n2)
    | _ -> true
  in
  (* Stationary memory ops: everything not selected for postponement.
     Process candidate stores in reverse order so that a cancelled later
     store correctly blocks earlier aliasing stores. *)
  let mem_ops = pdg.Analysis.Pdg.ops in
  let body_ops =
    List.filter (fun (o : Analysis.Pdg.mem_op) -> Str_set.mem (fst o.mo_point) body) mem_ops
  in
  (* helpers shared by the selection and the rewrites below *)
  let point_dominates_point ((b1, i1) : point) ((b2, i2) : point) =
    if b1 = b2 then i1 < i2 else Analysis.Dominance.dominates dom b1 b2
  in
  let affine_equal p1 p2 =
    match (Hashtbl.find_opt affine p1, Hashtbl.find_opt affine p2) with
    | Some e1, Some e2 -> Analysis.Affine.equal_expr e1 e2
    | _ -> false
  in
  let must_alias_pt p1 (a1 : value) n1 p2 (a2 : value) n2 =
    n1 = n2
    && (affine_equal p1 p2 || Analysis.Alias.must_alias alias a1 n1 a2 n2)
  in
  (* Candidate selection under a pre-cancelled set (paper: IsCandidate's
     per-store checks, plus our conservative cancellations). *)
  let select_postponable (pre : (point, unit) Hashtbl.t) :
      Analysis.Pdg.mem_op list =
    let accepted : Analysis.Pdg.mem_op list ref = ref [] in
    List.iter
      (fun (s : Analysis.Pdg.mem_op) ->
        if not (Hashtbl.mem pre s.mo_point) then begin
          let s_size = bytes_of_width s.mo_width in
          let aliases (o : Analysis.Pdg.mem_op) =
            intra_may_alias s.mo_point s.mo_addr s_size o.mo_point o.mo_addr
              (bytes_of_width o.mo_width)
          in
          let will_postpone (o : Analysis.Pdg.mem_op) =
            List.exists
              (fun (a : Analysis.Pdg.mem_op) -> a.mo_point = o.mo_point)
              !accepted
          in
          let reaches_o (o : Analysis.Pdg.mem_op) =
            body_reaches s.mo_point o.mo_point
          in
          (* (a) WAW with a stationary store after s *)
          let waw_blocked =
            List.exists
              (fun (o : Analysis.Pdg.mem_op) ->
                (not o.mo_load) && o.mo_point <> s.mo_point && aliases o
                && (not (will_postpone o)) && reaches_o o)
              body_ops
          in
          (* (b) aliasing later load with an incompatible width *)
          let bad_read =
            List.exists
              (fun (o : Analysis.Pdg.mem_op) ->
                o.mo_load && aliases o && reaches_o o
                && bytes_of_width o.mo_width <> s_size)
              body_ops
          in
          (* (c) exit-edge speculation *)
          let bad_exit =
            List.exists
              (fun (x, _) ->
                body_reaches s.mo_point
                  (x, List.length (find_block f x).insns)
                && not (point_dominates dom s.mo_point x))
              exit_edges
          in
          (* (d) latch speculation: the clustered store at the latch runs on
             every traversal, so a store that does not dominate the latch
             (a conditional store) would be written speculatively *)
          let bad_latch = not (point_dominates dom s.mo_point final_latch) in
          List.iteri
            (fun i b -> if b then cancelled.(i) <- cancelled.(i) + 1)
            [ waw_blocked; bad_read; bad_exit; bad_latch ];
          if not (waw_blocked || bad_read || bad_exit || bad_latch) then
            accepted := s :: !accepted
        end)
      (List.rev war_store_points);
    !accepted (* forward order after the reverse iteration *)
  in
  (* Dependent reads of a candidate set, classified as runtime-check chains
     or direct register forwards (when the last aliasing store must-alias
     and dominates the load, its snapshot IS the value). *)
  let deps_of (cands : Analysis.Pdg.mem_op list) (o : Analysis.Pdg.mem_op) =
    List.filter
      (fun (p : Analysis.Pdg.mem_op) ->
        intra_may_alias p.mo_point p.mo_addr (bytes_of_width p.mo_width)
          o.mo_point o.mo_addr (bytes_of_width o.mo_width)
        && body_reaches p.mo_point o.mo_point)
      cands
  in
  let is_direct (last : Analysis.Pdg.mem_op) (o : Analysis.Pdg.mem_op) =
    must_alias_pt last.mo_point last.mo_addr (bytes_of_width last.mo_width)
      o.mo_point o.mo_addr (bytes_of_width o.mo_width)
    && point_dominates_point last.mo_point o.mo_point
  in
  (* Cost-aware refinement (the paper's break-even point, §3.1.2): a store
     whose postponement forces runtime checks at many loads costs more in
     compare/select chains than its share of a checkpoint saves; cancel the
     heaviest such stores and retry. *)
  let chain_burden_threshold = 2 in
  let rec refine pre rounds : Analysis.Pdg.mem_op list =
    let cands = select_postponable pre in
    if rounds = 0 || List.length cands < 2 then cands
    else begin
      let burden = Hashtbl.create 8 in
      List.iter
        (fun (o : Analysis.Pdg.mem_op) ->
          if o.mo_load then
            match deps_of cands o with
            | [] -> ()
            | deps ->
                let last = List.nth deps (List.length deps - 1) in
                if not (is_direct last o) then
                  List.iter
                    (fun (p : Analysis.Pdg.mem_op) ->
                      Hashtbl.replace burden p.mo_point
                        (1
                        + try Hashtbl.find burden p.mo_point with Not_found -> 0))
                    deps)
        body_ops;
      let heavy =
        List.filter
          (fun (p : Analysis.Pdg.mem_op) ->
            (try Hashtbl.find burden p.mo_point with Not_found -> 0)
            > chain_burden_threshold)
          cands
      in
      if heavy = [] then cands
      else begin
        List.iter (fun (p : Analysis.Pdg.mem_op) -> Hashtbl.replace pre p.mo_point ()) heavy;
        refine pre (rounds - 1)
      end
    end
  in
  let postponable = refine (Hashtbl.create 8) 10 in
  if List.length postponable < 2 then false
  else begin
    (* --- replace each postponed store with snapshot moves --- *)
    let posts =
      List.map
        (fun (s : Analysis.Pdg.mem_op) ->
          let fa = fresh_reg f and fd = fresh_reg f in
          {
            p_point = s.mo_point;
            p_width = s.mo_width;
            p_addr_reg = fa;
            p_data_reg = fd;
            p_addr = s.mo_addr;
          })
        postponable
    in
    (* Dependent reads to instrument: loads in the body that may alias a
       postponed store whose original position can precede them. *)
    let loads_to_fix =
      List.filter_map
        (fun (o : Analysis.Pdg.mem_op) ->
          if not o.mo_load then None
          else begin
            let deps =
              List.filter
                (fun p ->
                  intra_may_alias p.p_point p.p_addr
                    (bytes_of_width p.p_width) o.mo_point o.mo_addr
                    (bytes_of_width o.mo_width)
                  && body_reaches p.p_point o.mo_point)
                posts
            in
            if deps = [] then None
            else begin
              (* Direct forwarding: when the last aliasing postponed store
                 must-alias the load and dominates it, its in-register value
                 IS the loaded value — no load, compare or select needed
                 (the common w[t-3] / read-modify-write patterns). *)
              let last = List.nth deps (List.length deps - 1) in
              let direct =
                must_alias_pt last.p_point last.p_addr
                  (bytes_of_width last.p_width) o.mo_point o.mo_addr
                  (bytes_of_width o.mo_width)
                && point_dominates_point last.p_point o.mo_point
              in
              if direct then Some (o.mo_point, o.mo_width, `Direct last)
              else Some (o.mo_point, o.mo_width, `Chain deps)
            end
          end)
        body_ops
    in
    (* Address-snapshot elision: a store whose address is a constant value
       (global/slot) does not need an address register, provided every
       chain-instrumented dependent load is dominated by the store (so a
       matching comparison implies the snapshot moves have executed). *)
    let elided p =
      (match p.p_addr with Glob _ | Slot _ | Imm _ -> true | Reg _ -> false)
      && List.for_all
           (fun (lp, _, kind) ->
             match kind with
             | `Chain deps when List.memq p deps ->
                 point_dominates_point p.p_point lp
             | _ -> true)
           loads_to_fix
    in
    let elide_tbl = Hashtbl.create 8 in
    List.iter (fun p -> Hashtbl.replace elide_tbl p.p_point (elided p)) posts;
    let is_elided p = Hashtbl.find elide_tbl p.p_point in
    let store_addr_operand p = if is_elided p then p.p_addr else Reg p.p_addr_reg in
    (* One rebuild per block, applying both rewrites against the ORIGINAL
       instruction indices (rewrites grow blocks, so indices must be
       interpreted before any splice). *)
    let posts_by_block = Hashtbl.create 8 in
    List.iter
      (fun p ->
        let lbl, i = p.p_point in
        let cur = try Hashtbl.find posts_by_block lbl with Not_found -> [] in
        Hashtbl.replace posts_by_block lbl ((i, p) :: cur))
      posts;
    let fixes_by_block = Hashtbl.create 8 in
    List.iter
      (fun ((lbl, i), _, kind) ->
        let cur = try Hashtbl.find fixes_by_block lbl with Not_found -> [] in
        Hashtbl.replace fixes_by_block lbl ((i, kind) :: cur))
      loads_to_fix;
    let touched =
      Util.dedup_stable
        (Hashtbl.fold (fun l _ acc -> l :: acc) posts_by_block []
        @ Hashtbl.fold (fun l _ acc -> l :: acc) fixes_by_block [])
    in
    List.iter
      (fun lbl ->
        let b = find_block f lbl in
        let post_entries =
          try Hashtbl.find posts_by_block lbl with Not_found -> []
        in
        let fix_entries =
          try Hashtbl.find fixes_by_block lbl with Not_found -> []
        in
        let pieces =
          List.mapi
            (fun i ins ->
              match List.assoc_opt i post_entries with
              | Some p -> (
                  match ins with
                  | Store (w, data, _) ->
                      assert (w = p.p_width);
                      if is_elided p then [ Mov (p.p_data_reg, data) ]
                      else
                        [ Mov (p.p_addr_reg, p.p_addr); Mov (p.p_data_reg, data) ]
                  | _ -> assert false)
              | None -> (
                  match List.assoc_opt i fix_entries with
                  | None -> [ ins ]
                  | Some (`Direct p) -> (
                      match ins with
                      | Load (d, w, _) ->
                          let canon, extend = widen_to_canonical f w p.p_data_reg in
                          extend @ [ Mov (d, Reg canon) ]
                      | _ -> assert false)
                  | Some (`Chain deps) -> (
                      match ins with
                      | Load (d, w, addr) ->
                          let t = fresh_reg f in
                          let chain = ref [ Load (t, w, addr) ] in
                          let prev = ref (Reg t) in
                          List.iter
                            (fun p ->
                              let canon, extend =
                                widen_to_canonical f w p.p_data_reg
                              in
                              let c = fresh_reg f and sel = fresh_reg f in
                              chain :=
                                Select (sel, Reg c, Reg canon, !prev)
                                :: Cmp (c, Ceq, addr, store_addr_operand p)
                                :: (List.rev extend @ !chain);
                              prev := Reg sel)
                            deps;
                          List.rev (Mov (d, !prev) :: !chain)
                      | _ -> assert false)))
            b.insns
        in
        b.insns <- List.concat pieces)
      touched;
    let n_direct =
      List.length
        (List.filter (fun (_, _, k) -> match k with `Direct _ -> true | _ -> false)
           loads_to_fix)
    in
    stats :=
      {
        !stats with
        stores_postponed = !stats.stores_postponed + List.length posts;
        reads_forwarded = !stats.reads_forwarded + n_direct;
        reads_instrumented =
          !stats.reads_instrumented + List.length loads_to_fix - n_direct;
      };
    (* WAW pruning: among postponed stores that provably write the same
       bytes, only the last one (provided it certainly executes, i.e. its
       position dominates the write-back site) needs emitting. *)
    let prune_for ~(site_dom : postponed -> bool) (candidates : postponed list)
        : postponed list =
      let rec go = function
        | [] -> []
        | p :: rest ->
            let shadowed =
              List.exists
                (fun q ->
                  site_dom q
                  && must_alias_pt p.p_point p.p_addr
                       (bytes_of_width p.p_width) q.p_point q.p_addr
                       (bytes_of_width q.p_width))
                rest
            in
            if shadowed then go rest else p :: go rest
      in
      go candidates
    in
    let emit_store p = Store (p.p_width, Reg p.p_data_reg, store_addr_operand p) in
    (* --- emit the clustered stores at the end of the final latch --- *)
    let latch_b = find_block f final_latch in
    let cluster =
      prune_for
        ~site_dom:(fun q ->
          point_dominates_point q.p_point
            (final_latch, List.length latch_b.insns))
        posts
      |> List.map emit_store
    in
    latch_b.insns <- latch_b.insns @ cluster;
    (* --- early-exit write-backs --- *)
    List.iter
      (fun (x, out) ->
        let dominating =
          List.filter (fun p -> point_dominates dom p.p_point x) posts
        in
        let to_write =
          prune_for ~site_dom:(fun q -> point_dominates dom q.p_point x)
            dominating
        in
        if to_write <> [] && x <> final_latch then begin
          let lbl = fresh_label f "lwc.exit" in
          let wb =
            { bname = lbl; insns = List.map emit_store to_write; term = Br out }
          in
          f.blocks <- f.blocks @ [ wb ];
          (* retarget the single edge x -> out to the write-back block *)
          let xb = find_block f x in
          xb.term <-
            retarget_term (fun l -> if l = out then lbl else l) xb.term;
          stats :=
            {
              !stats with
              exit_writebacks = !stats.exit_writebacks + List.length to_write;
            }
        end)
      exit_edges;
    (* --- preheader: zero-init the non-elided snapshot address registers
       (a comparison against an unexecuted snapshot must never match; no
       object lives at address 0) --- *)
    let header = loop.header in
    let ph_label = fresh_label f "lwc.preheader" in
    let ph =
      {
        bname = ph_label;
        insns =
          List.filter_map
            (fun p ->
              if is_elided p then None else Some (Mov (p.p_addr_reg, Imm 0l)))
            posts;
        term = Br header;
      }
    in
    (* retarget all edges into the header from outside the body *)
    List.iter
      (fun b ->
        if (not (Str_set.mem b.bname body)) && b.bname <> ph_label then
          b.term <-
            retarget_term (fun l -> if l = header then ph_label else l) b.term)
      f.blocks;
    (* if the header was the function entry, the preheader becomes entry *)
    if (entry_block f).bname = header then f.blocks <- ph :: f.blocks
    else f.blocks <- f.blocks @ [ ph ];
    true
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let run_func ~escapes ~cancelled ~(unroll_factor : int) (f : func)
    (stats : stats ref) : unit =
  let cfg = Analysis.Cfg.build f in
  let dom = Analysis.Dominance.build cfg in
  let pdom = Analysis.Dominance.build_post cfg in
  let loops = Analysis.Loops.build cfg dom in
  let alias = Analysis.Alias.build ~mode:Analysis.Alias.Precise ~escapes f in
  let pdg = Analysis.Pdg.build alias cfg f in
  let wars = Analysis.Pdg.wars pdg in
  (* innermost loops only: a loop containing another loop's header is not
     transformed (unrolling nests is handled by processing one loop per
     function pass; the checkpoint savings live in innermost loops) *)
  let innermost (l : Analysis.Loops.loop) =
    not
      (List.exists
         (fun (l' : Analysis.Loops.loop) ->
           l'.header <> l.header && Str_set.mem l'.header l.blocks)
         loops.loops)
  in
  let candidates =
    List.filter
      (fun l -> innermost l && is_candidate f pdom wars l)
      loops.loops
  in
  stats := { !stats with loops_seen = !stats.loops_seen + List.length loops.loops };
  (* Transform candidates one at a time, re-deriving analyses in between
     (transform_loop rebuilds its own). *)
  List.iter
    (fun l ->
      ignore (transform_loop ~escapes ~cancelled f l unroll_factor stats))
    candidates

(* The span counters of [cancelled]'s slots: candidate stores rejected
   by each check, per selection round (a store can fail several). *)
let cancel_counters =
  [| "cancelled_waw"; "cancelled_read"; "cancelled_exit"; "cancelled_latch" |]

(** Apply the Loop Write Clusterer to every function.
    @param unroll_factor the paper's N (default 8, see §5.2.4) *)
let run ?(spans = Wario_obs.Span.disabled) ?(unroll_factor = 8) (p : program)
    : stats =
  let escapes = Analysis.Alias.escapes_of_program p in
  let stats = ref empty_stats in
  let cancelled = Array.make (Array.length cancel_counters) 0 in
  List.iter
    (fun f -> run_func ~escapes ~cancelled ~unroll_factor f stats)
    p.funcs;
  Array.iteri
    (fun i name -> Wario_obs.Span.add_counter ~by:cancelled.(i) spans name)
    cancel_counters;
  !stats

(* Certifier-validated checkpoint motion.

   Elision (lib/core/elide) deletes a redundant WAR checkpoint when the
   certifier proves the image stays WAR-free without it.  Motion
   generalises the move set: a checkpoint can also RELOCATE to a cheaper
   block — hoisted out of a loop into a predecessor, or sunk into a
   successor — as long as the certifier still discharges every WAR with
   the barrier at its new position.  The cost model chooses where to try
   (strictly-cheaper blocks only, by the same weight table the back end's
   spill placement uses); the certifier decides what is allowed.

   A move decomposes into the two session primitives:

     insert barrier at dst   — recheck_insertion: sound by monotonicity
                               (a new barrier only removes barrier-free
                               paths, and never breaks pop conversion
                               because checkpoints do not write sp);
     remove barrier at src   — recheck_removal: the real proof burden,
                               a scoped re-sweep of the loads that reach
                               src barrier-free.

   Mechanically the pass mirrors Elide's pc-stable substitution trick,
   with one extension: the destination slot must already EXIST in the
   linked image before the session starts (sessions key cached abstract
   states by pc, so pcs cannot shift mid-session).  So the pass first
   plants a nop anchor ([Mov r0, r0] — identity transfer, not a barrier)
   at every candidate destination, relinks, and opens one session on the
   anchored image — the only image the pass certifies (its whole verdict
   also decides whether the input certified at all); each move flips its
   anchor nop->Ckpt and its source Ckpt->nop in place.  Rejected moves
   are reverted; anchors no kept move uses are taken back out (their
   removal re-certifies trivially — the image was certified without
   them).

   Two structural guards keep anchors from tripping obligation O1 (an
   sp-increase must be immediately preceded by a checkpoint): no anchor
   is planted where the next layout instruction is an sp-add, and no
   source whose next layout instruction is an sp-add is proposed (its
   removal could never certify).

   After materialising the surviving moves back into the machine blocks,
   every touched function gets its checkpoint masks recomputed
   (Mliveness.set_ckpt_masks): masks are live-register sets at the OLD
   location, the emulator zeroes unmasked registers on restore, and the
   WAR certifier cannot see that class of bug — skipping this step would
   trade a proved WAR for an unproved crash-consistency hazard. *)

module I = Wario_machine.Isa
module C = Wario_certify.Certify
module E = Wario_emulator
module S = Wario_obs.Span

type kind = Hoist | Sink

type move = {
  mv_func : string;
  mv_kind : kind;
  mv_cause : I.ckpt_cause;
  mv_from : string;
  mv_to : string;
  mv_from_pc : int;
  mv_to_pc : int;
  mv_w_from : float;
  mv_w_to : float;
  mv_applied : bool;
  mv_verdict : string;
}

type stats = {
  proposed : int;
  applied : int;
  hoisted : int;
  sunk : int;
  rejected : int;
  moves : move list;
}

let zero =
  { proposed = 0; applied = 0; hoisted = 0; sunk = 0; rejected = 0; moves = [] }

let nop = I.Mov (0, I.R 0)

let is_war_ckpt = function
  | I.Ckpt ((I.Middle_end_war | I.Back_end_war), _) -> true
  | _ -> false

let is_sp_add = function
  | I.Alu (I.ADD, rd, rn, I.I _) -> rd = I.sp && rn = I.sp
  | _ -> false

let verdict_str = function
  | C.Certified _ -> "certified"
  | C.Rejected (reasons, _) -> (
      match reasons with
      | C.War_pair w :: _ ->
          Printf.sprintf "war-pair: load@%d (%s) -> store@%d (%s): %s"
            w.C.w_load_pc w.C.w_load_func w.C.w_store_pc w.C.w_store_func
            w.C.w_reason
      | C.Obligation_failed { ob_name; ob_pc; _ } :: _ ->
          Printf.sprintf "obligation %s%s" ob_name
            (match ob_pc with
            | Some pc -> Printf.sprintf " at pc %d" pc
            | None -> "")
      | [] -> "rejected")

(* A proposed relocation of one WAR checkpoint, resolved to concrete pcs
   only after the anchored relink. *)
type proposal = {
  p_func : string;
  p_kind : kind;
  p_cause : I.ckpt_cause;
  p_mask : int;
  p_src : string;  (* source block label *)
  p_src_idx : int;  (* index in the PRE-anchor mcode *)
  p_dst : string;  (* destination block label *)
  p_w_src : float;
  p_w_dst : float;
}

type anchor = {
  a_label : string;
  a_idx : int;  (* index in the POST-anchor mcode *)
  mutable a_pc : int;  (* pc in the anchored image *)
  mutable a_used : bool;  (* some applied move keeps this barrier *)
}

let run ~(weights : string -> float) ?(spans = S.disabled) (p : I.mprog) :
    stats =
  (* per-recheck verdict latency, same span name as Elide's *)
  let recheck what pc f =
    S.with_span spans
      ~attrs:[ ("op", S.Str what); ("pc", S.Int pc) ]
      "certify.recheck"
    @@ fun () ->
    let v = f () in
    S.set_attr spans "verdict"
      (S.Str (match v with C.Certified _ -> "certified" | C.Rejected _ -> "rejected"));
    v
  in
  let img0 = E.Image.link p in
  let n0 = E.Image.instr_count img0 in
  (* ---- block extents and label-level CFG of the linked image ---- *)
  let starts0 = E.Image.block_starts img0 in
  let extent = Hashtbl.create 64 in
  let rec exts = function
    | (l, s) :: ((_, s') :: _ as rest) ->
        Hashtbl.replace extent l (s, s' - s);
        exts rest
    | [ (l, s) ] -> Hashtbl.replace extent l (s, n0 - s)
    | [] -> ()
  in
  exts starts0;
  let succs_of = Hashtbl.create 64 and preds_of = Hashtbl.create 64 in
  let add tbl k v =
    let cur = try Hashtbl.find tbl k with Not_found -> [] in
    if not (List.mem v cur) then Hashtbl.replace tbl k (v :: cur)
  in
  Array.iteri
    (fun pc _ ->
      let l = img0.E.Image.label_of_pc.(pc) in
      List.iter
        (fun q ->
          if q >= 0 && q < n0 then begin
            let l' = img0.E.Image.label_of_pc.(q) in
            let entering =
              match Hashtbl.find_opt extent l' with
              | Some (s', _) -> l' <> l || q = s'
              | None -> false
            in
            if entering then begin
              add succs_of l l';
              add preds_of l' l
            end
          end)
        (E.Image.succs img0 pc))
    img0.E.Image.code;
  let func_of_label = Hashtbl.create 64 in
  let block_of_label = Hashtbl.create 64 in
  let func_by_name = Hashtbl.create 16 in
  List.iter
    (fun (mf : I.mfunc) ->
      Hashtbl.replace func_by_name mf.I.mname mf;
      List.iter
        (fun (b : I.mblock) ->
          Hashtbl.replace func_of_label b.I.mlabel mf.I.mname;
          Hashtbl.replace block_of_label b.I.mlabel b)
        mf.I.mblocks)
    p.I.mfuncs;
  (* ---- propose: every WAR checkpoint, best strictly-cheaper
     neighbour block in the same function ---- *)
  let dst_ok kind src dst =
    (not (String.equal dst src))
    && Hashtbl.mem extent dst
    && (match
          ( Hashtbl.find_opt func_of_label src,
            Hashtbl.find_opt func_of_label dst )
        with
       | Some a, Some b -> String.equal a b
       | _ -> false)
    && begin
         (* O1 guard: the instruction that will follow the anchor must
            not be an sp-add (a Sink anchor precedes the block's first
            instruction; a Hoist anchor precedes the trailing branch
            run, or the next block's head when the block falls
            through). *)
         let b = Hashtbl.find block_of_label dst in
         let code = Array.of_list b.I.mcode in
         let len = Array.length code in
         match kind with
         | Sink -> not (len > 0 && is_sp_add code.(0))
         | Hoist ->
             let rec run_start i =
               if i > 0 && I.is_branch code.(i - 1) then run_start (i - 1)
               else i
             in
             let idx = run_start len in
             let s, _ = Hashtbl.find extent dst in
             let follow_pc = s + idx in
             not
               (follow_pc < n0 && is_sp_add img0.E.Image.code.(follow_pc))
       end
  in
  let proposals = ref [] in
  List.iter
    (fun (mf : I.mfunc) ->
      List.iter
        (fun (b : I.mblock) ->
          match Hashtbl.find_opt extent b.I.mlabel with
          | None -> ()
          | Some (s, _) ->
              List.iteri
                (fun k ins ->
                  match ins with
                  | I.Ckpt (cause, mask) when is_war_ckpt ins ->
                      let src_pc0 = s + k in
                      (* removal can never certify against O1 *)
                      if
                        not
                          (src_pc0 + 1 < n0
                          && is_sp_add img0.E.Image.code.(src_pc0 + 1))
                      then begin
                        let w_src = weights b.I.mlabel in
                        let neigh kind tbl =
                          List.filter_map
                            (fun d ->
                              if dst_ok kind b.I.mlabel d then
                                Some (kind, d, weights d)
                              else None)
                            (try Hashtbl.find tbl b.I.mlabel
                             with Not_found -> [])
                        in
                        let cands =
                          neigh Hoist preds_of @ neigh Sink succs_of
                        in
                        let cands =
                          List.filter (fun (_, _, w) -> w < w_src) cands
                        in
                        match
                          List.sort
                            (fun (_, d1, w1) (_, d2, w2) ->
                              compare (w1, d1) (w2, d2))
                            cands
                        with
                        | (kind, dst, w_dst) :: _ ->
                            proposals :=
                              {
                                p_func = mf.I.mname;
                                p_kind = kind;
                                p_cause = cause;
                                p_mask = mask;
                                p_src = b.I.mlabel;
                                p_src_idx = k;
                                p_dst = dst;
                                p_w_src = w_src;
                                p_w_dst = w_dst;
                              }
                              :: !proposals
                        | [] -> ()
                      end
                  | _ -> ())
                b.I.mcode)
        mf.I.mblocks)
    p.I.mfuncs;
  let proposals = List.rev !proposals in
  if proposals = [] then zero
  else begin
    (* ---- plant one shared anchor per (dst, position) ---- *)
    let saved_mcode = Hashtbl.create 16 in
    let anchors : (string * kind, anchor) Hashtbl.t = Hashtbl.create 16 in
    let head_planted = Hashtbl.create 16 in
    List.iter
      (fun pr ->
        let key = (pr.p_dst, pr.p_kind) in
        if not (Hashtbl.mem anchors key) then begin
          let b = Hashtbl.find block_of_label pr.p_dst in
          if not (Hashtbl.mem saved_mcode pr.p_dst) then
            Hashtbl.replace saved_mcode pr.p_dst b.I.mcode;
          let code = Array.of_list b.I.mcode in
          let len = Array.length code in
          let idx =
            match pr.p_kind with
            | Sink -> 0
            | Hoist ->
                (* computed from the CURRENT mcode, so an
                   already-planted Sink anchor is accounted for *)
                let rec run_start i =
                  if i > 0 && I.is_branch code.(i - 1) then
                    run_start (i - 1)
                  else i
                in
                run_start len
          in
          let rec insert i = function
            | rest when i = 0 -> nop :: rest
            | x :: rest -> x :: insert (i - 1) rest
            | [] -> [ nop ]
          in
          b.I.mcode <- insert idx b.I.mcode;
          if pr.p_kind = Sink then begin
            Hashtbl.replace head_planted pr.p_dst ();
            (* a pre-planted Hoist anchor in this block shifts right *)
            Hashtbl.iter
              (fun (l, k) a ->
                if String.equal l pr.p_dst && k = Hoist then
                  Hashtbl.replace anchors (l, k)
                    { a with a_idx = a.a_idx + 1 })
              (Hashtbl.copy anchors)
          end;
          Hashtbl.replace anchors key
            { a_label = pr.p_dst; a_idx = idx; a_pc = -1; a_used = false }
        end)
      proposals;
    let img1 = E.Image.link p in
    let revert_all () =
      Hashtbl.iter
        (fun l mcode ->
          (Hashtbl.find block_of_label l).I.mcode <- mcode)
        saved_mcode
    in
    (* The anchored image is the only one certified, through the same
       session every move rechecks against.  That also covers the image
       as it came in: an anchor is [Mov r0, r0], which is not a barrier
       and has the identity transfer, and none sits where the O1 guards
       above forbid, so every barrier-free load->store pair and every
       failed obligation of [img0] survives into [img1].  A rejected
       input is therefore a rejected [img1], and stands down here with
       every block's mcode restored — as does a certified input whose
       anchors tripped an O1 guard gap. *)
    let ses = C.Session.create img1 in
    match C.Session.verdict ses with
    | C.Rejected _ ->
        revert_all ();
        zero
    | C.Certified _ ->
        let starts1 = Hashtbl.create 64 in
        List.iter
          (fun (l, s) -> Hashtbl.replace starts1 l s)
          (E.Image.block_starts img1);
        Hashtbl.iter
          (fun _ a -> a.a_pc <- Hashtbl.find starts1 a.a_label + a.a_idx)
          anchors;
        let src_pc_of pr =
          let shift =
            if Hashtbl.mem head_planted pr.p_src then 1 else 0
          in
          Hashtbl.find starts1 pr.p_src + pr.p_src_idx + shift
        in
        let drop : (int, unit) Hashtbl.t = Hashtbl.create 16 in
        let moves = ref [] in
        let touched = Hashtbl.create 8 in
        List.iter
          (fun pr ->
            let a = Hashtbl.find anchors (pr.p_dst, pr.p_kind) in
            let src_pc = src_pc_of pr in
            let src_ins = img1.E.Image.code.(src_pc) in
            let planted_now =
              img1.E.Image.code.(a.a_pc) = nop
              (* physical equality of the constant nop is not
                 guaranteed; structural compare on instrs is fine *)
            in
            if planted_now then
              img1.E.Image.code.(a.a_pc) <-
                I.Ckpt (pr.p_cause, pr.p_mask);
            let ins_v =
              recheck "insertion" a.a_pc (fun () ->
                  C.Session.recheck_insertion ses a.a_pc)
            in
            let applied, verdict =
              match ins_v with
              | C.Rejected _ -> (false, verdict_str ins_v)
              | C.Certified _ -> (
                  img1.E.Image.code.(src_pc) <- nop;
                  match
                    recheck "removal" src_pc (fun () ->
                        C.Session.recheck_removal ses src_pc)
                  with
                  | C.Certified _ -> (true, "certified")
                  | C.Rejected _ as v ->
                      img1.E.Image.code.(src_pc) <- src_ins;
                      (false, verdict_str v))
            in
            if applied then begin
              a.a_used <- true;
              Hashtbl.replace drop src_pc ();
              Hashtbl.replace touched pr.p_func ()
            end
            else if planted_now && not a.a_used then begin
              (* take the unused barrier back out; its removal returns
                 to an image that certified, so this succeeds unless a
                 later state change intervened (it cannot — rejected
                 moves are fully reverted) *)
              let back = img1.E.Image.code.(a.a_pc) in
              img1.E.Image.code.(a.a_pc) <- nop;
              match
                recheck "anchor-removal" a.a_pc (fun () ->
                    C.Session.recheck_removal ses a.a_pc)
              with
              | C.Certified _ -> ()
              | C.Rejected _ ->
                  img1.E.Image.code.(a.a_pc) <- back;
                  a.a_used <- true;
                  Hashtbl.replace touched pr.p_func ()
            end;
            moves :=
              {
                mv_func = pr.p_func;
                mv_kind = pr.p_kind;
                mv_cause = pr.p_cause;
                mv_from = pr.p_src;
                mv_to = pr.p_dst;
                mv_from_pc = src_pc;
                mv_to_pc = a.a_pc;
                mv_w_from = pr.p_w_src;
                mv_w_to = pr.p_w_dst;
                mv_applied = applied;
                mv_verdict = verdict;
              }
              :: !moves)
          (List.sort (fun a b -> compare (src_pc_of a) (src_pc_of b))
             proposals);
        (* anchors nobody kept are still nops: drop them *)
        Hashtbl.iter
          (fun _ a ->
            if img1.E.Image.code.(a.a_pc) = nop then
              Hashtbl.replace drop a.a_pc ())
          anchors;
        (* ---- materialise: rebuild every laid-out block from the
           edited image minus the drop set ---- *)
        let n1 = E.Image.instr_count img1 in
        let starts1_list = E.Image.block_starts img1 in
        let rec ext1 = function
          | (l, s) :: ((_, s') :: _ as rest) ->
              (l, s, s' - s) :: ext1 rest
          | [ (l, s) ] -> [ (l, s, n1 - s) ]
          | [] -> []
        in
        List.iter
          (fun (l, s, len) ->
            match Hashtbl.find_opt block_of_label l with
            | None -> ()
            | Some b ->
                let code = ref [] in
                for pc = s + len - 1 downto s do
                  if not (Hashtbl.mem drop pc) then
                    code := img1.E.Image.code.(pc) :: !code
                done;
                b.I.mcode <- !code)
          (ext1 starts1_list);
        (* ---- recompute checkpoint masks on touched functions: the
           moved barriers carry their old live sets, and the emulator
           zeroes unmasked registers on restore ---- *)
        Hashtbl.iter
          (fun fname () ->
            match Hashtbl.find_opt func_by_name fname with
            | Some mf -> Wario_backend.Mliveness.set_ckpt_masks mf
            | None -> ())
          touched;
        let moves = List.rev !moves in
        let count f = List.length (List.filter f moves) in
        {
          proposed = List.length moves;
          applied = count (fun m -> m.mv_applied);
          hoisted = count (fun m -> m.mv_applied && m.mv_kind = Hoist);
          sunk = count (fun m -> m.mv_applied && m.mv_kind = Sink);
          rejected = count (fun m -> not m.mv_applied);
          moves;
        }
  end

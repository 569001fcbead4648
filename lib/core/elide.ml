(* Certifier-validated checkpoint elision (coalescing).

   Cost-guided placement solves the middle end and the back end
   *independently*, so a hot block can end up with both a middle-end WAR
   checkpoint and one or more back-end spill checkpoints a few
   instructions apart — each pass proves its own WARs covered without
   seeing the barriers the other pass inserted.  Any one of those
   checkpoints often suffices as the barrier for every WAR crossing the
   block.

   Rather than teach each pass about the other's obligations, this pass
   removes candidate checkpoints *tentatively* and lets the static
   idempotence certifier (lib/certify, PR 2) arbitrate: a removal is kept
   only if the image still certifies WAR-free.  The certifier is the same
   translation validator the test suite and `iclang certify` apply to
   every build, so an elision can never ship a WAR the pipeline's own
   acceptance oracle would catch — the pass is safe by construction: its
   output is a subset of an already-certified instruction stream.

   The search runs on one linked image through an incremental
   {!Wario_certify.Certify.Session}: a trial replaces the checkpoint with
   [Mov (r0, R r0)] in place (the certifier models [Ckpt] as a
   state-transfer no-op whose only effect is barrierhood, so the
   substitution is deletion's exact analysis equivalent while keeping
   every pc stable and every cached abstract state exact), then re-judges
   only what the removal can change: the pop-conversion obligation at the
   next pc and the pairs of loads reaching the removed barrier
   barrier-free.  Kept removals are then really deleted from the machine
   program, and the caller relinks.

   Two candidate classes:

   - WAR coalescing (always on): Middle_end_war/Back_end_war checkpoints
     in blocks carrying at least two of them — the redundancy pattern
     above.  Tried in program order.

   - Calling-convention brackets ([boundary], interprocedural policy
     only): Function_entry/Function_exit checkpoints.  Per-function
     reasoning can never drop these — a call counts as a WAR barrier in
     every intraprocedural analysis precisely because the callee is
     guaranteed to checkpoint on entry — but the certifier's region walk
     crosses calls and returns, so it can prove a particular bracket
     redundant for this whole program (e.g. a callee whose body
     checkpoints before any store the caller's region could reach).  The
     interprocedural model also says where that pays: a bracket at a hot
     call boundary executes once per call, so candidates are ordered by
     the caller-weighted block weight, hottest first.

   Everything is a single pass per class (a rejected removal can never
   succeed after later removals — those only delete barriers, strictly
   hardening the obligation), so the result is deterministic.  All
   [mcode] deletions are deferred to the end: trials edit only the image
   (pc-stable), so original per-block indices stay valid throughout. *)

module I = Wario_machine.Isa
module C = Wario_certify.Certify
module E = Wario_emulator
module S = Wario_obs.Span

type stats = {
  candidates : int;
  tried : int;
  elided : int;
  boundary_tried : int;
  boundary_elided : int;
}

let is_war_ckpt = function
  | I.Ckpt ((I.Middle_end_war | I.Back_end_war), _) -> true
  | _ -> false

let is_boundary_ckpt = function
  | I.Ckpt ((I.Function_entry | I.Function_exit), _) -> true
  | _ -> false

let nop = I.Mov (0, I.R 0)

let run ?(boundary = false) ?(weight = fun _ -> 0.) ?(spans = S.disabled)
    (p : I.mprog) : stats =
  let img = E.Image.link p in
  (* One analysis serves both the entry verdict and every recheck.  An
     image that does not certify as-is gives the pass no oracle to
     preserve: leave such builds untouched. *)
  let ses = C.Session.create img in
  match C.Session.verdict ses with
  | C.Rejected _ ->
      {
        candidates = 0;
        tried = 0;
        elided = 0;
        boundary_tried = 0;
        boundary_elided = 0;
      }
  | C.Certified _ ->
      let start_of =
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (l, pc) -> Hashtbl.replace tbl l pc)
          (E.Image.block_starts img);
        fun l -> Hashtbl.find tbl l
      in
      (* deferred per-block deletions: block -> original indices gone *)
      let gone : (I.mblock * int list ref) list ref = ref [] in
      let gone_of (b : I.mblock) =
        match List.find_opt (fun (b', _) -> b' == b) !gone with
        | Some (_, r) -> r
        | None ->
            let r = ref [] in
            gone := (b, r) :: !gone;
            r
      in
      let try_removal (b : I.mblock) (k : int) (ins : I.instr) : bool =
        let pc = start_of b.I.mlabel + k in
        (* one span per certifier recheck: per-removal verdict latency *)
        S.with_span spans
          ~attrs:[ ("pc", S.Int pc) ]
          "certify.recheck_removal"
        @@ fun () ->
        img.E.Image.code.(pc) <- nop;
        match C.Session.recheck_removal ses pc with
        | C.Certified _ ->
            S.set_attr spans "verdict" (S.Str "certified");
            let g = gone_of b in
            g := k :: !g;
            true
        | C.Rejected _ ->
            S.set_attr spans "verdict" (S.Str "rejected");
            img.E.Image.code.(pc) <- ins;
            false
      in
      let candidates = ref 0 and tried = ref 0 and elided = ref 0 in
      List.iter
        (fun (mf : I.mfunc) ->
          List.iter
            (fun (b : I.mblock) ->
              let code = Array.of_list b.I.mcode in
              let n_war =
                Array.fold_left
                  (fun a ins -> a + if is_war_ckpt ins then 1 else 0)
                  0 code
              in
              if n_war >= 2 then begin
                incr candidates;
                Array.iteri
                  (fun k ins ->
                    if is_war_ckpt ins then begin
                      incr tried;
                      if try_removal b k ins then incr elided
                    end)
                  code
              end)
            mf.I.mblocks)
        p.I.mfuncs;
      let boundary_tried = ref 0 and boundary_elided = ref 0 in
      if boundary then begin
        let cands =
          List.concat_map
            (fun (mf : I.mfunc) ->
              List.concat_map
                (fun (b : I.mblock) ->
                  List.mapi (fun k ins -> (b, k, ins)) b.I.mcode
                  |> List.filter (fun (_, _, ins) -> is_boundary_ckpt ins))
                mf.I.mblocks)
            p.I.mfuncs
        in
        (* hottest bracket first; ties broken by pc for determinism *)
        let keyed =
          List.map
            (fun (b, k, ins) ->
              ( weight b.I.mlabel,
                start_of b.I.mlabel + k,
                (b, k, ins) ))
            cands
          |> List.stable_sort (fun (wa, pa, _) (wb, pb, _) ->
                 match compare wb wa with 0 -> compare pa pb | c -> c)
        in
        List.iter
          (fun (_, _, (b, k, ins)) ->
            incr boundary_tried;
            if try_removal b k ins then incr boundary_elided)
          keyed
      end;
      List.iter
        (fun ((b : I.mblock), g) ->
          if !g <> [] then
            b.I.mcode <- List.filteri (fun k _ -> not (List.mem k !g)) b.I.mcode)
        !gone;
      {
        candidates = !candidates;
        tried = !tried;
        elided = !elided;
        boundary_tried = !boundary_tried;
        boundary_elided = !boundary_elided;
      }

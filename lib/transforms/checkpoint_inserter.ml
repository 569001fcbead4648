(* PDG Checkpoint Inserter (paper §3.1.2).

   For every function: collect the remaining WAR violations (those not
   already cut by forced checkpoints — calls — or previously inserted
   checkpoints), convert each WAR into the set of program points whose
   checkpoint would resolve it, and run the greedy minimal hitting set to
   pick a small set of checkpoint locations.  Costs grow exponentially with
   loop depth so the algorithm prefers placing checkpoints outside loops.

   Candidate points for a WAR (load L, store S):
   - the point immediately before S (always cuts every L→S path);
   - when L and S share a block with L before S: every point in (L, S];
   - when L and S share a block with S before L (a loop-carried WAR):
     every point after L and every point up to S in that block;
   - every point of any block B with block(L) dom B and B dom block(S)
     (the dominator sandwich; such a B lies on every L→S path), with the
     end-point blocks restricted to the positions after L / up to S. *)

open Wario_ir.Ir
module Analysis = Wario_analysis

module Point_hs = Analysis.Hitting_set.Make (struct
  type t = point

  let compare = compare_point
end)

type placement =
  | Greedy  (** unweighted greedy hitting set costed by loop depth only *)
  | Cost_guided
      (** weighted solver minimising estimated dynamic checkpoint count *)
  | Interprocedural
      (** weighted solver over call-graph-scaled global block weights *)

type placement_info = {
  pi_func : string;
  pi_block : label;
  pi_index : int;
  pi_weight : float;
  pi_wars : int;
}

type stats = {
  functions : int;
  wars : int;
  checkpoints : int;
  exact : int;  (** functions whose weighted cover was proven optimal *)
  fallback : int;  (** functions placed by the weighted-greedy fallback *)
  hs_nodes : int;  (** branch-and-bound nodes explored across all solves *)
  placements : placement_info list;
}

(* Candidate checkpoint points resolving one WAR.  [block_len] must be an
   O(1) lookup: this runs once per WAR and WAR counts grow quadratically on
   unrolled code. *)
let candidates ~(block_len : label -> int) (dom : Analysis.Dominance.t)
    (war : Analysis.Pdg.war) : point list =
  let lb, li = war.war_load.mo_point in
  let sb, si = war.war_store.mo_point in
  let pts = ref [ (sb, si) ] in
  (* duplicates are fine: the hitting set interns with sort_uniq *)
  let add p = pts := p :: !pts in
  if lb = sb then begin
    if li < si then
      for k = li + 1 to si do add (lb, k) done
    else begin
      (* loop-carried within one block: after L or before/at S *)
      for k = li + 1 to block_len lb do add (lb, k) done;
      for k = 0 to si do add (lb, k) done
    end
  end
  else begin
    (* end-point blocks *)
    for k = li + 1 to block_len lb do add (lb, k) done;
    for k = 0 to si do add (sb, k) done;
    (* dominator sandwich: block(L) dom B && B dom block(S).  The blocks
       dominating [sb] are exactly its idom chain, so walk it upward and
       keep the segment below [lb]. *)
    let rec chain b =
      match Analysis.Dominance.idom dom b with
      | Some up when up <> b ->
          if up <> lb && Analysis.Dominance.dominates dom lb up then begin
            for k = 0 to block_len up do add (up, k) done;
            chain up
          end
          else if up = lb then () (* reached L's block: stop *)
          else chain up (* above lb: nothing more can qualify *)
      | _ -> ()
    in
    chain sb
  end;
  !pts

let insert_checkpoints f (points : point list) (cause : ckpt_cause) =
  (* Insert per block in descending index order so indices stay valid. *)
  let by_block = Hashtbl.create 8 in
  List.iter
    (fun (lbl, i) ->
      let cur = try Hashtbl.find by_block lbl with Not_found -> [] in
      Hashtbl.replace by_block lbl (i :: cur))
    (Wario_support.Util.dedup_stable points);
  Hashtbl.iter
    (fun lbl idxs ->
      List.iter
        (fun i -> insert_at f (lbl, i) [ Checkpoint cause ])
        (List.sort (fun a b -> compare b a) idxs))
    by_block

let run_func ~(mode : Analysis.Alias.mode) ~(placement : placement)
    ~(profile : Analysis.Costmodel.profile option)
    ~(global : (string -> label -> float) option) ~escapes ~timed
    ~(phase_ms : float array) (f : func) :
    int * int * Analysis.Hitting_set.optimality option * int
    * placement_info list =
  let now () = if timed then Wario_obs.Span.now_ms () else 0. in
  let lap i t0 t1 = phase_ms.(i) <- phase_ms.(i) +. (t1 -. t0) in
  let t0 = now () in
  let cfg = Analysis.Cfg.build f in
  let dom = Analysis.Dominance.build cfg in
  let loops = Analysis.Loops.build cfg dom in
  let alias = Analysis.Alias.build ~mode ~escapes f in
  let pdg = Analysis.Pdg.build alias cfg f in
  let wars = Analysis.Pdg.wars pdg in
  let t3 = now () in
  lap 0 t0 t3;
  if wars = [] then (0, 0, None, 0, [])
  else begin
    (* Subsumption: for a fixed store and load block, the pair with the
       latest load has the smallest candidate set, and that set is a subset
       of every earlier pair's (all our candidate constructions shrink
       monotonically as the load moves later).  Covering it covers them
       all, so only the latest-load pair per (store, load block) needs a
       set — WAR counts grow quadratically on unrolled code, and this
       keeps the hitting-set input linear in the store count. *)
    let best : (point * label * bool, Analysis.Pdg.war) Hashtbl.t =
      Hashtbl.create 256
    in
    List.iter
      (fun (w : Analysis.Pdg.war) ->
        let sb, si = w.war_store.mo_point in
        let lb, li = w.war_load.mo_point in
        (* forward same-block pairs and loop-carried same-block pairs have
           different candidate shapes: never subsume across kinds *)
        let forward = lb = sb && li < si in
        let key = (w.war_store.mo_point, lb, forward) in
        match Hashtbl.find_opt best key with
        | Some w' when snd w'.war_load.mo_point >= li -> ()
        | _ -> Hashtbl.replace best key w)
      wars;
    let reduced = Hashtbl.fold (fun _ w acc -> w :: acc) best [] in
    let reduced =
      List.sort
        (fun (a : Analysis.Pdg.war) (b : Analysis.Pdg.war) ->
          compare
            (a.war_store.mo_point, a.war_load.mo_point)
            (b.war_store.mo_point, b.war_load.mo_point))
        reduced
    in
    let lens = Hashtbl.create 64 in
    List.iter
      (fun b -> Hashtbl.replace lens b.bname (List.length b.insns))
      f.blocks;
    let block_len lbl = try Hashtbl.find lens lbl with Not_found -> 0 in
    let sets = List.map (candidates ~block_len dom) reduced in
    let naive_placement () =
      (* unreachable via Error — [candidates] always includes the point
         before the store — but documented as the Empty_set fallback:
         checkpoint directly before every WAR store *)
      List.map (fun (w : Analysis.Pdg.war) -> w.war_store.mo_point) reduced
    in
    let t4 = now () in
    let chosen, opt, nodes, cost =
      match placement with
      | Greedy ->
          let cost (lbl, _) =
            (* prefer shallow loop nesting; 10x per level, a trip-count
               guess *)
            10. ** float_of_int (loops.Analysis.Loops.depth_of lbl)
          in
          ( (match Point_hs.solve ~cost sets with
            | Ok chosen -> chosen
            | Error (Analysis.Hitting_set.Empty_set _) -> naive_placement ()),
            None,
            0,
            cost )
      | Cost_guided | Interprocedural ->
          (* Under Interprocedural the fallback weight of a block is its
             call-graph-scaled global frequency; measured profile counts
             (already global — the pilot counts every dynamic entry) still
             override per label, and are now commensurate with the
             fallback instead of mixing per-run counts with per-invocation
             estimates. *)
          let static = Analysis.Costmodel.static_weights cfg loops in
          let base =
            match (placement, global) with
            | Interprocedural, Some g -> fun lbl -> g f.fname lbl
            | _ -> static
          in
          let weights =
            match profile with
            | None -> base
            | Some p ->
                Analysis.Costmodel.profile_weights p ~fname:f.fname
                  ~fallback:base
          in
          let cost (lbl, _) = weights lbl in
          (match Point_hs.solve_weighted ~cost sets with
          | Ok sol ->
              ( sol.Point_hs.chosen,
                Some sol.Point_hs.optimality,
                sol.Point_hs.nodes_explored,
                cost )
          | Error (Analysis.Hitting_set.Empty_set _) ->
              (naive_placement (), None, 0, cost))
    in
    let t5 = now () in
    let chosen_u = Wario_support.Util.dedup_stable chosen in
    (* per chosen point, the number of sets holding it (a set that lists
       it twice counts once), in one pass over the sets *)
    let wars_of = Hashtbl.create 16 in
    List.iter (fun pt -> Hashtbl.replace wars_of pt (ref 0, ref (-1))) chosen_u;
    List.iteri
      (fun si set ->
        List.iter
          (fun q ->
            match Hashtbl.find_opt wars_of q with
            | Some (n, last) when !last <> si ->
                incr n;
                last := si
            | _ -> ())
          set)
      sets;
    let infos =
      List.map
        (fun ((lbl, i) as pt) ->
          {
            pi_func = f.fname;
            pi_block = lbl;
            pi_index = i;
            pi_weight = cost pt;
            pi_wars = !(fst (Hashtbl.find wars_of pt));
          })
        chosen_u
    in
    insert_checkpoints f chosen Middle_end_war;
    lap 1 t3 t4;
    lap 2 t4 t5;
    lap 3 t5 (now ());
    (List.length wars, List.length chosen, opt, nodes, infos)
  end

(* The span counters of [run_func]'s [phase_ms] slots *)
let phase_counters =
  [| "analysis_us"; "candidates_us"; "solve_us"; "insert_us" |]

(** Insert middle-end checkpoints for the whole program; returns statistics. *)
let run ?(spans = Wario_obs.Span.disabled) ?(mode = Analysis.Alias.Precise)
    ?(placement = Cost_guided) ?profile ?global (p : program) : stats =
  let escapes = Analysis.Alias.escapes_of_program p in
  let timed = Wario_obs.Span.is_enabled spans in
  let phase_ms = Array.make (Array.length phase_counters) 0. in
  let stats =
    List.fold_left
      (fun acc f ->
        let wars, cps, opt, nodes, infos =
          run_func ~mode ~placement ~profile ~global ~escapes ~timed
            ~phase_ms f
        in
        {
          functions = acc.functions + 1;
          wars = acc.wars + wars;
          checkpoints = acc.checkpoints + cps;
          exact =
            (acc.exact
            + match opt with Some Analysis.Hitting_set.Exact -> 1 | _ -> 0);
          fallback =
            (acc.fallback
            +
            match opt with
            | Some Analysis.Hitting_set.Greedy_fallback -> 1
            | _ -> 0);
          hs_nodes = acc.hs_nodes + nodes;
          placements = acc.placements @ infos;
        })
      {
        functions = 0;
        wars = 0;
        checkpoints = 0;
        exact = 0;
        fallback = 0;
        hs_nodes = 0;
        placements = [];
      }
      p.funcs
  in
  (* truncated, so the phases never sum past the enclosing span *)
  Array.iteri
    (fun i name ->
      Wario_obs.Span.add_counter
        ~by:(int_of_float (phase_ms.(i) *. 1000.))
        spans name)
    phase_counters;
  stats

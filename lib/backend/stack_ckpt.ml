(* Stack Spill Checkpoint Inserter (paper §3.1.3, §4.4).

   Runs between register allocation and frame lowering, while spill accesses
   are still explicit [SpillLd]/[SpillSt] pseudos with their slot ids.
   Because slots are never shared, a WAR on a spill slot requires a
   barrier-free path from a load of the slot to a store of the same slot —
   in practice only loops re-execute a slot's store after its load.

   Two strategies:
   - [Naive] (Ratchet §4.1): a checkpoint immediately before every store
     that completes a WAR;
   - [Hitting_set] (WARio): per-WAR candidate windows (all points between
     the load and the store inside a block, plus the point before the store)
     fed to the same greedy minimal hitting set as the middle end, so one
     checkpoint can cover the WARs of several slots at once — vital after
     the write clusterers raised register pressure. *)

module I = Wario_machine.Isa

module Point_hs = Wario_analysis.Hitting_set.Make (struct
  type t = int * int (* block index, instruction index *)

  let compare = compare
end)

type strategy = Naive | Hitting_set

type stats = { spill_wars : int; spill_ckpts : int }

let is_barrier = function I.Ckpt _ | I.Bl _ -> true | _ -> false

(* [weight], when given, maps a machine block label to its estimated
   execution frequency (Wario_analysis.Costmodel, static or
   profile-guided); the Hitting_set strategy then minimises the summed
   frequency of chosen points — the expected number of dynamically executed
   spill checkpoints — via the weighted solver.  Without it the historical
   unweighted greedy (every point cost 1) is used. *)
let run ?(weight : (string -> float) option) ~(strategy : strategy)
    (mf : I.mfunc) : stats =
  let blocks = Array.of_list mf.I.mblocks in
  let n = Array.length blocks in
  let label_index = Hashtbl.create 16 in
  Array.iteri (fun i b -> Hashtbl.replace label_index b.I.mlabel i) blocks;
  let code = Array.map (fun b -> Array.of_list b.I.mcode) blocks in
  (* Machine blocks can hold mid-block branches AND barriers, so
     barrier-free reachability must be edge-aware: a path may escape a
     block through a Bc before hitting a later barrier.  Per block we keep
     the barrier positions and the exit edges (position, target). *)
  let barrier_idx b =
    Array.to_list code.(b)
    |> List.mapi (fun i ins -> (i, ins))
    |> List.filter_map (fun (i, ins) -> if is_barrier ins then Some i else None)
  in
  let barriers = Array.init n barrier_idx in
  let exits_of b =
    let arr = code.(b) in
    let res = ref [] in
    let sealed = ref false in
    Array.iteri
      (fun p ins ->
        match ins with
        | I.Bc (_, l) -> (
            match Hashtbl.find_opt label_index l with
            | Some t -> res := (p, t) :: !res
            | None -> ())
        | I.B l ->
            (match Hashtbl.find_opt label_index l with
            | Some t -> res := (p, t) :: !res
            | None -> ());
            if p = Array.length arr - 1 then sealed := true
        | I.Bx_lr -> if p = Array.length arr - 1 then sealed := true
        | _ -> ())
      arr;
    (* fallthrough to the next block in layout order *)
    if (not !sealed) && b + 1 < n then
      res := (Array.length arr, b + 1) :: !res;
    List.rev !res
  in
  let exits = Array.init n exits_of in
  (* no barrier strictly inside (i, p) *)
  let clear_range b i p =
    not (List.exists (fun k -> k > i && k < p) barriers.(b))
  in
  (* blocks whose ENTRY is barrier-free-reachable from position i of b *)
  let reach_from b i =
    let seen = Hashtbl.create 8 in
    let q = Queue.create () in
    List.iter
      (fun (p, t) -> if p > i && clear_range b i p then Queue.add t q)
      exits.(b);
    while not (Queue.is_empty q) do
      let x = Queue.take q in
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        (* traverse x: enter at position -1 (its start) *)
        List.iter
          (fun (p, t) -> if clear_range x (-1) p then Queue.add t q)
          exits.(x)
      end
    done;
    seen
  in
  (* memoised per exact position (the query pattern is loads x stores, so
     each load's BFS is reused across all its store pairings) *)
  let memo : (int * int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let reach_sets b i =
    let key = (b, i) in
    match Hashtbl.find_opt memo key with
    | Some s -> s
    | None ->
        let s = reach_from b i in
        Hashtbl.replace memo key s;
        s
  in
  let reaches (bl, i) (bs, j) =
    (bl = bs && i < j && clear_range bl i j)
    || (clear_range bs (-1) j && Hashtbl.mem (reach_sets bl i) bs)
  in
  (* collect spill accesses *)
  let accesses = ref [] in
  Array.iteri
    (fun b arr ->
      Array.iteri
        (fun i ins ->
          match ins with
          | I.SpillLd (_, slot) -> accesses := (`Load, slot, (b, i)) :: !accesses
          | I.SpillSt (_, slot) -> accesses := (`Store, slot, (b, i)) :: !accesses
          | _ -> ())
        arr)
    code;
  let loads = List.filter (fun (k, _, _) -> k = `Load) !accesses in
  let stores = List.filter (fun (k, _, _) -> k = `Store) !accesses in
  let wars =
    List.concat_map
      (fun (_, slot_l, pl) ->
        List.filter_map
          (fun (_, slot_s, ps) ->
            if slot_l = slot_s && reaches pl ps then Some (pl, ps) else None)
          stores)
      loads
  in
  if wars = [] then { spill_wars = 0; spill_ckpts = 0 }
  else begin
    let chosen =
      match strategy with
      | Naive ->
          (* checkpoint right before every WAR store *)
          Wario_support.Util.dedup_stable (List.map snd wars)
      | Hitting_set ->
          (* Machine blocks may contain mid-block branches (a Cbr lowers to
             Cmp/Bc/B), so a point after a Bc is only on the fall-through
             path: suffix candidates stop at the first diverting branch. *)
          let first_branch_after b i =
            let arr = code.(b) in
            let rec go k =
              if k >= Array.length arr then Array.length arr
              else if I.is_branch arr.(k) then k
              else go (k + 1)
            in
            go (i + 1)
          in
          let sets =
            List.map
              (fun ((bl, i), (bs, j)) ->
                let pts = ref [ (bs, j) ] in
                let add p = pts := p :: !pts in
                if bl = bs && i < j then
                  for k = i + 1 to min j (first_branch_after bl i) do
                    add (bl, k)
                  done
                else begin
                  for k = i + 1 to first_branch_after bl i do add (bl, k) done;
                  for k = 0 to j do add (bs, k) done
                end;
                !pts)
              wars
          in
          let naive () = Wario_support.Util.dedup_stable (List.map snd wars) in
          (* unreachable Error — each set contains its WAR's store point —
             but fall back to the Naive placement as documented *)
          (match weight with
          | None -> (
              match Point_hs.solve ~cost:(fun _ -> 1.) sets with
              | Ok chosen -> chosen
              | Error (Wario_analysis.Hitting_set.Empty_set _) -> naive ())
          | Some w -> (
              let cost (b, _) = w blocks.(b).I.mlabel in
              match Point_hs.solve_weighted ~cost sets with
              | Ok sol -> sol.Point_hs.chosen
              | Error (Wario_analysis.Hitting_set.Empty_set _) -> naive ()))
    in
    (* insert checkpoints, per block in descending index order *)
    let by_block = Hashtbl.create 8 in
    List.iter
      (fun (b, i) ->
        let cur = try Hashtbl.find by_block b with Not_found -> [] in
        Hashtbl.replace by_block b (i :: cur))
      (Wario_support.Util.dedup_stable chosen);
    Hashtbl.iter
      (fun b idxs ->
        let block = blocks.(b) in
        let arr = Array.to_list code.(b) in
        let idxs = List.sort compare idxs in
        let rec weave k rem = function
          | [] -> (
              match rem with
              | i :: _ when i >= k -> [ I.Ckpt (I.Back_end_war, 0) ]
              | _ -> [])
          | ins :: tl ->
              if List.mem k rem then
                I.Ckpt (I.Back_end_war, 0)
                :: ins
                :: weave (k + 1) (List.filter (fun x -> x <> k) rem) tl
              else ins :: weave (k + 1) rem tl
        in
        block.I.mcode <- weave 0 idxs arr)
      by_block;
    { spill_wars = List.length wars; spill_ckpts = List.length chosen }
  end

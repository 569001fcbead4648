(* Minimal hitting set (de Kruijf et al., §4.2.1 — the algorithm both
   Ratchet and WARio use to pick checkpoint locations), in two flavours:

   - [solve]: the classic greedy, picking at each step the candidate
     maximising (number of uncovered sets hit) / cost.  Kept as the
     baseline placement and as the upper bound seeding the exact solver.
   - [solve_weighted]: cost-guided placement.  The objective is the *sum of
     the chosen candidates' costs* (with costs = estimated execution
     frequencies, that sum is the expected number of dynamically executed
     checkpoints), solved exactly by branch and bound with memoized lower
     bounds under a node budget, falling back to the weighted greedy when
     the instance is too large or the budget runs out.  The returned
     [solution] records which of the two produced it.

   The greedy implementation is the standard incremental-count greedy: when
   an element is chosen, only the sets it covers have their other elements'
   counters decremented, so total work is proportional to the sum of set
   sizes plus (#elements x #chosen). *)

type error = Empty_set of int  (** index of the offending input set *)

type optimality =
  | Exact  (** branch and bound completed: no cheaper cover exists *)
  | Greedy_fallback  (** instance too large or node budget exhausted *)

let default_node_budget = 20_000

(* Exact search is only attempted when the (reduced) family fits in an
   OCaml int bitmask and its candidate lists are modest — each node costs
   O(sets x set size) in the lower bound, so giant dominator-sandwich
   windows would spend the whole budget learning nothing.  Beyond either
   gate the greedy bound is the answer. *)
let max_exact_sets = 62
let max_exact_elems = 2_000  (* sum of reduced set sizes *)

module Make (Elt : sig
  type t

  val compare : t -> t -> int
end) =
struct
  type solution = {
    chosen : Elt.t list;  (** sorted by [Elt.compare] *)
    total_cost : float;
    optimality : optimality;
    nodes_explored : int;
        (** branch-and-bound nodes visited (0 when the exact search was
            never attempted) — the span/metrics attribution for solver
            effort, including budget-exhausted fallbacks *)
  }

  (* intern elements (hashed: candidate families can hold millions) *)
  let intern_sets (sets : Elt.t list list) =
    let id_of : (Elt.t, int) Hashtbl.t = Hashtbl.create 4096 in
    let elems = ref [] in
    let n_elems = ref 0 in
    let intern e =
      match Hashtbl.find_opt id_of e with
      | Some i -> i
      | None ->
          let i = !n_elems in
          incr n_elems;
          Hashtbl.replace id_of e i;
          elems := e :: !elems;
          i
    in
    let sets =
      Array.of_list
        (List.map
           (fun s ->
             Array.of_list (List.map intern (List.sort_uniq Elt.compare s)))
           sets)
    in
    (sets, Array.of_list (List.rev !elems))

  (* The greedy over an interned family: chosen element ids in pick
     order. *)
  let greedy_ids (costs : float array) (sets : int array array) : int list =
    let ne = Array.length costs in
    (* element -> indices of sets containing it *)
    let containing = Array.make ne [] in
    Array.iteri
      (fun si s -> Array.iter (fun e -> containing.(e) <- si :: containing.(e)) s)
      sets;
    let covered = Array.make (Array.length sets) false in
    let count = Array.make ne 0 in
    Array.iteri (fun e lst -> count.(e) <- List.length lst) containing;
    let uncovered = ref (Array.length sets) in
    let chosen = ref [] in
    (* Greedy selection with a lazy max-heap: scores only decrease as sets
       get covered, so a stale heap entry is simply re-pushed with its
       current score.  Ties are not broken by cost or element order: among
       equal scores the heap pops whichever its layout puts first, which
       depends on the push order (ascending element id, then the
       re-pushes). *)
    let score e = float_of_int count.(e) /. max costs.(e) 1e-9 in
    let heap = Wario_support.Util.Fheap.create () in
    for e = 0 to ne - 1 do
      if count.(e) > 0 then Wario_support.Util.Fheap.push heap (score e) e
    done;
    while !uncovered > 0 do
      let key, e = Wario_support.Util.Fheap.pop heap in
      let current = score e in
      if count.(e) = 0 then () (* fully stale: drop *)
      else if current < key -. 1e-12 then
        (* stale: revalidate *)
        Wario_support.Util.Fheap.push heap current e
      else begin
        chosen := e :: !chosen;
        List.iter
          (fun si ->
            if not covered.(si) then begin
              covered.(si) <- true;
              decr uncovered;
              Array.iter (fun e' -> count.(e') <- count.(e') - 1) sets.(si)
            end)
          containing.(e)
      end
    done;
    List.rev !chosen

  let solve_nonempty ~(cost : Elt.t -> float) (sets : Elt.t list list) :
      Elt.t list =
    let sets, elems = intern_sets sets in
    List.map (fun e -> elems.(e)) (greedy_ids (Array.map cost elems) sets)

  (** [solve ~cost sets] returns [Ok chosen] such that every input set
      contains a chosen element, or [Error (Empty_set i)] when set [i] is
      empty — an empty set is unhittable, so no cover exists.  Callers must
      not drop such a set silently: either guarantee non-emptiness by
      construction (every in-tree candidate set contains the point before
      its WAR's store), or fall back to a placement that needs no cover,
      such as a checkpoint directly before each WAR store. *)
  let solve ~(cost : Elt.t -> float) (sets : Elt.t list list) :
      (Elt.t list, error) result =
    let rec first_empty i = function
      | [] -> None
      | [] :: _ -> Some i
      | _ :: tl -> first_empty (i + 1) tl
    in
    match first_empty 0 sets with
    | Some i -> Error (Empty_set i)
    | None -> Ok (solve_nonempty ~cost sets)

  (* Redundancy elimination for greedy covers: a greedy choice can become
     superfluous once later choices cover all its sets, so try dropping the
     chosen elements in decreasing cost order (most expensive first) and
     keep the cover property.  Never increases total cost; the result is a
     *minimal* (though not necessarily minimum) cover, as ascending ids. *)
  let prune_ids (costs : float array) (isets : int array array)
      (chosen : int list) : int list =
    let ne = Array.length costs in
    let kept = Array.make ne false in
    List.iter (fun i -> kept.(i) <- true) chosen;
    (* per set, how many kept elements hit it *)
    let hits = Array.map (fun s -> Array.fold_left (fun a e -> a + if kept.(e) then 1 else 0) 0 s) isets in
    let containing = Array.make ne [] in
    Array.iteri
      (fun si s -> Array.iter (fun e -> containing.(e) <- si :: containing.(e)) s)
      isets;
    let order =
      List.init ne (fun i -> i)
      |> List.filter (fun i -> kept.(i))
      |> List.sort (fun a b ->
             match compare costs.(b) costs.(a) with
             | 0 -> compare a b
             | c -> c)
    in
    List.iter
      (fun e ->
        if kept.(e) && List.for_all (fun si -> hits.(si) >= 2) containing.(e)
        then begin
          kept.(e) <- false;
          List.iter (fun si -> hits.(si) <- hits.(si) - 1) containing.(e)
        end)
      order;
    List.init ne (fun i -> i) |> List.filter (fun i -> kept.(i))

  (* ---------------- weighted exact solver ---------------- *)

  exception Budget_exhausted

  (* Branch and bound over the reduced family.  [sets] are interned int
     arrays; [costs] per element.  Search state is the bitmask of covered
     sets.  Lower bound: greedily collect element-disjoint uncovered sets —
     any cover must pay at least the cheapest element of each — memoized
     per covered-mask.  Returns the cheapest cover as element ids. *)
  let branch_and_bound ~budget ~nodes sets costs incumbent incumbent_cost =
    let ns = Array.length sets in
    let ne = Array.length costs in
    let full = (1 lsl ns) - 1 in
    (* element -> bitmask of sets containing it *)
    let hits = Array.make ne 0 in
    Array.iteri
      (fun si s -> Array.iter (fun e -> hits.(e) <- hits.(e) lor (1 lsl si)) s)
      sets;
    let min_cost_of_set =
      Array.map
        (fun s -> Array.fold_left (fun a e -> min a costs.(e)) infinity s)
        sets
    in
    let lb_memo : (int, float) Hashtbl.t = Hashtbl.create 1024 in
    let used = Array.make ne false in
    let lower_bound covered =
      match Hashtbl.find_opt lb_memo covered with
      | Some lb -> lb
      | None ->
          Array.fill used 0 ne false;
          let lb = ref 0. in
          for si = 0 to ns - 1 do
            if covered land (1 lsl si) = 0 then begin
              let disjoint =
                Array.for_all (fun e -> not used.(e)) sets.(si)
              in
              if disjoint then begin
                lb := !lb +. min_cost_of_set.(si);
                Array.iter (fun e -> used.(e) <- true) sets.(si)
              end
            end
          done;
          Hashtbl.replace lb_memo covered !lb;
          !lb
    in
    let best = ref incumbent and best_cost = ref incumbent_cost in
    let rec go covered acc acc_cost =
      incr nodes;
      if !nodes > budget then raise Budget_exhausted;
      if covered = full then begin
        if acc_cost < !best_cost -. 1e-12 then begin
          best := acc;
          best_cost := acc_cost
        end
      end
      else if acc_cost +. lower_bound covered < !best_cost -. 1e-12 then begin
        (* branch on the most constrained uncovered set (fewest remaining
           candidates); deterministic tie-break toward the lowest index *)
        let pick = ref (-1) and pick_n = ref max_int in
        for si = 0 to ns - 1 do
          if covered land (1 lsl si) = 0 then begin
            let n = Array.length sets.(si) in
            if n < !pick_n then begin
              pick := si;
              pick_n := n
            end
          end
        done;
        (* cheapest elements first: good incumbents early, better pruning *)
        let cands = Array.copy sets.(!pick) in
        Array.sort
          (fun a b ->
            match compare costs.(a) costs.(b) with 0 -> compare a b | c -> c)
          cands;
        Array.iter
          (fun e -> go (covered lor hits.(e)) (e :: acc) (acc_cost +. costs.(e)))
          cands
      end
    in
    go 0 [] 0.;
    (!best, !best_cost)

  (* Drop duplicate and superset sets: hitting a subset hits every superset,
     so only the minimal sets constrain the cover.  Keeps exact instances
     small (the bitmask gate is on the *reduced* family).  The
     superset-minimality pass is quadratic with a linear subset test, so it
     only runs on families small enough to possibly pass the bitmask gate
     afterwards — larger ones are greedy-fallback territory anyway. *)
  let max_minimality_sets = 2 * max_exact_sets

  (* sorted int arrays, hashed over every element ([Hashtbl.hash] reads
     only a prefix, and dominator-sandwich sets share long ones) *)
  module Sorted = Hashtbl.Make (struct
    type t = int array

    let equal (a : t) b = a = b
    let hash (a : t) = Array.fold_left (fun h x -> (h * 31) + x) 17 a land max_int
  end)

  let reduce_family (sets : int array array) : int array array =
    let seen = Sorted.create 64 in
    let uniq =
      Array.to_list sets
      |> List.filter_map (fun s ->
             let k = Array.copy s in
             Array.sort compare k;
             if Sorted.mem seen k then None
             else begin
               Sorted.replace seen k ();
               Some (k, s)
             end)
    in
    let subset a b =
      (* a ⊆ b over sorted arrays *)
      let na = Array.length a and nb = Array.length b in
      let rec go i j =
        i = na
        || (j < nb
           && (if a.(i) = b.(j) then go (i + 1) (j + 1)
               else a.(i) > b.(j) && go i (j + 1)))
      in
      go 0 0
    in
    let minimal =
      if List.length uniq > max_minimality_sets then uniq
      else
        List.filter
          (fun (k, _) ->
            not
              (List.exists
                 (fun (k', _) ->
                   (* distinct keys: an equal-length subset would be equal *)
                   k' != k && Array.length k' < Array.length k && subset k' k)
                 uniq))
          uniq
    in
    Array.of_list (List.map snd minimal)

  (** [solve_weighted ~cost sets] returns the cover minimising the sum of
      chosen costs when the exact search completes within [node_budget]
      branch-and-bound nodes (and the reduced family fits in a bitmask),
      and the weighted-greedy cover otherwise; [solution.optimality] says
      which.  [node_budget = 0] forces the greedy path (the baseline the
      property tests compare against).  Same [Empty_set] contract as
      {!solve}. *)
  let solve_weighted ?(node_budget = default_node_budget)
      ~(cost : Elt.t -> float) (sets : Elt.t list list) :
      (solution, error) result =
    let rec first_empty i = function
      | [] -> None
      | [] :: _ -> Some i
      | _ :: tl -> first_empty (i + 1) tl
    in
    match first_empty 0 sets with
    | Some i -> Error (Empty_set i)
    | None when sets = [] ->
        Ok { chosen = []; total_cost = 0.; optimality = Exact; nodes_explored = 0 }
    | None ->
        let isets, elems = intern_sets sets in
        let costs = Array.map cost elems in
        let greedy_ids = prune_ids costs isets (greedy_ids costs isets) in
        let greedy = List.map (fun i -> elems.(i)) greedy_ids in
        let greedy_cost =
          List.fold_left (fun a i -> a +. costs.(i)) 0. greedy_ids
        in
        let nodes = ref 0 in
        let finish optimality chosen total_cost =
          Ok
            {
              chosen = List.sort_uniq Elt.compare chosen;
              total_cost;
              optimality;
              nodes_explored = !nodes;
            }
        in
        let reduced = reduce_family isets in
        let reduced_elems =
          Array.fold_left (fun a s -> a + Array.length s) 0 reduced
        in
        if
          node_budget <= 0
          || Array.length reduced > max_exact_sets
          || reduced_elems > max_exact_elems
        then finish Greedy_fallback greedy greedy_cost
        else begin
          (* seed the search with the greedy cover as the incumbent *)
          match
            branch_and_bound ~budget:node_budget ~nodes reduced costs
              greedy_ids greedy_cost
          with
          | ids, total ->
              finish Exact (List.map (fun i -> elems.(i)) ids) total
          | exception Budget_exhausted ->
              finish Greedy_fallback greedy greedy_cost
        end
end

(* Boundary-bisecting adversarial cut search.

   Checkpoint-placement correctness and cost are dominated by worst-case
   power-failure timing: the most expensive place to lose power is one
   cycle before a commit becomes durable (the whole region replays), and
   the most *dangerous* place is inside the commit itself.  Uniform random
   schedules rarely land there; this module goes straight at it.

   Seeded from the continuous reference run's commit geometry
   (Schedule.reference_of_result), each idempotent region is probed with
   single-cut schedules and bisected for the exact active cycle at which
   its commit becomes durable: the largest cut offset whose measured
   re-executed waste still accounts for (almost) all work since the region
   opened.  Every probe is also run through the differential oracle, so a
   cut that provokes divergence — not just waste — is reported as such.

   The search is deterministic (pure bisection, no randomness) and costs
   O(log region-size) oracle runs per region. *)

module P = Wario.Pipeline
module E = Wario_emulator

type worst = {
  a_region : int;  (** region index; the tail (halt-terminated) region last *)
  a_window : int * int;
      (** [(lo, hi)]: the golden-cycle window searched — cuts in [(lo, hi]]
          land inside this region *)
  a_cut : int;  (** worst single-cut offset found *)
  a_reexec : int;  (** re-executed cycles that cut provokes *)
  a_divergence : Oracle.divergence option;
      (** a probe that diverged, if any — the real counterexample *)
  a_probes : int;  (** oracle runs spent on this region *)
}

(* Atomic spends (a multi-cycle instruction, a checkpoint commit) burn the
   remaining budget without retiring, so the measured loss can trail the
   cut offset by up to one atomic action.  64 cycles comfortably covers
   the largest commit. *)
let atomic_slack = 64

type probe_state = {
  engine : E.Emulator.engine option;
  golden : Oracle.golden;
  compiled : P.compiled;
  mutable probes : int;
  mutable best_cut : int;
  mutable best_reexec : int;
  mutable diverged : (int * Oracle.divergence) option;
}

(* Probe one single-cut schedule; remember the max-waste and any diverging
   cut.  Returns the observed re-executed cycles (0 when the supply made
   no progress, which a single finite cut cannot actually cause). *)
let probe st cut : int =
  st.probes <- st.probes + 1;
  let result, verdict =
    Oracle.run_schedule ?engine:st.engine st.golden st.compiled [| cut |]
  in
  let reexec =
    match result with
    | Some r -> r.E.Emulator.waste.E.Emulator.w_reexec
    | None -> 0
  in
  if reexec > st.best_reexec then begin
    st.best_reexec <- reexec;
    st.best_cut <- cut
  end;
  (match (verdict, st.diverged) with
  | Error d, None -> st.diverged <- Some (cut, d)
  | _ -> ());
  reexec

let bisect_region ?engine golden compiled ~region ~lo ~hi : worst =
  let st =
    {
      engine;
      golden;
      compiled;
      probes = 0;
      best_cut = hi;
      best_reexec = -1;
      diverged = None;
    }
  in
  (* [pre c]: the cut at [c] still discards the whole region — its
     measured loss accounts for all work since the region opened (up to
     one atomic action).  False once the commit is durable. *)
  let pre c = probe st c >= c - lo - atomic_slack in
  (* the adversarial neighbourhood first: just before, at, just after *)
  if hi - 1 > lo then ignore (pre (hi - 1));
  ignore (pre hi);
  let post_ok = pre (hi + 1) in
  if (not post_ok) && hi - lo > 2 then begin
    (* the flip is inside (lo, hi+1]: bisect for the largest still-
       discarding cut, pinning the durability cycle exactly *)
    let l = ref (lo + 1) and r = ref (hi + 1) in
    while !r - !l > 1 do
      let m = !l + ((!r - !l) / 2) in
      if pre m then l := m else r := m
    done
  end;
  {
    a_region = region;
    a_window = (lo, hi);
    a_cut =
      (match st.diverged with Some (cut, _) -> cut | None -> st.best_cut);
    a_reexec = max 0 st.best_reexec;
    a_divergence = Option.map snd st.diverged;
    a_probes = st.probes;
  }

let search ?engine ?max_regions (golden : Oracle.golden)
    (compiled : P.compiled) :
    worst list =
  let ref_ = Schedule.reference_of_result golden.Oracle.g_result in
  let boundaries = ref_.Schedule.boundaries in
  let n = Array.length boundaries in
  let region_windows =
    List.init n (fun i ->
        let lo = if i = 0 then E.Emulator.boot_cycles else boundaries.(i - 1) in
        (i, lo, boundaries.(i)))
  in
  (* the tail region commits nothing — it ends at the halt — but a cut
     inside it still forces a full replay of the tail *)
  let tail =
    let lo = if n = 0 then E.Emulator.boot_cycles else boundaries.(n - 1) in
    let hi = ref_.Schedule.total_cycles - 1 in
    if hi > lo + 1 then [ (n, lo, hi) ] else []
  in
  let windows =
    List.filter (fun (_, lo, hi) -> hi > lo) (region_windows @ tail)
  in
  let windows =
    (* under a probe cap, spend the bisections where the adversary bites:
       the widest regions lose the most work to a worst-case cut.  Ties
       break on region index, and the kept set is re-sorted into region
       order, so the capped search stays deterministic. *)
    match max_regions with
    | Some k when List.length windows > max 1 k ->
        let width (_, lo, hi) = hi - lo in
        List.sort
          (fun (i, _, _) (j, _, _) -> compare (i : int) j)
          (Wario_support.Util.take (max 1 k)
             (List.sort
                (fun ((i, _, _) as a) ((j, _, _) as b) ->
                  match compare (width b) (width a) with
                  | 0 -> compare (i : int) j
                  | c -> c)
                windows))
    | _ -> windows
  in
  List.map
    (fun (region, lo, hi) ->
      bisect_region ?engine golden compiled ~region ~lo ~hi)
    windows

let schedules (ws : worst list) : int array list =
  List.map (fun w -> [| w.a_cut |]) ws

let total_probes (ws : worst list) : int =
  List.fold_left (fun acc w -> acc + w.a_probes) 0 ws

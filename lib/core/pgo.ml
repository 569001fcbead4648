(* Profile-guided checkpoint placement: the compile -> pilot -> recompile
   loop behind `iclang pgo`.

   The pilot is one run of the statically-placed binary under continuous
   power on the reference interpreter with per-pc execution counting on and
   the Obs.Profile tracer attached.  Its per-block entry counts become the
   weight function of a second, profile-guided compilation; its
   per-function/per-region cycle attribution is kept for reporting.  Both
   compilations start from the same source, so the label sets agree and the
   whole loop is deterministic (same source + options -> same image).

   Placement interacts with register allocation — moving a middle-end
   checkpoint changes spill decisions and can surface new back-end spill
   WARs the weight model cannot see — so a cheaper cover is not always a
   cheaper binary.  The loop therefore ends with a measured guard: the
   greedy-baseline, static-weighted, profile-guided and interprocedural
   binaries each run once under the pilot conditions, and the one
   executing the fewest checkpoints (ties: fewest cycles, then the
   more-informed placement) is returned.  By construction `iclang pgo`
   never ships a binary worse than the baseline on the pilot input. *)

module A = Wario_analysis
module E = Wario_emulator
module Tr = Wario_obs.Trace
module S = Wario_obs.Span

type variant = Greedy | Static | Profile | Inter

let variant_name = function
  | Greedy -> "greedy"
  | Static -> "static-weighted"
  | Profile -> "profile-guided"
  | Inter -> "interprocedural"

type pilot = {
  profile : A.Costmodel.profile;  (** per-block entry counts *)
  summary : Wario_obs.Profile.t;
      (** per-function / per-region cycle attribution of the pilot run *)
  pilot_cycles : int;
  selected : variant;
      (** which binary the measured guard kept (see [compile]) *)
  measured : (variant * int) list;
      (** pilot-measured dynamic checkpoint executions per variant *)
}

let collect ?fuel (image : E.Image.t) : pilot =
  let ring = Tr.ring () in
  let st =
    E.Emulator.create ?fuel ~supply:E.Power.Continuous ~verify:false
      ~tracer:ring ~count_pcs:true image
  in
  while not (E.Emulator.halted st) do
    ignore (E.Emulator.step st)
  done;
  let profile =
    match E.Emulator.block_counts st with
    | Some p -> p
    | None -> assert false (* created with count_pcs:true *)
  in
  {
    profile;
    summary = Wario_obs.Profile.of_events (Tr.events ring);
    pilot_cycles = E.Emulator.cycles st;
    selected = Static;
    measured = [];
  }

type candidates = {
  greedy_c : Pipeline.compiled;
  static_c : Pipeline.compiled;
  profile_c : Pipeline.compiled;
  inter_c : Pipeline.compiled;
  pilot : pilot;
}

let compiled_of (cs : candidates) = function
  | Greedy -> cs.greedy_c
  | Static -> cs.static_c
  | Profile -> cs.profile_c
  | Inter -> cs.inter_c

(** The full loop, returning all four binaries (the measured guard's
    choice is [pilot.selected]).  [opts.block_profile] is ignored on
    input (the pilot supplies it); [opts.placement] is forced per
    candidate.  [pilot_fuel] bounds the pilot run. *)
let compile_candidates ?(opts = Pipeline.default_options)
    ?(spans = S.disabled) ?pilot_fuel ?engine ?cache
    (env : Pipeline.environment) (source : string) : candidates =
  (* One cache handle (ambient by default) shared by all four candidate
     compiles: they differ only in placement options, so the front-end
     and — for the three non-interprocedural candidates — the whole
     middle end up to placement are parsed/optimized/analyzed once and
     replayed from the cache thereafter. *)
  let cache =
    match cache with Some c -> c | None -> Cache.from_env ()
  in
  let static_opts =
    {
      opts with
      Pipeline.block_profile = None;
      placement = Wario_transforms.Checkpoint_inserter.Cost_guided;
    }
  in
  (* per-variant audition cost: each candidate compile gets its own span
     (with the full pipeline-stage tree nested inside) *)
  let audition v f =
    S.with_span spans
      ~attrs:[ ("variant", S.Str (variant_name v)) ]
      "pgo.audition" f
  in
  let static_c =
    audition Static (fun () ->
        Pipeline.compile ~opts:static_opts ~spans ~cache env source)
  in
  let pilot =
    S.with_span spans "pgo.pilot" (fun () ->
        let p = collect ?fuel:pilot_fuel static_c.Pipeline.image in
        S.add_counter ~by:p.pilot_cycles spans "cycles";
        p)
  in
  let profile_c =
    audition Profile (fun () ->
        Pipeline.compile
          ~opts:{ static_opts with Pipeline.block_profile = Some pilot.profile }
          ~spans ~cache env source)
  in
  let greedy_c =
    audition Greedy (fun () ->
        Pipeline.compile
          ~opts:
            {
              static_opts with
              Pipeline.placement = Wario_transforms.Checkpoint_inserter.Greedy;
            }
          ~spans ~cache env source)
  in
  (* The interprocedural candidate is a pure static win: call-graph
     weights, cost-coupled expansion and (when [opts.motion] is set)
     certifier-validated checkpoint motion, no profile. *)
  let inter_c =
    audition Inter (fun () ->
        Pipeline.compile
          ~opts:
            {
              static_opts with
              Pipeline.placement =
                Wario_transforms.Checkpoint_inserter.Interprocedural;
            }
          ~spans ~cache env source)
  in
  let measure v (c : Pipeline.compiled) =
    S.with_span spans
      ~attrs:[ ("variant", S.Str (variant_name v)) ]
      "pgo.measure"
    @@ fun () ->
    let r =
      E.Emulator.run ?fuel:pilot_fuel ~supply:E.Power.Continuous
        ~verify:false ?engine c.Pipeline.image
    in
    S.add_counter ~by:r.E.Emulator.checkpoints_total spans "dyn_ckpts";
    S.add_counter ~by:r.E.Emulator.cycles spans "cycles";
    (r.E.Emulator.checkpoints_total, r.E.Emulator.cycles)
  in
  (* preference order breaks exact ties toward the more-informed placement *)
  let candidates =
    [
      (Profile, profile_c);
      (Inter, inter_c);
      (Static, static_c);
      (Greedy, greedy_c);
    ]
  in
  let scored =
    List.map (fun (v, c) -> (v, c, measure v c)) candidates
  in
  let best_v, _, _ =
    List.fold_left
      (fun (bv, bc, bs) (v, c, s) -> if s < bs then (v, c, s) else (bv, bc, bs))
      (match scored with x :: _ -> x | [] -> assert false)
      scored
  in
  {
    greedy_c;
    static_c;
    profile_c;
    inter_c;
    pilot =
      {
        pilot with
        selected = best_v;
        measured = List.map (fun (v, _, (k, _)) -> (v, k)) scored;
      };
  }

(** [compile env source]: {!compile_candidates}, keeping only the
    measured guard's choice. *)
let compile ?opts ?spans ?pilot_fuel ?engine ?cache
    (env : Pipeline.environment) (source : string) : Pipeline.compiled * pilot
    =
  let cs =
    compile_candidates ?opts ?spans ?pilot_fuel ?engine ?cache env source
  in
  (compiled_of cs cs.pilot.selected, cs.pilot)

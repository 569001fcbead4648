(* The WARio compilation pipeline: the paper's contribution, assembled.

   An [environment] names one of the software environments of the
   evaluation (paper §5.1.3); [compile] runs MiniC source through the
   corresponding sequence of transformations (Figure 2) down to a linked
   TM2 image ready for the emulator. *)

module Ir = Wario_ir.Ir
module T = Wario_transforms
module A = Wario_analysis
module B = Wario_backend
module S = Wario_obs.Span

type environment =
  | Plain  (** uninstrumented C; continuous power only *)
  | Ratchet  (** basic alias analysis + hitting set; naive back end *)
  | R_pdg  (** Ratchet with precise PDG information *)
  | Epilog_opt  (** R-PDG + Epilog Optimizer (basic spill inserter) *)
  | Write_cluster  (** R-PDG + Write Clusterer + HS spill inserter *)
  | Loop_cluster  (** R-PDG + Loop Write Clusterer + HS spill inserter *)
  | Wario  (** complete WARio *)
  | Wario_expander  (** WARio + Expander *)

let environment_name = function
  | Plain -> "plain-c"
  | Ratchet -> "ratchet"
  | R_pdg -> "r-pdg"
  | Epilog_opt -> "epilog-optimizer"
  | Write_cluster -> "write-clusterer"
  | Loop_cluster -> "loop-write-clusterer"
  | Wario -> "wario"
  | Wario_expander -> "wario-expander"

let all_environments =
  [ Plain; Ratchet; R_pdg; Epilog_opt; Write_cluster; Loop_cluster; Wario;
    Wario_expander ]

let environment_of_name s =
  List.find_opt (fun e -> environment_name e = s) all_environments

type options = {
  unroll_factor : int;  (** the paper's N; default 8 (§5.2.4) *)
  expander_size_limit : int;
  optimize : bool;  (** run the -O3 substitute first (default true) *)
  expander_profile : (string * int) list option;
      (** dynamic call counts: switches the Expander to profile-guided mode *)
  max_region : int option;
      (** bound idempotent regions to ~n estimated cycles (extension, §6) *)
  drop_middle_ckpt : int option;
      (** TEST-ONLY sabotage hook for the fault-injection harness: delete
          the n-th middle-end checkpoint after insertion, deliberately
          re-opening the WAR it covered.  Never set outside tests. *)
  placement : T.Checkpoint_inserter.placement;
      (** checkpoint placement policy for both the middle-end inserter and
          the back end's stack-spill inserter (default [Cost_guided]) *)
  block_profile : A.Costmodel.profile option;
      (** measured per-block entry counts from a PGO pilot run; validated
          against the current label set and ignored (with a warning) when
          empty or stale.  Only consulted under [Cost_guided]. *)
  elide : bool;
      (** run the certifier-validated checkpoint elision pass ({!Elide})
          after the back end, coalescing redundant middle-end/back-end
          checkpoint pairs.  Off by default (it re-certifies per
          candidate); `iclang pgo` and the placement benchmarks turn it
          on.  Only applies under [Cost_guided] and [Interprocedural]. *)
  motion : bool;
      (** run the certifier-validated checkpoint motion pass ({!Motion})
          after elision, relocating WAR checkpoints to cheaper blocks.
          Off by default; only applies under [Interprocedural] (motion
          needs the global weight table to price destinations). *)
}

let default_options =
  {
    unroll_factor = 8;
    expander_size_limit = 400;
    optimize = true;
    expander_profile = None;
    max_region = None;
    drop_middle_ckpt = None;
    placement = T.Checkpoint_inserter.Cost_guided;
    block_profile = None;
    elide = false;
    motion = false;
  }

(** What became of [options.block_profile] during placement. *)
type profile_status =
  | No_profile  (** none supplied: static cost model *)
  | Applied of int  (** profile used; [n] current labels matched *)
  | Fell_back of string
      (** profile rejected (empty/stale): static cost model, with a
          warning on stderr carrying this reason *)

type middle_stats = {
  wars_found : int;
  middle_ckpts : int;
  lwc : T.Loop_write_clusterer.stats option;
  wc_moves : int;
  expander : T.Expander.stats option;
  placement_exact : int;
      (** functions whose weighted cover was proven optimal *)
  placement_fallback : int;
      (** functions placed by the weighted-greedy fallback *)
  profile_status : profile_status;
  placements : T.Checkpoint_inserter.placement_info list;
      (** per-checkpoint rationale from the inserter ([--explain]) *)
  func_freqs : (string * float) list;
      (** call-graph invocation frequencies (only under [Interprocedural]) *)
}

type compiled = {
  env : environment;
  ir : Ir.program;  (** IR after all middle-end transformations *)
  mprog : Wario_machine.Isa.mprog;
  image : Wario_emulator.Image.t;
  middle : middle_stats;
  backend : B.Backend.stats;
  elision : Elide.stats option;  (** [Some] when [options.elide] ran *)
  motion : Motion.stats option;  (** [Some] when [options.motion] ran *)
  model_cost : float option;
      (** cost-model estimate of dynamic checkpoint executions per run:
          the sum of the placement weight of every checkpoint in the
          final image ([None] under [Greedy], which has no weights).
          Comparable across compiles of the same source; expansion
          trials themselves are judged by a measured reference run. *)
  text_bytes : int;
}

let backend_config = function
  | Plain -> B.Backend.plain_backend
  | Ratchet | R_pdg -> B.Backend.ratchet_backend
  | Epilog_opt ->
      (* paper §5.1.3: the HS spill inserter is disabled for this
         environment so it does not pollute the epilog results *)
      {
        B.Backend.spill_strategy = Some B.Stack_ckpt.Naive;
        epilog_style = B.Frame.Optimized;
      }
  | Write_cluster | Loop_cluster ->
      {
        B.Backend.spill_strategy = Some B.Stack_ckpt.Hitting_set;
        epilog_style = B.Frame.Naive;
      }
  | Wario | Wario_expander -> B.Backend.wario_backend

(* Delete the [n]-th (mod count) middle-end checkpoint of the program.
   This deliberately breaks the checkpoint schedule: the WAR the deleted
   checkpoint was covering becomes re-executable, which the lib/verify
   crash-consistency oracle must detect.  Returns false when the program
   has no middle-end checkpoints to drop. *)
let drop_middle_checkpoint (prog : Ir.program) (n : int) : bool =
  let is_middle = function
    | Ir.Checkpoint Ir.Middle_end_war -> true
    | _ -> false
  in
  let total =
    List.fold_left
      (fun acc (f : Ir.func) ->
        List.fold_left
          (fun acc (b : Ir.block) ->
            acc + List.length (List.filter is_middle b.Ir.insns))
          acc f.Ir.blocks)
      0 prog.Ir.funcs
  in
  if total = 0 then false
  else begin
    let target = ((n mod total) + total) mod total in
    let seen = ref 0 in
    List.iter
      (fun (f : Ir.func) ->
        List.iter
          (fun (b : Ir.block) ->
            b.Ir.insns <-
              List.filter
                (fun i ->
                  if is_middle i then begin
                    let k = !seen in
                    incr seen;
                    k <> target
                  end
                  else true)
                b.Ir.insns)
          f.Ir.blocks)
      prog.Ir.funcs;
    true
  end

(* The middle end is split at the placement boundary so the compilation
   cache can reuse its two halves independently (DESIGN.md §19):
   [middle_pre] is everything placement-independent (the "transformed
   WIR" stage — optimization, loop/write clustering, expansion) and
   [middle_place] is the placement suffix (profile validation, call
   graph, checkpoint insertion, region bounding, sabotage).  A
   placement-policy or profile change therefore re-runs only
   [middle_place] onward from a cached transformed WIR. *)

type pre_middle = {
  pm_lwc : T.Loop_write_clusterer.stats option;
  pm_wc_moves : int;
  pm_expander : T.Expander.stats option;
}

let middle_pre ~opts ~spans (env : environment) (prog : Ir.program) :
    pre_middle =
  if opts.optimize then
    S.with_span spans "middle.opt_pipeline" (fun () -> T.Opt_pipeline.run prog);
  let lwc =
    match env with
    | Loop_cluster | Wario | Wario_expander ->
        let st =
          S.with_span spans "middle.loop_write_clusterer" (fun () ->
              let st =
                T.Loop_write_clusterer.run ~unroll_factor:opts.unroll_factor
                  prog
              in
              let module L = T.Loop_write_clusterer in
              S.add_counter ~by:st.L.loops_unrolled spans "loops_unrolled";
              S.add_counter ~by:st.L.stores_postponed spans "stores_postponed";
              S.add_counter ~by:st.L.reads_instrumented spans
                "reads_instrumented";
              S.add_counter ~by:st.L.reads_forwarded spans "reads_forwarded";
              st)
        in
        (* clean up moves and dead snapshots left behind by the clustering
           (copy propagation and DCE never reorder memory operations) *)
        S.with_span spans "middle.lwc_cleanup" (fun () ->
            ignore (T.Copyprop.run prog);
            ignore (T.Dce.run prog));
        Some st
    | _ -> None
  in
  let expander =
    match (env, opts.placement) with
    | Plain, _ -> None
    (* Under [Interprocedural] expansion is a placement decision made by
       trial compilation in {!compile_ir} (each candidate inline needs a
       full compile of a program copy to be priced) — the middle end
       alone never expands under that policy. *)
    | _, T.Checkpoint_inserter.Interprocedural -> None
    | Wario_expander, _ ->
        Some
          (S.with_span spans "middle.expander" (fun () ->
               let st =
                 T.Expander.run ~size_limit:opts.expander_size_limit
                   ?profile:opts.expander_profile prog
               in
               S.add_counter ~by:st.T.Expander.candidates spans "candidates";
               S.add_counter ~by:st.T.Expander.inlined spans "inlined";
               st))
    | _ -> None
  in
  let wc_moves =
    match env with
    | Write_cluster | Wario | Wario_expander ->
        S.with_span spans "middle.write_clusterer" (fun () ->
            let n = T.Write_clusterer.run prog in
            S.add_counter ~by:n spans "stores_moved";
            n)
    | _ -> 0
  in
  { pm_lwc = lwc; pm_wc_moves = wc_moves; pm_expander = expander }

let middle_place ~opts ~spans (env : environment) (prog : Ir.program)
    (pre : pre_middle) : middle_stats =
  let lwc = pre.pm_lwc
  and expander = pre.pm_expander
  and wc_moves = pre.pm_wc_moves in
  (* Validate the PGO profile here — after every label-creating transform
     (unrolling, clustering, inlining) has run, so the label set the
     profile is checked against is the one placement will actually see. *)
  let profile_status, profile =
    match (opts.block_profile, opts.placement) with
    | None, _ | _, T.Checkpoint_inserter.Greedy -> (No_profile, None)
    | ( Some p,
        T.Checkpoint_inserter.(Cost_guided | Interprocedural) ) -> (
        let expected_labels =
          List.concat_map
            (fun (f : Ir.func) ->
              f.Ir.fname
              :: List.map
                   (fun (b : Ir.block) ->
                     A.Costmodel.mangle f.Ir.fname b.Ir.bname)
                   f.Ir.blocks)
            prog.Ir.funcs
        in
        match A.Costmodel.validate_profile p ~expected_labels with
        | Ok n -> (Applied n, Some p)
        | Error reason ->
            Printf.eprintf
              "warning: ignoring block profile (%s); falling back to the \
               static cost model\n\
               %!"
              reason;
            (Fell_back reason, None))
  in
  (* The call graph for placement is built AFTER every structure-changing
     transform (unrolling, clustering, expansion): frequencies must price
     the blocks the solver will actually see. *)
  let callgraph =
    match (env, opts.placement) with
    | Plain, _ | _, (T.Checkpoint_inserter.Greedy | Cost_guided) -> None
    | _, T.Checkpoint_inserter.Interprocedural ->
        Some
          (S.with_span spans "middle.callgraph_place" (fun () ->
               A.Callgraph.build prog))
  in
  let wars_found, middle_ckpts, placement_exact, placement_fallback, placements
      =
    match env with
    | Plain -> (0, 0, 0, 0, [])
    | _ ->
        let mode =
          match env with Ratchet -> A.Alias.Basic | _ -> A.Alias.Precise
        in
        let global =
          match callgraph with
          | Some cg -> Some cg.A.Callgraph.block_weight
          | None -> None
        in
        let st =
          S.with_span spans "middle.checkpoint_inserter" (fun () ->
              let st =
                T.Checkpoint_inserter.run ~mode ~placement:opts.placement
                  ?profile ?global prog
              in
              S.add_counter ~by:st.T.Checkpoint_inserter.wars spans "wars";
              S.add_counter ~by:st.T.Checkpoint_inserter.checkpoints spans
                "checkpoints";
              S.add_counter ~by:st.T.Checkpoint_inserter.hs_nodes spans
                "hs_nodes";
              S.add_counter ~by:st.T.Checkpoint_inserter.fallback spans
                "fallback";
              S.add_counter ~by:st.T.Checkpoint_inserter.exact spans "exact";
              st)
        in
        (st.wars, st.checkpoints, st.exact, st.fallback, st.placements)
  in
  (* optional extension: bound region sizes for tiny storage capacitors *)
  (match (env, opts.max_region) with
  | Plain, _ | _, None -> ()
  | _, Some n ->
      S.with_span spans "middle.region_bounder" (fun () ->
          ignore (T.Region_bounder.run ~max_instrs:n prog)));
  (* test-only sabotage: break the schedule so the verifier has a target *)
  (match (env, opts.drop_middle_ckpt) with
  | Plain, _ | _, None -> ()
  | _, Some n -> ignore (drop_middle_checkpoint prog n));
  {
    wars_found;
    middle_ckpts;
    lwc;
    wc_moves;
    expander;
    placement_exact;
    placement_fallback;
    profile_status;
    placements;
    func_freqs =
      (match callgraph with
      | Some cg ->
          List.map
            (fun f -> (f, cg.A.Callgraph.func_freq f))
            cg.A.Callgraph.cg_funcs
      | None -> []);
  }

(** Run the middle end for [env] on [prog] (mutates it).  A live [spans]
    recorder gets a ["middle"] span with one child span per pass
    ([middle.<pass>]) carrying the headline deltas of the pass as
    counters. *)
let middle_end ?(opts = default_options) ?(spans = S.disabled)
    (env : environment) (prog : Ir.program) : middle_stats =
  S.with_span spans "middle" @@ fun () ->
  let pre = middle_pre ~opts ~spans env prog in
  middle_place ~opts ~spans env prog pre

(** Compile an already-lowered IR program (used by tests and by
    {!compile} after the front end). *)
(* Weight table for the back end's stack-spill inserter, keyed by mangled
   machine labels (Isel's 1:1 block mapping plus the bare-[fname] prolog
   stub).  Built on the post-middle-end IR, whose block structure the back
   end preserves; uses the validated profile when one was applied.
   Returned as a concrete table, not a closure, so the machine-program
   cache stage can marshal it alongside the backend output (the image
   stage needs it again for elision/motion pricing and the model cost). *)
let backend_weight_table (middle : middle_stats) (opts : options)
    (prog : Ir.program) : (string, float) Hashtbl.t option =
  match opts.placement with
  | T.Checkpoint_inserter.Greedy -> None
  | T.Checkpoint_inserter.(Cost_guided | Interprocedural) as pl ->
      let profile =
        match middle.profile_status with
        | Applied _ -> opts.block_profile
        | No_profile | Fell_back _ -> None
      in
      (* Under Interprocedural, fall back to call-graph-scaled global
         weights instead of per-invocation statics — the stub weight then
         IS the function's expected invocation count, which is what the
         entry/exit spill checkpoints cost. *)
      let cg =
        match pl with
        | T.Checkpoint_inserter.Interprocedural ->
            Some (A.Callgraph.build prog)
        | _ -> None
      in
      let tbl : (string, float) Hashtbl.t = Hashtbl.create 256 in
      List.iter
        (fun (f : Ir.func) ->
          let cfg = A.Cfg.build f in
          let dom = A.Dominance.build cfg in
          let loops = A.Loops.build cfg dom in
          let static = A.Costmodel.static_weights cfg loops in
          let base =
            match cg with
            | Some cg -> fun lbl -> cg.A.Callgraph.block_weight f.Ir.fname lbl
            | None -> static
          in
          let weigh =
            match profile with
            | None -> base
            | Some p ->
                A.Costmodel.profile_weights p ~fname:f.Ir.fname ~fallback:base
          in
          List.iter
            (fun (b : Ir.block) ->
              Hashtbl.replace tbl
                (A.Costmodel.mangle f.Ir.fname b.Ir.bname)
                (weigh b.Ir.bname))
            f.Ir.blocks;
          (* the prolog stub runs once per invocation, like the entry *)
          let stub_weight =
            match profile with
            | Some p -> (
                match List.assoc_opt f.Ir.fname p with
                | Some c -> max (float_of_int c) A.Costmodel.min_weight
                | None -> weigh (A.Cfg.entry cfg))
            | None -> (
                match cg with
                | Some cg ->
                    Float.max
                      (cg.A.Callgraph.func_freq f.Ir.fname)
                      A.Costmodel.min_weight
                | None -> weigh (A.Cfg.entry cfg))
          in
          Hashtbl.replace tbl f.Ir.fname stub_weight)
        prog.Ir.funcs;
      Some tbl

let weights_of_table (tbl : (string, float) Hashtbl.t) : string -> float =
 fun lbl ->
  match Hashtbl.find_opt tbl lbl with
  | Some w -> w
  | None -> A.Costmodel.min_weight

(* Model-priced dynamic checkpoint cost of a linked image: the placement
   weight of every Ckpt's block, summed.  Functions unreachable from main
   are skipped — inlining orphans out-of-line copies whose checkpoints
   never execute, and pricing them would bias every expansion trial. *)
let image_ckpt_cost ~(weights : string -> float) (prog : Ir.program)
    (image : Wario_emulator.Image.t) : float =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) -> Hashtbl.replace by_name f.Ir.fname f)
    prog.Ir.funcs;
  let reached = Hashtbl.create 16 in
  let rec visit name =
    match Hashtbl.find_opt by_name name with
    | Some f when not (Hashtbl.mem reached name) ->
        Hashtbl.replace reached name ();
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (function Ir.Call (_, callee, _) -> visit callee | _ -> ())
              b.Ir.insns)
          f.Ir.blocks
    | _ -> ()
  in
  if Hashtbl.mem by_name "main" then visit "main"
  else List.iter (fun (f : Ir.func) -> visit f.Ir.fname) prog.Ir.funcs;
  let func_of_label lbl =
    match String.index_opt lbl '$' with
    | Some i -> String.sub lbl 0 i
    | None -> lbl (* bare prolog-stub label *)
  in
  let starts = Array.of_list (Wario_emulator.Image.block_starts image) in
  let n = Array.length starts in
  let cost = ref 0.0 and cursor = ref 0 in
  Array.iteri
    (fun pc instr ->
      while !cursor + 1 < n && snd starts.(!cursor + 1) <= pc do
        incr cursor
      done;
      match instr with
      | Wario_machine.Isa.Ckpt _ when n > 0 ->
          let lbl = fst starts.(!cursor) in
          if Hashtbl.mem reached (func_of_label lbl) then
            cost := !cost +. weights lbl
      | _ -> ())
    image.Wario_emulator.Image.code;
  !cost

(* The post-placement stage runners, shared verbatim by the uncached
   {!compile_ir} path and the cache-aware {!compile_with_report} ladder
   so the two paths cannot drift. *)

let run_backend ~spans env ~block_weights (prog : Ir.program) =
  S.with_span spans "backend" (fun () ->
      B.Backend.run ~spans ?block_weights ~config:(backend_config env) prog)

let run_elide ~(opts : options) ~spans env ~block_weights
    (mprog : Wario_machine.Isa.mprog) : Elide.stats option =
  if
    opts.elide && env <> Plain
    && (opts.placement = T.Checkpoint_inserter.Cost_guided
       || opts.placement = T.Checkpoint_inserter.Interprocedural)
  then begin
    let boundary = opts.placement = T.Checkpoint_inserter.Interprocedural in
    Some
      (S.with_span spans "backend.elide" (fun () ->
           let s = Elide.run ~boundary ?weight:block_weights ~spans mprog in
           S.add_counter ~by:s.Elide.elided spans "elided";
           S.add_counter ~by:s.Elide.boundary_elided spans "boundary_elided";
           s))
  end
  else None

let run_motion ~(opts : options) ~spans env ~block_weights
    (mprog : Wario_machine.Isa.mprog) : Motion.stats option =
  match (opts.motion, env, opts.placement, block_weights) with
  | true, env', T.Checkpoint_inserter.Interprocedural, Some weights
    when env' <> Plain ->
      Some
        (S.with_span spans "backend.motion" (fun () ->
             let s = Motion.run ~weights ~spans mprog in
             S.add_counter ~by:s.Motion.applied spans "applied";
             s))
  | _ -> None

let run_link ~spans (mprog : Wario_machine.Isa.mprog) : Wario_emulator.Image.t
    =
  S.with_span spans "link" (fun () ->
      let image = Wario_emulator.Image.link mprog in
      S.add_counter ~by:image.Wario_emulator.Image.text_bytes spans "text_bytes";
      S.add_counter ~by:image.Wario_emulator.Image.data_bytes spans "data_bytes";
      image)

let rec compile_ir ?(opts = default_options) ?(spans = S.disabled)
    (env : environment) (prog : Ir.program) : compiled =
  let trial_expander = run_trial_expander ~opts ~spans env prog in
  let middle = middle_end ~opts ~spans env prog in
  let middle =
    match trial_expander with
    | Some _ -> { middle with expander = trial_expander }
    | None -> middle
  in
  S.with_span spans "middle.ir_verify" (fun () ->
      Wario_ir.Ir_verify.verify_program prog);
  let wtbl = backend_weight_table middle opts prog in
  let block_weights = Option.map weights_of_table wtbl in
  let mprog, backend = run_backend ~spans env ~block_weights prog in
  let elision = run_elide ~opts ~spans env ~block_weights mprog in
  let motion = run_motion ~opts ~spans env ~block_weights mprog in
  let image = run_link ~spans mprog in
  let model_cost =
    match block_weights with
    | None -> None
    | Some weights -> Some (image_ckpt_cost ~weights prog image)
  in
  {
    env;
    ir = prog;
    mprog;
    image;
    middle;
    backend;
    elision;
    motion;
    model_cost;
    text_bytes = image.Wario_emulator.Image.text_bytes;
  }

(* Cost-coupled expansion (Interprocedural only) happens before the
   middle end, because each candidate inline is auditioned by a full
   compile of a program copy.  The trial compiles themselves are never
   span-instrumented — only the audition total is attributed. *)
and run_trial_expander ~opts ~spans (env : environment) (prog : Ir.program) :
    T.Expander.stats option =
  match (env, opts.placement) with
  | Plain, _ -> None
  | _, T.Checkpoint_inserter.Interprocedural when opts.expander_size_limit > 0
    ->
      Some
        (S.with_span spans "middle.expander_trials" (fun () ->
             let st, auditions, compiles = trial_expand ~opts env prog in
             S.add_counter ~by:st.T.Expander.candidates spans "candidates";
             S.add_counter ~by:st.T.Expander.inlined spans "inlined";
             S.add_counter ~by:auditions spans "auditions";
             S.add_counter ~by:compiles spans "compiles";
             st))
  | _ -> None

(* The audition loop: candidates in descending closed-form benefit, each
   compiled on a copy of the program (expansion disabled; a profile's
   labels would be stale on the inlined copy) and judged by one measured
   reference run of the trial image — continuous power, verification off,
   a bounded cycle budget.  The closed form and the static model both
   mispredict inlining: removing a call deletes a free WAR barrier, and
   the WARs that re-opens live at *real* trip counts the model's
   per-loop guess cannot see (the paper's "sometimes detrimental"
   Expander caveat, and its §6 remedy: profile it).  So the model
   proposes and the measurement disposes: a candidate is kept only when
   the dynamic checkpoint count of the whole trial image strictly drops.
   Accepted inlines stay in force for later trials and the list is
   re-auditioned (bounded passes) because an accepted inline can change a
   later candidate's worth; a code-size budget of [4 * size_limit] added
   instructions bounds growth.  Programs that exhaust the trial budget
   (or break the trial build) audit as infinitely expensive, so
   non-terminating inputs simply keep the un-expanded program.  Finally
   the accepted set is replayed on the real program.

   Auditions are memoized on the selection list.  A later pass
   re-auditions candidates against an accepted set that may not have
   changed since they were last heard, and two candidate records can be
   equal (same caller, callee and score: [apply_candidate] inlines the
   first remaining site, so equal lists build identical programs).  Each
   trial compiles a fresh copy and [compile_ir] is deterministic, so a
   repeated list gets its recorded count without compiling again.
   Returns the stats with the number of auditions and of distinct trial
   compiles. *)
and trial_expand ~opts env (prog : Ir.program) : T.Expander.stats * int * int
    =
  let cg = A.Callgraph.build prog in
  let cands =
    T.Expander.costed_candidates ~size_limit:opts.expander_size_limit cg prog
  in
  let trial_opts =
    { opts with expander_size_limit = 0; block_profile = None }
  in
  let compiles = ref 0 in
  let measure sel =
    incr compiles;
    let p = Ir.copy_program prog in
    List.iter (fun c -> ignore (T.Expander.apply_candidate p c)) sel;
    match
      let c = compile_ir ~opts:trial_opts env p in
      let r =
        Wario_emulator.Emulator.run ~fuel:100_000_000
          ~supply:Wario_emulator.Power.Continuous ~verify:false c.image
      in
      r.Wario_emulator.Emulator.checkpoints_total
    with
    | n -> n
    | exception _ -> max_int (* no termination, or a broken trial build *)
  in
  let memo : (T.Expander.cand list, int) Hashtbl.t = Hashtbl.create 32 in
  let auditions = ref 0 in
  let cost_of sel =
    incr auditions;
    match Hashtbl.find_opt memo sel with
    | Some n -> n
    | None ->
        let n = measure sel in
        Hashtbl.replace memo sel n;
        n
  in
  let budget = ref (4 * opts.expander_size_limit) in
  let accepted = ref [] in
  let cur = ref (cost_of []) in
  if !cur < max_int then begin
    let remaining = ref cands in
    let passes = ref 0 in
    let improving = ref true in
    while !improving && !passes < 3 do
      incr passes;
      improving := false;
      remaining :=
        List.filter
          (fun (cand : T.Expander.cand) ->
            if cand.T.Expander.xc_size > !budget then true
            else begin
              let cost = cost_of (List.rev (cand :: !accepted)) in
              if cost < !cur then begin
                accepted := cand :: !accepted;
                budget := !budget - cand.T.Expander.xc_size;
                cur := cost;
                improving := true;
                false
              end
              else true
            end)
          !remaining
    done
  end;
  let sel = List.rev !accepted in
  List.iter (fun c -> ignore (T.Expander.apply_candidate prog c)) sel;
  ( { T.Expander.candidates = List.length cands; inlined = List.length sel },
    !auditions,
    !compiles )

(* ------------------------------------------------------------------ *)
(* Stage keys and the content-addressed compile (DESIGN.md §19)         *)
(* ------------------------------------------------------------------ *)

let stage_names = [ "front"; "wir"; "place"; "mach"; "image" ]

(* Mirrors Emulator.create's sampling of WARIO_SAVE_ALL exactly ("" and
   "0" mean off).  The flag only matters to compilation under
   [Interprocedural] (trial compiles run the emulator to audition
   inlines), but it participates in every post-frontend key: the cache
   must never have to reason about which configurations could have
   observed it.  Sampled per call, not memoized — tests flip it. *)
let save_all_sampled () =
  match Sys.getenv_opt "WARIO_SAVE_ALL" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let canon_bool b = if b then "1" else "0"
let canon_opt_int = function None -> "-" | Some n -> string_of_int n

let canon_placement = function
  | T.Checkpoint_inserter.Greedy -> "greedy"
  | T.Checkpoint_inserter.Cost_guided -> "cost-guided"
  | T.Checkpoint_inserter.Interprocedural -> "interprocedural"

(* Canonical rendering of a (label, count) profile: sorted, so two
   permutations of the same counts share a key. *)
let canon_counts = function
  | None -> "-"
  | Some p ->
      List.sort compare p
      |> List.map (fun (l, c) -> l ^ ":" ^ string_of_int c)
      |> String.concat ","

(** The five stage keys of one (source, env, options) compile, in
    pipeline order.  Each key is a canonical hash of the stage's input
    artifact (via the parent stage's key) plus exactly the option fields
    that stage consumes, so incremental recompilation falls out of the
    chaining: a [placement]/[block_profile] change misses from "place"
    down but reuses the cached transformed WIR, and an [elide]/[motion]
    toggle re-runs only the "image" stage (elision + motion + link) on
    the cached machine program.  The exception is [Interprocedural]
    expansion, whose audition loop compiles and *runs* full trial
    programs before the middle end: there the "wir" key conservatively
    absorbs every option the trial compiles consume (including the
    sampled WARIO_SAVE_ALL emulator flag). *)
let stage_keys ?(opts = default_options) (env : environment) (source : string)
    : (string * Cache.Key.t) list =
  let k_front = Cache.Key.of_parts [ ("stage", "front"); ("source", source) ] in
  let inter_trials =
    opts.placement = T.Checkpoint_inserter.Interprocedural
    && env <> Plain && opts.expander_size_limit > 0
  in
  let k_wir =
    Cache.Key.of_parts
      ([
         ("stage", "wir");
         ("parent", k_front);
         ("env", environment_name env);
         ("save_all", canon_bool (save_all_sampled ()));
         ("optimize", canon_bool opts.optimize);
         ("unroll_factor", string_of_int opts.unroll_factor);
         ("expander_size_limit", string_of_int opts.expander_size_limit);
         ("expander_profile", canon_counts opts.expander_profile);
       ]
      @
      if inter_trials then
        [
          ("trial_placement", "interprocedural");
          ("trial_max_region", canon_opt_int opts.max_region);
          ("trial_drop_middle_ckpt", canon_opt_int opts.drop_middle_ckpt);
          ("trial_elide", canon_bool opts.elide);
          ("trial_motion", canon_bool opts.motion);
          ("trial_save_all", canon_bool (save_all_sampled ()));
        ]
      else [])
  in
  let k_place =
    Cache.Key.of_parts
      [
        ("stage", "place");
        ("parent", k_wir);
        ("placement", canon_placement opts.placement);
        ("block_profile", canon_counts opts.block_profile);
        ("max_region", canon_opt_int opts.max_region);
        ("drop_middle_ckpt", canon_opt_int opts.drop_middle_ckpt);
      ]
  in
  let k_mach = Cache.Key.of_parts [ ("stage", "mach"); ("parent", k_place) ] in
  let k_image =
    Cache.Key.of_parts
      [
        ("stage", "image");
        ("parent", k_mach);
        ("elide", canon_bool opts.elide);
        ("motion", canon_bool opts.motion);
      ]
  in
  [
    ("front", k_front);
    ("wir", k_wir);
    ("place", k_place);
    ("mach", k_mach);
    ("image", k_image);
  ]

let image_key ?opts (env : environment) (source : string) : Cache.Key.t =
  List.assoc "image" (stage_keys ?opts env source)

let compile_uncached ~opts ~spans (env : environment) (source : string) :
    compiled =
  S.with_span spans
    ~attrs:[ ("env", S.Str (environment_name env)) ]
    "pipeline.compile"
  @@ fun () ->
  let prog =
    S.with_span spans "frontend" (fun () -> Wario_minic.Minic.compile source)
  in
  compile_ir ~opts ~spans env prog

(* Stage payloads are marshalled snapshots taken BEFORE any later pass
   mutates the artifact ([Cache.put] marshals eagerly): the "wir" entry
   is the program before placement mutates it, the "mach" entry is the
   machine program before elision/motion rewrite it in place.  Loading
   an entry yields a fresh structure, so cached prefixes are safe to
   mutate onward from. *)
let compile_with_report ?(opts = default_options) ?(spans = S.disabled)
    ~(cache : Cache.t) (env : environment) (source : string) :
    compiled * (string * bool) list =
  if not (Cache.enabled cache) then
    (compile_uncached ~opts ~spans env source, [])
  else
    S.with_span spans
      ~attrs:
        [ ("env", S.Str (environment_name env)); ("cached", S.Str "on") ]
      "pipeline.compile"
    @@ fun () ->
    let keys = stage_keys ~opts env source in
    let k s = List.assoc s keys in
    let report = ref [] in
    (* per-stage hit/miss counters on the pipeline.compile span *)
    let note stage hit =
      S.add_counter spans
        (Printf.sprintf "cache_%s_%s" stage (if hit then "hit" else "miss"));
      report := (stage, hit) :: !report
    in
    (* place artifact: the program after the whole middle end (what
       [compiled.ir] exposes) plus its stats — always materialized, even
       on a full image hit, because the compiled record carries it *)
    let prog, middle =
      match Cache.get cache (k "place") with
      | Some v ->
          note "place" true;
          v
      | None ->
          note "place" false;
          let prog, pre =
            match Cache.get cache (k "wir") with
            | Some v ->
                note "wir" true;
                v
            | None ->
                note "wir" false;
                let prog =
                  match Cache.get cache (k "front") with
                  | Some p ->
                      note "front" true;
                      p
                  | None ->
                      note "front" false;
                      let p =
                        S.with_span spans "frontend" (fun () ->
                            Wario_minic.Minic.compile source)
                      in
                      Cache.put cache ~stage:"front" (k "front") p;
                      p
                in
                let trial = run_trial_expander ~opts ~spans env prog in
                let pre =
                  S.with_span spans "middle" (fun () ->
                      middle_pre ~opts ~spans env prog)
                in
                let pre =
                  match trial with
                  | Some _ -> { pre with pm_expander = trial }
                  | None -> pre
                in
                Cache.put cache ~stage:"wir" (k "wir") (prog, pre);
                (prog, pre)
          in
          let middle =
            S.with_span spans "middle" (fun () ->
                middle_place ~opts ~spans env prog pre)
          in
          S.with_span spans "middle.ir_verify" (fun () ->
              Wario_ir.Ir_verify.verify_program prog);
          Cache.put cache ~stage:"place" (k "place") (prog, middle);
          (prog, middle)
    in
    let mprog0, backend, wtbl =
      match Cache.get cache (k "mach") with
      | Some v ->
          note "mach" true;
          v
      | None ->
          note "mach" false;
          let wtbl = backend_weight_table middle opts prog in
          let block_weights = Option.map weights_of_table wtbl in
          let mprog, backend = run_backend ~spans env ~block_weights prog in
          Cache.put cache ~stage:"mach" (k "mach") (mprog, backend, wtbl);
          (mprog, backend, wtbl)
    in
    let mprog, image, elision, motion, model_cost, text_bytes =
      match Cache.get cache (k "image") with
      | Some v ->
          note "image" true;
          v
      | None ->
          note "image" false;
          let block_weights = Option.map weights_of_table wtbl in
          let elision = run_elide ~opts ~spans env ~block_weights mprog0 in
          let motion = run_motion ~opts ~spans env ~block_weights mprog0 in
          let image = run_link ~spans mprog0 in
          let model_cost =
            match wtbl with
            | None -> None
            | Some t ->
                Some
                  (image_ckpt_cost ~weights:(weights_of_table t) prog image)
          in
          let v =
            ( mprog0,
              image,
              elision,
              motion,
              model_cost,
              image.Wario_emulator.Image.text_bytes )
          in
          Cache.put cache ~stage:"image" (k "image") v;
          v
    in
    ( {
        env;
        ir = prog;
        mprog;
        image;
        middle;
        backend;
        elision;
        motion;
        model_cost;
        text_bytes;
      },
      List.rev !report )

(** Compile MiniC source text under a software environment.  With an
    enabled [cache] (explicit, or ambient via [WARIO_CACHE_DIR] when the
    argument is omitted) the compile runs through the keyed stage ladder
    and reuses every cached prefix; with the cache disabled this is the
    classic single-pass pipeline. *)
let compile ?(opts = default_options) ?(spans = S.disabled) ?cache
    (env : environment) (source : string) : compiled =
  let cache =
    match cache with Some c -> c | None -> Cache.from_env ()
  in
  if Cache.enabled cache then
    fst (compile_with_report ~opts ~spans ~cache env source)
  else compile_uncached ~opts ~spans env source

(** Static WAR-freedom certification of the linked image (lib/certify):
    translation validation of the whole pipeline above. *)
let certify (c : compiled) : Wario_certify.Certify.verdict =
  Wario_certify.Certify.certify c.image

let certify_report (c : compiled) (v : Wario_certify.Certify.verdict) : string =
  Wario_certify.Certify.report c.image v

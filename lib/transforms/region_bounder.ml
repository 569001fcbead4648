(* Location-specific checkpoints (paper §6, "Location-specific
   Checkpoints") — an extension the paper leaves open: bound the size of
   every idempotent region so that devices with very small storage
   capacitors (very short on-times) can still make forward progress.

   WARio itself places checkpoints only where WARs demand them, which can
   leave long checkpoint-free stretches (paper Figure 7 maxima).  This pass
   inserts additional checkpoints so that

   - every cycle of the CFG contains at least one barrier, and
   - no barrier-free path executes more than [max_instrs] instructions
     (instructions approximate cycles: the bound is a capacitor-sizing
     knob, not an exact guarantee).

   The algorithm is a forward dataflow over "instructions executed since the
   last barrier" (taking the max over predecessors), inserting a checkpoint
   wherever the running distance would exceed the bound.  It runs after the
   checkpoint inserter so existing checkpoints count as barriers. *)

open Wario_ir.Ir
module Analysis = Wario_analysis

type stats = { bounded_functions : int; extra_checkpoints : int }

(* Cost estimate per IR instruction, roughly matching the TM2 lowering. *)
let instr_cost = function
  | Load _ | Store _ -> 2
  | Call _ -> 4
  | Checkpoint _ -> 0
  | Bin (_, (Sdiv | Udiv | Srem | Urem), _, _) -> 6
  | _ -> 1

let run_func ~(max_instrs : int) (f : func) : int =
  let added = ref 0 in
  (* 1. every cycle needs a barrier: find loops with no barrier and plant a
     checkpoint at the header *)
  let cfg = Analysis.Cfg.build f in
  let dom = Analysis.Dominance.build cfg in
  let loops = Analysis.Loops.build cfg dom in
  List.iter
    (fun (l : Analysis.Loops.loop) ->
      let has_barrier =
        Wario_support.Util.Str_set.exists
          (fun lbl -> List.exists is_barrier (find_block f lbl).insns)
          l.blocks
      in
      if not has_barrier then begin
        insert_at f (l.header, 0) [ Checkpoint Middle_end_war ];
        incr added
      end)
    loops.loops;
  (* 2. bound barrier-free path lengths with a forward fixpoint *)
  let cfg = Analysis.Cfg.build f in
  let entry_dist = Hashtbl.create 32 in
  List.iter (fun lbl -> Hashtbl.replace entry_dist lbl 0) (Analysis.Cfg.labels cfg);
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    incr rounds;
    changed := false;
    List.iter
      (fun lbl ->
        let b = Analysis.Cfg.block cfg lbl in
        let din = Hashtbl.find entry_dist lbl in
        (* walk the block, inserting checkpoints where the bound trips *)
        let d = ref din in
        let out = ref [] in
        List.iter
          (fun ins ->
            let c = instr_cost ins in
            if is_barrier ins then begin
              out := ins :: !out;
              d := 0
            end
            else if !d + c > max_instrs then begin
              out := ins :: Checkpoint Middle_end_war :: !out;
              incr added;
              changed := true;
              d := c
            end
            else begin
              out := ins :: !out;
              d := !d + c
            end)
          b.insns;
        b.insns <- List.rev !out;
        let dout = !d + 1 (* terminator *) in
        List.iter
          (fun s ->
            let cur = Hashtbl.find entry_dist s in
            if dout > cur then begin
              Hashtbl.replace entry_dist s dout;
              changed := true
            end)
          (Analysis.Cfg.succs cfg lbl))
      (Analysis.Cfg.labels cfg)
  done;
  !added

(** Bound every idempotent region of the program to roughly [max_instrs]
    executed instructions; returns insertion statistics. *)
let min_bound = 4

let run ~(max_instrs : int) (p : program) : stats =
  if max_instrs < min_bound then invalid_arg "Region_bounder.run: bound too small";
  let extra = List.fold_left (fun n f -> n + run_func ~max_instrs f) 0 p.funcs in
  { bounded_functions = List.length p.funcs; extra_checkpoints = extra }

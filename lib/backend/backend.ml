(* Back-end driver: WIR program -> TM2 machine program.

   Pipeline per function (paper Figure 2, dark-blue area):
     isel -> register allocation (no slot sharing) ->
     stack-spill checkpoint inserter (naive or hitting-set) ->
     frame lowering with pop conversion (naive or optimized epilogs) ->
     checkpoint live-mask computation. *)

module I = Wario_machine.Isa
module Ir = Wario_ir.Ir

type config = {
  spill_strategy : Stack_ckpt.strategy option;  (** [None] = uninstrumented *)
  epilog_style : Frame.epilog_style;
}

let plain_backend = { spill_strategy = None; epilog_style = Frame.Bare }

let ratchet_backend =
  { spill_strategy = Some Stack_ckpt.Naive; epilog_style = Frame.Naive }

let wario_backend =
  { spill_strategy = Some Stack_ckpt.Hitting_set; epilog_style = Frame.Optimized }

type stats = {
  spill_wars : int;
  spill_ckpts : int;
  spill_slots : int;
}

let mdata_of_global (g : Ir.global) : I.data =
  {
    I.dname = g.gname;
    dsize = g.gsize;
    dalign = g.galign;
    dinit =
      List.map
        (fun (off, w, v) -> (off, Ir.bytes_of_width w, v))
        g.ginit;
  }

(** Compile a WIR program to machine code.  With a live [spans] recorder,
    each per-function pass runs in a child span ([backend.isel],
    [backend.webs], ...) of the caller's open span, which also receives the
    function count and the spill deltas as counters.  [block_weights]
    (mangled machine label -> estimated execution frequency) makes the
    stack-spill checkpoint inserter cost-guided. *)
let run ?(spans = Wario_obs.Span.disabled)
    ?(block_weights : (string -> float) option) ~(config : config)
    (p : Ir.program) : I.mprog * stats =
  let module S = Wario_obs.Span in
  let pass name f = S.with_span spans ("backend." ^ name) f in
  let stats = ref { spill_wars = 0; spill_ckpts = 0; spill_slots = 0 } in
  let mfuncs =
    List.map
      (fun (f : Ir.func) ->
        let mf, next_vreg = pass "isel" (fun () -> Isel.select_func f) in
        pass "webs" (fun () -> ignore (Webs.run mf ~next_vreg));
        let ra = pass "regalloc" (fun () -> Regalloc.run mf) in
        let sc =
          match config.spill_strategy with
          | Some strategy ->
              pass "stack_ckpt" (fun () ->
                  Stack_ckpt.run ?weight:block_weights ~strategy ra.mfunc)
          | None -> { Stack_ckpt.spill_wars = 0; spill_ckpts = 0 }
        in
        let returns =
          List.exists
            (fun (b : Ir.block) ->
              match b.term with Ir.Ret (Some _) -> true | _ -> false)
            f.blocks
        in
        pass "frame" (fun () ->
            Frame.run ~style:config.epilog_style ~slots:f.slots
              ~spill_slots:ra.spill_slots
              ~params:(List.length f.params)
              ~returns ra.mfunc);
        pass "mliveness" (fun () -> Mliveness.set_ckpt_masks ra.mfunc);
        stats :=
          {
            spill_wars = !stats.spill_wars + sc.spill_wars;
            spill_ckpts = !stats.spill_ckpts + sc.spill_ckpts;
            spill_slots = !stats.spill_slots + ra.spill_slots;
          };
        ra.mfunc)
      p.funcs
  in
  S.add_counter ~by:(List.length p.funcs) spans "functions";
  S.add_counter ~by:!stats.spill_wars spans "spill_wars";
  S.add_counter ~by:!stats.spill_ckpts spans "spill_ckpts";
  S.add_counter ~by:!stats.spill_slots spans "spill_slots";
  ({ I.mfuncs; mdata = List.map mdata_of_global p.globals }, !stats)

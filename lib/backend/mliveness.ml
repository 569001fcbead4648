(* Physical-register liveness on machine code, used to compute the live
   register mask of every checkpoint — a checkpoint saves only the live
   registers plus sp/lr/pc (paper §4.5), so its cost scales with pressure. *)

module I = Wario_machine.Isa
module Int_set = Wario_support.Util.Int_set

let instr_uses = function
  | I.Bl _ -> [ 0; 1; 2; 3 ] (* arguments (conservative) *)
  | I.Bx_lr ->
      (* returning exposes the return value AND the callee-saved registers
         to the caller: r4-r10 hold caller state that must survive any
         checkpoint/restore inside this function *)
      [ 0; 4; 5; 6; 7; 8; 9; 10; I.lr ]
  | I.Svc _ -> [ 0 ]
  | ins -> List.filter (fun r -> r < 13) (I.reads ins)

let instr_defs = function
  | I.Bl _ -> [ 0; 1; 2; 3; 12; I.lr ] (* caller-saved clobbers *)
  | ins -> ( match I.writes ins with Some d when d < 13 -> [ d ] | _ -> [])

(** Rewrite every [Ckpt] of [mf] with its live-register mask (bits 0-12 for
    r0-r12 plus bit 14 for lr when live; sp and pc are always saved by the
    checkpoint routine itself). *)
let set_ckpt_masks (mf : I.mfunc) : unit =
  let blocks = Array.of_list mf.I.mblocks in
  (* lr counts in liveness too (Bx_lr reads it) *)
  let uses ins =
    let base = instr_uses ins in
    match ins with I.Bx_lr -> base | _ -> base @ (if List.mem I.lr (I.reads ins) then [ I.lr ] else [])
  in
  let defs ins =
    let base = instr_defs ins in
    match I.writes ins with
    | Some d when d = I.lr -> I.lr :: base
    | _ -> base
  in
  let _, live_out =
    Mcfg.liveness ~succs:(Mcfg.succs blocks)
      ~regs:(fun ins -> (uses ins, defs ins))
      blocks
  in
  (* per-instruction backward pass within each block to set masks *)
  Array.iteri
    (fun i b ->
      let rev = List.rev b.I.mcode in
      let live = ref live_out.(i) in
      let out =
        List.map
          (fun ins ->
            let ins' =
              match ins with
              | I.Ckpt (cause, _) ->
                  let mask =
                    Int_set.fold
                      (fun r m -> if r <> I.sp && r <> I.pc then m lor (1 lsl r) else m)
                      !live 0
                  in
                  I.Ckpt (cause, mask)
              | ins -> ins
            in
            live := Int_set.diff !live (Int_set.of_list (defs ins));
            live := Int_set.union !live (Int_set.of_list (uses ins));
            ins')
          rev
      in
      b.I.mcode <- List.rev out)
    blocks

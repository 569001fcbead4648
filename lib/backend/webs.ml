(* Live-range splitting by webs (du-chain components).

   WIR is not SSA, so a single virtual register can carry many unrelated
   values (e.g. each unrolled iteration redefines the loop counter).  If
   such a register spills, its slot gets store/load/store/... patterns that
   read-then-write the same stack slot inside one region — spurious
   back-end WARs an SSA-based compiler (like the paper's LLVM) never sees.

   A *web* is a connected component of the def-use relation: a def and a use
   are connected when the def reaches the use; two defs are connected when
   they reach a common use.  Renaming every web to a fresh virtual register
   makes most ranges single-def, restoring the SSA-like granularity both
   the register allocator and the spill-WAR analysis expect.

   Runs on machine code straight out of instruction selection. *)

module I = Wario_machine.Isa
module Int_map = Wario_support.Util.Int_map
module Int_set = Wario_support.Util.Int_set

(* Union-find over def and join nodes. *)
module Uf = struct
  type t = { parent : int array; rank : int array }

  let create n = { parent = Array.init n (fun i -> i); rank = Array.make n 0 }

  let rec find t i =
    if t.parent.(i) = i then i
    else begin
      let r = find t t.parent.(i) in
      t.parent.(i) <- r;
      r
    end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then
      if t.rank.(ra) < t.rank.(rb) then t.parent.(ra) <- rb
      else if t.rank.(ra) > t.rank.(rb) then t.parent.(rb) <- ra
      else begin
        t.parent.(rb) <- ra;
        t.rank.(ra) <- t.rank.(ra) + 1
      end
end

(** Split the virtual live ranges of [mf] into webs; returns the next free
    virtual register id after renaming.

    Union-find nodes are one join node per (block, vreg live into it),
    standing for the vreg's value at block entry, plus the defs, numbered
    in layout order.  Walking a block from its join nodes gives every use
    exactly one node, the current def or join of its vreg, so uses need no
    unions; a [Movc] def joins the node it conditionally keeps.  Then each
    CFG edge joins the successor's join nodes with the predecessor's value
    at block end.  A def reaches a use exactly when the vreg is live at
    every point between them, so the components restricted to defs are
    the du-chain webs.  A use no def reaches maps to join nodes only: it
    gets a web of its own. *)
let run (mf : I.mfunc) ~(next_vreg : int) : int =
  let blocks = Array.of_list mf.I.mblocks in
  let succs = Mcfg.succs blocks in
  let live_in, _ = Mcfg.vreg_liveness ~succs blocks in
  let nnodes = ref 0 in
  let fresh () =
    let id = !nnodes in
    incr nnodes;
    id
  in
  let joins =
    Array.map
      (fun live ->
        Int_set.fold (fun v m -> Int_map.add v (fresh ()) m) live Int_map.empty)
      live_in
  in
  let first_def = !nnodes in
  (* each block's vreg -> node map at its end, numbering defs in layout
     order; each [Movc] def with the node it may keep *)
  let kept = ref [] in
  let outs =
    Array.mapi
      (fun bi b ->
        List.fold_left
          (fun cur ins ->
            match Mcfg.vreg_def ins with
            | Some v ->
                let d = fresh () in
                (match ins with
                | I.Movc _ -> kept := (d, Int_map.find v cur) :: !kept
                | _ -> ());
                Int_map.add v d cur
            | None -> cur)
          joins.(bi) b.I.mcode)
      blocks
  in
  let uf = Uf.create !nnodes in
  List.iter (fun (d, k) -> Uf.union uf d k) !kept;
  Array.iteri
    (fun p out ->
      List.iter
        (fun s ->
          Int_map.iter (fun v j -> Uf.union uf j (Int_map.find v out)) joins.(s))
        succs.(p))
    outs;
  (* assign fresh vregs per (vreg, web-root); keep a stable mapping *)
  let web_reg : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let next = ref next_vreg in
  let reg_for v root =
    match Hashtbl.find_opt web_reg (v, root) with
    | Some r -> r
    | None ->
        let r = !next in
        incr next;
        Hashtbl.replace web_reg (v, root) r;
        r
  in
  (* second walk: rewrite *)
  let next_def = ref first_def in
  Array.iteri
    (fun bi b ->
      let cur = ref joins.(bi) in
      b.I.mcode <-
        List.map
          (fun ins ->
            let d = !next_def in
            let map_use v =
              if v < I.first_vreg then v
              else reg_for v (Uf.find uf (Int_map.find v !cur))
            in
            let map_def v =
              if v < I.first_vreg then v else reg_for v (Uf.find uf d)
            in
            let mo = function I.R r -> I.R (map_use r) | o -> o in
            let ins' =
              match ins with
              | I.Alu (op, rd, rn, o) -> I.Alu (op, map_def rd, map_use rn, mo o)
              | I.Mov (rd, o) -> I.Mov (map_def rd, mo o)
              | I.Movw32 (rd, v) -> I.Movw32 (map_def rd, v)
              | I.Movc (c, rd, o) ->
                  (* conditional write: the use (old value) and the def
                     share a web, joined in the walk above *)
                  let rd' = map_use rd in
                  I.Movc (c, rd', mo o)
              | I.Cmp (rn, o) -> I.Cmp (map_use rn, mo o)
              | I.Ldr (w, rd, rn, off) -> I.Ldr (w, map_def rd, map_use rn, off)
              | I.LdrR (w, rd, rn, rm) ->
                  I.LdrR (w, map_def rd, map_use rn, map_use rm)
              | I.Str (w, rd, rn, off) -> I.Str (w, map_use rd, map_use rn, off)
              | I.StrR (w, rd, rn, rm) ->
                  I.StrR (w, map_use rd, map_use rn, map_use rm)
              | I.AdrData (rd, s, off) -> I.AdrData (map_def rd, s, off)
              | I.FrameAddr (rd, s) -> I.FrameAddr (map_def rd, s)
              | I.SpillLd (rd, nn) -> I.SpillLd (map_def rd, nn)
              | I.SpillSt (rd, nn) -> I.SpillSt (map_use rd, nn)
              | (I.Push _ | I.B _ | I.Bc _ | I.Bl _ | I.Bx_lr | I.Ckpt _
                | I.Cpsid | I.Cpsie | I.Svc _) as i ->
                  i
            in
            (match Mcfg.vreg_def ins with
            | Some v ->
                incr next_def;
                cur := Int_map.add v d !cur
            | None -> ());
            ins')
          b.I.mcode)
    blocks;
  !next

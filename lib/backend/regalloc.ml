(* Linear-scan register allocation.

   Pool: r4-r10 (callee-saved, so values survive calls without caller-save
   logic; the frame lowering pushes the used subset).  r0-r3 are the
   argument/result transfer registers and appear only in the fixed move
   patterns emitted by instruction selection; r11/r12 are reserved as spill
   scratch.

   Stack-slot sharing is disabled: every spilled virtual register receives
   its own slot, mirroring the paper's `-no-stack-slot-sharing` (§4.4) —
   after this, only loops can create a write-after-read on a spill slot. *)

module I = Wario_machine.Isa
module Int_set = Wario_support.Util.Int_set
module Int_map = Wario_support.Util.Int_map

let callee_pool = [ 4; 5; 6; 7; 8; 9; 10 ]
let arg_pool = [ 0; 1; 2; 3 ]
let scratch0 = 11
let scratch1 = 12

type result = {
  mfunc : I.mfunc;  (** rewritten in place *)
  spill_slots : int;  (** number of 4-byte spill slots allocated *)
}

let run (mf : I.mfunc) : result =
  let blocks = Array.of_list mf.I.mblocks in
  let nblocks = Array.length blocks in
  (* --- liveness of virtual registers -------------------------------- *)
  let live_in, live_out =
    Mcfg.vreg_liveness ~succs:(Mcfg.succs blocks) blocks
  in
  (* --- intervals over a linear numbering ---------------------------- *)
  let positions = Array.make nblocks (0, 0) in
  let counter = ref 0 in
  Array.iteri
    (fun i b ->
      let start = !counter in
      counter := !counter + List.length b.I.mcode + 1;
      positions.(i) <- (start, !counter - 1))
    blocks;
  let interval : (int * int) Int_map.t ref = ref Int_map.empty in
  let extend v p =
    interval :=
      Int_map.update v
        (function
          | None -> Some (p, p)
          | Some (a, b) -> Some (min a p, max b p))
        !interval
  in
  Array.iteri
    (fun i b ->
      let bstart, bend = positions.(i) in
      Int_set.iter (fun v -> extend v bstart) live_in.(i);
      Int_set.iter (fun v -> extend v bend) live_out.(i);
      List.iteri
        (fun k ins ->
          let p = bstart + k in
          let us, d = Mcfg.vregs_of_instr ins in
          List.iter (fun u -> extend u p) us;
          Option.iter (fun dd -> extend dd p) d)
        b.I.mcode)
    blocks;
  (* fixed-use positions of r0-r3: the argument/result transfer moves and
     call clobbers.  An interval may be assigned one of r0-r3 only when no
     fixed use of that register falls inside it. *)
  let busy = Array.make 4 [] in
  Array.iteri
    (fun i b ->
      let bstart, _ = positions.(i) in
      List.iteri
        (fun k ins ->
          let p = bstart + k in
          let mark r = if r < 4 then busy.(r) <- p :: busy.(r) in
          (match ins with
          | I.Bl _ | I.Svc _ ->
              List.iter (fun r -> busy.(r) <- p :: busy.(r)) [ 0; 1; 2; 3 ]
          | I.Bx_lr -> mark 0
          | _ ->
              List.iter mark (I.reads ins);
              (match I.writes ins with Some d -> mark d | None -> ())))
        b.I.mcode)
    blocks;
  let arg_reg_ok r s e =
    not (List.exists (fun p -> p >= s && p <= e) busy.(r))
  in
  (* --- linear scan --------------------------------------------------- *)
  let intervals =
    Int_map.bindings !interval
    |> List.map (fun (v, (s, e)) -> (v, s, e))
    |> List.sort (fun (_, s1, e1) (_, s2, e2) ->
           compare (s1, e1) (s2, e2))
  in
  let assignment : (int, [ `Reg of int | `Spill of int ]) Hashtbl.t =
    Hashtbl.create 64
  in
  let active = ref [] (* (endpos, vreg, phys) sorted by endpos *) in
  let free = ref (callee_pool @ arg_pool) in
  let spill_count = ref 0 in
  List.iter
    (fun (v, s, e) ->
      (* expire *)
      let still, expired = List.partition (fun (e', _, _) -> e' >= s) !active in
      List.iter (fun (_, _, ph) -> free := ph :: !free) expired;
      active := still;
      (* prefer the caller-saved argument registers when their fixed uses
         are outside this interval (leaf code then needs no pushes — and no
         boundary checkpoints); fall back to callee-saved *)
      let candidate =
        let cs, args = List.partition (fun r -> r >= 4) !free in
        match List.find_opt (fun r -> arg_reg_ok r s e) args with
        | Some ph -> Some ph
        | None -> (match cs with ph :: _ -> Some ph | [] -> None)
      in
      match candidate with
      | Some ph ->
          free := List.filter (fun r -> r <> ph) !free;
          Hashtbl.replace assignment v (`Reg ph);
          active :=
            List.sort (fun (a, _, _) (b, _, _) -> compare a b)
              ((e, v, ph) :: !active)
      | None ->
          (* spill the interval ending last (current or an active one) *)
          let worst =
            List.fold_left
              (fun acc (e', v', ph') ->
                match acc with
                | Some (e0, _, _) when e0 >= e' -> acc
                | _ -> Some (e', v', ph'))
              None !active
          in
          (match worst with
          | Some (e', v', ph') when e' > e && (ph' >= 4 || arg_reg_ok ph' s e) ->
              (* steal ph' for v, spill v' *)
              Hashtbl.replace assignment v' (`Spill !spill_count);
              incr spill_count;
              Hashtbl.replace assignment v (`Reg ph');
              active :=
                List.sort (fun (a, _, _) (b, _, _) -> compare a b)
                  ((e, v, ph')
                  :: List.filter (fun (_, vv, _) -> vv <> v') !active)
          | _ ->
              Hashtbl.replace assignment v (`Spill !spill_count);
              incr spill_count))
    intervals;
  (* --- rewrite -------------------------------------------------------- *)
  let phys_of v =
    if v < I.first_vreg then `Reg v
    else
      match Hashtbl.find_opt assignment v with
      | Some a -> a
      | None -> `Reg scratch0 (* dead vreg: any scratch will do *)
  in
  List.iter
    (fun (b : I.mblock) ->
      let out = ref [] in
      List.iter
        (fun ins ->
          let us, d = Mcfg.vregs_of_instr ins in
          (* map spilled uses to scratch registers *)
          let scratch_map = Hashtbl.create 4 in
          let next_scratch = ref [ scratch0; scratch1 ] in
          let pre = ref [] in
          List.iter
            (fun u ->
              match phys_of u with
              | `Spill n ->
                  if not (Hashtbl.mem scratch_map u) then begin
                    match !next_scratch with
                    | s :: rest ->
                        next_scratch := rest;
                        Hashtbl.replace scratch_map u s;
                        pre := I.SpillLd (s, n) :: !pre
                    | [] -> failwith "regalloc: out of spill scratch registers"
                  end
              | `Reg _ -> ())
            (Wario_support.Util.dedup_stable us);
          (* destination: spilled defs write scratch then store *)
          let post = ref [] in
          (match d with
          | Some dv -> (
              match phys_of dv with
              | `Spill n ->
                  let s =
                    match Hashtbl.find_opt scratch_map dv with
                    | Some s -> s (* read-modify-write of a spilled vreg *)
                    | None -> scratch0
                  in
                  Hashtbl.replace scratch_map dv s;
                  post := [ I.SpillSt (s, n) ]
              | `Reg _ -> ())
          | None -> ());
          let m r =
            if r < I.first_vreg then r
            else
              match Hashtbl.find_opt scratch_map r with
              | Some s -> s
              | None -> (
                  match phys_of r with
                  | `Reg ph -> ph
                  | `Spill _ -> assert false)
          in
          let mo = function I.R r -> I.R (m r) | o -> o in
          let ins' =
            match ins with
            | I.Alu (op, rd, rn, o) -> I.Alu (op, m rd, m rn, mo o)
            | I.Mov (rd, o) -> I.Mov (m rd, mo o)
            | I.Movw32 (rd, v) -> I.Movw32 (m rd, v)
            | I.Movc (c, rd, o) -> I.Movc (c, m rd, mo o)
            | I.Cmp (rn, o) -> I.Cmp (m rn, mo o)
            | I.Ldr (w, rd, rn, off) -> I.Ldr (w, m rd, m rn, off)
            | I.LdrR (w, rd, rn, rm) -> I.LdrR (w, m rd, m rn, m rm)
            | I.Str (w, rd, rn, off) -> I.Str (w, m rd, m rn, off)
            | I.StrR (w, rd, rn, rm) -> I.StrR (w, m rd, m rn, m rm)
            | I.AdrData (rd, s, off) -> I.AdrData (m rd, s, off)
            | I.FrameAddr (rd, s) -> I.FrameAddr (m rd, s)
            | I.SpillLd (rd, n) -> I.SpillLd (m rd, n)
            | I.SpillSt (rd, n) -> I.SpillSt (m rd, n)
            | (I.Push _ | I.B _ | I.Bc _ | I.Bl _ | I.Bx_lr | I.Ckpt _
              | I.Cpsid | I.Cpsie | I.Svc _) as i ->
                i
          in
          (* [out] accumulates in reverse; [pre] is already reversed. *)
          out := !pre @ !out;
          out := ins' :: !out;
          out := List.rev_append !post !out)
        b.I.mcode;
      b.I.mcode <- List.rev !out)
    mf.I.mblocks;
  { mfunc = mf; spill_slots = !spill_count }

(* Block-level control flow and liveness on machine code, shared by the
   passes that run before layout is final: webs, register allocation and
   checkpoint live masks.  Blocks are indexed in layout order. *)

module I = Wario_machine.Isa
module Int_set = Wario_support.Util.Int_set

(** Successor block indices of every block: the in-function targets of its
    [B]/[Bc] branches, plus the next block in layout order unless the block
    ends in [B] or [Bx_lr].  Computed once per function; the fixpoints
    below index it. *)
let succs (blocks : I.mblock array) : int list array =
  let n = Array.length blocks in
  let label_index = Hashtbl.create 16 in
  Array.iteri (fun i b -> Hashtbl.replace label_index b.I.mlabel i) blocks;
  Array.mapi
    (fun i b ->
      let rec scan acc seals = function
        | [] -> (acc, seals)
        | ins :: rest ->
            let acc =
              match ins with
              | I.B l | I.Bc (_, l) -> (
                  match Hashtbl.find_opt label_index l with
                  | Some t -> t :: acc
                  | None -> acc)
              | _ -> acc
            in
            let seals =
              match (rest, ins) with [], (I.B _ | I.Bx_lr) -> true | _ -> seals
            in
            scan acc seals rest
      in
      let targets, sealed = scan [] false b.I.mcode in
      if sealed || i + 1 >= n then targets else (i + 1) :: targets)
    blocks

(* Block-level gen (read before any write in the block) and kill
   (written) sets of [code]. *)
let gen_kill ~regs (code : I.instr list) : Int_set.t * Int_set.t =
  List.fold_left
    (fun (gen, kill) ins ->
      let uses, defs = regs ins in
      let gen =
        List.fold_left
          (fun g u -> if Int_set.mem u kill then g else Int_set.add u g)
          gen uses
      in
      (gen, List.fold_left (fun k d -> Int_set.add d k) kill defs))
    (Int_set.empty, Int_set.empty)
    code

(** Backward liveness of [blocks] to its least fixpoint: [(live_in,
    live_out)] per block, where [regs ins] is the pair (registers read,
    registers written) of an instruction.  Sweeps run in reverse layout
    order until no [live_out] grows; [live_in] only changes when
    [live_out] does. *)
let liveness ~(succs : int list array) ~regs (blocks : I.mblock array) :
    Int_set.t array * Int_set.t array =
  let gk = Array.map (fun b -> gen_kill ~regs b.I.mcode) blocks in
  let live_in = Array.map fst gk in
  let live_out = Array.make (Array.length blocks) Int_set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = Array.length blocks - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> Int_set.union acc live_in.(s))
          Int_set.empty succs.(i)
      in
      if not (Int_set.equal out live_out.(i)) then begin
        let gen, kill = gk.(i) in
        live_out.(i) <- out;
        live_in.(i) <- Int_set.union gen (Int_set.diff out kill);
        changed := true
      end
    done
  done;
  (live_in, live_out)

(** The virtual register an instruction writes, if any. *)
let vreg_def i =
  match I.writes i with Some d when d >= I.first_vreg -> Some d | _ -> None

(** Virtual registers read and written by an instruction.  [Movc] both
    reads and writes its destination. *)
let vregs_of_instr i =
  (List.filter (fun r -> r >= I.first_vreg) (I.reads i), vreg_def i)

(** Liveness of the virtual registers of [blocks]. *)
let vreg_liveness ~succs blocks =
  liveness ~succs blocks ~regs:(fun ins ->
      let uses, def = vregs_of_instr ins in
      (uses, Option.to_list def))

(* Barrier-aware reachability between program points.

   A *barrier* is an instruction that (dynamically) starts a new idempotent
   region: an explicit [Checkpoint], or a [Call] (every function body begins
   with a function-entry checkpoint, so calling cuts the region).

   [reaches t p q] answers: is there a CFG path from point [p] to point [q]
   that executes no barrier?  This is the reachability relation underlying
   the static WAR definition and checkpoint placement. *)

open Wario_ir.Ir
module Str_set = Wario_support.Util.Str_set

type t = {
  cfg : Cfg.t;
  barriers : (label, int list) Hashtbl.t;  (** sorted barrier indices per block *)
  transparent : (label, bool) Hashtbl.t;
  (* memo: src block -> blocks whose entry is reachable from src's exit
     through transparent interior blocks *)
  memo : (label, Str_set.t) Hashtbl.t;
}

let build (cfg : Cfg.t) : t =
  let barriers = Hashtbl.create 64 and transparent = Hashtbl.create 64 in
  List.iter
    (fun lbl ->
      let b = Cfg.block cfg lbl in
      let idxs =
        List.mapi (fun i ins -> (i, ins)) b.insns
        |> List.filter_map (fun (i, ins) -> if is_barrier ins then Some i else None)
      in
      Hashtbl.replace barriers lbl idxs;
      Hashtbl.replace transparent lbl (idxs = []))
    (Cfg.labels cfg);
  { cfg; barriers; transparent; memo = Hashtbl.create 64 }

let barrier_idxs t lbl = try Hashtbl.find t.barriers lbl with Not_found -> []
let is_transparent t lbl = try Hashtbl.find t.transparent lbl with Not_found -> true

(** No barrier strictly between instruction indices [i] and [j] (i < j). *)
let clear_between t lbl i j =
  not (List.exists (fun k -> k > i && k < j) (barrier_idxs t lbl))

(** No barrier strictly after index [i] in block [lbl] (the path may leave
    through the terminator). *)
let clear_after t lbl i = not (List.exists (fun k -> k > i) (barrier_idxs t lbl))

(** No barrier strictly before index [j]. *)
let clear_before t lbl j = not (List.exists (fun k -> k < j) (barrier_idxs t lbl))

(** Blocks whose *entry* is reachable from the *exit* of [src] without
    executing a barrier in any intermediate block. *)
let reachable_entries t src : Str_set.t =
  match Hashtbl.find_opt t.memo src with
  | Some s -> s
  | None ->
      let result = ref Str_set.empty in
      let queue = Queue.create () in
      List.iter (fun s -> Queue.add s queue) (Cfg.succs t.cfg src);
      while not (Queue.is_empty queue) do
        let b = Queue.take queue in
        if not (Str_set.mem b !result) then begin
          result := Str_set.add b !result;
          if is_transparent t b then
            List.iter (fun s -> Queue.add s queue) (Cfg.succs t.cfg b)
        end
      done;
      Hashtbl.replace t.memo src !result;
      !result

(** Is there a barrier-free path from point [p] (exclusive) to point [q]
    (exclusive)?  Points index instructions: [(lbl, i)] is the i-th
    instruction of block [lbl]. *)
let reaches t ((bl, i) : point) ((bq, j) : point) : bool =
  let straight_line = bl = bq && i < j && clear_between t bl i j in
  straight_line
  || (* leave bl after i, travel, enter bq before j *)
  (clear_after t bl i
  && clear_before t bq j
  && Str_set.mem bq (reachable_entries t bl))

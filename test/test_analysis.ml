(* Tests for the analysis library: CFG, dominance, post-dominance, loops,
   barrier-aware reachability, alias analysis (both modes), PDG dependence
   queries, affine address reasoning, and the greedy hitting set. *)

open Wario_ir.Ir
module A = Wario_analysis
module Str_set = Wario_support.Util.Str_set

(* A hand-built diamond-with-loop function:

     entry -> header -> body -> latch -> header (back edge)
                  \--> exit
     body: load g; store g  (a WAR)                              *)
let sample_func () : func * program =
  let f =
    { fname = "f"; params = []; slots = []; blocks = []; next_reg = 0;
      next_label = 0 }
  in
  let r0 = fresh_reg f and r1 = fresh_reg f and r2 = fresh_reg f in
  let blocks =
    [
      { bname = "entry"; insns = [ Mov (r0, Imm 0l) ]; term = Br "header" };
      {
        bname = "header";
        insns = [ Cmp (r1, Cslt, Reg r0, Imm 10l) ];
        term = Cbr (Reg r1, "body", "exit");
      };
      {
        bname = "body";
        insns =
          [
            Load (r2, W32, Glob "g");
            Bin (r2, Add, Reg r2, Imm 1l);
            Store (W32, Reg r2, Glob "g");
          ];
        term = Br "latch";
      };
      {
        bname = "latch";
        insns = [ Bin (r0, Add, Reg r0, Imm 1l) ];
        term = Br "header";
      };
      { bname = "exit"; insns = []; term = Ret None };
    ]
  in
  f.blocks <- blocks;
  let prog =
    {
      globals =
        [ { gname = "g"; gsize = 4; galign = 4; ginit = []; gconst = false } ];
      funcs = [ f ];
    }
  in
  (f, prog)

let test_cfg () =
  let f, _ = sample_func () in
  let cfg = A.Cfg.build f in
  Alcotest.(check (list string)) "succs header" [ "body"; "exit" ]
    (A.Cfg.succs cfg "header");
  Alcotest.(check (list string)) "preds header" [ "entry"; "latch" ]
    (List.sort compare (A.Cfg.preds cfg "header"));
  Alcotest.(check (list string)) "exits" [ "exit" ] (A.Cfg.exits cfg);
  Alcotest.(check bool) "reachable" true (A.Cfg.reachable_from cfg "entry" "latch");
  Alcotest.(check bool) "not reachable backward" false
    (A.Cfg.reachable_from cfg "exit" "entry")

let test_dominance () =
  let f, _ = sample_func () in
  let cfg = A.Cfg.build f in
  let dom = A.Dominance.build cfg in
  let d = A.Dominance.dominates dom in
  Alcotest.(check bool) "entry dom all" true (d "entry" "latch");
  Alcotest.(check bool) "header dom body" true (d "header" "body");
  Alcotest.(check bool) "header dom exit" true (d "header" "exit");
  Alcotest.(check bool) "body not dom exit" false (d "body" "exit");
  Alcotest.(check bool) "body dom latch" true (d "body" "latch");
  Alcotest.(check bool) "reflexive" true (d "body" "body")

let test_post_dominance () =
  let f, _ = sample_func () in
  let cfg = A.Cfg.build f in
  let pdom = A.Dominance.build_post cfg in
  let pd = A.Dominance.post_dominates pdom in
  Alcotest.(check bool) "exit postdom entry" true (pd "exit" "entry");
  Alcotest.(check bool) "header postdom body" true (pd "header" "body");
  Alcotest.(check bool) "latch postdom body" true (pd "latch" "body");
  Alcotest.(check bool) "body not postdom header" false (pd "body" "header")

let test_loops () =
  let f, _ = sample_func () in
  let cfg = A.Cfg.build f in
  let dom = A.Dominance.build cfg in
  let loops = A.Loops.build cfg dom in
  match loops.loops with
  | [ l ] ->
      Alcotest.(check string) "header" "header" l.header;
      Alcotest.(check (list string)) "latches" [ "latch" ] l.latches;
      Alcotest.(check bool) "blocks" true
        (Str_set.equal l.blocks (Str_set.of_list [ "header"; "body"; "latch" ]));
      Alcotest.(check int) "depth" 1 l.depth;
      Alcotest.(check bool) "exit edge" true (List.mem ("header", "exit") l.exits);
      Alcotest.(check int) "depth_of body" 1 (loops.depth_of "body");
      Alcotest.(check int) "depth_of exit" 0 (loops.depth_of "exit")
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let test_nested_loops () =
  let src =
    {|int a[10];
      int main(void){
        int i, j;
        for (i = 0; i < 10; i++)
          for (j = 0; j < 10; j++)
            a[j] = a[j] + i;
        return a[5]; }|}
  in
  let prog = Wario_minic.Minic.compile src in
  let f = find_func prog "main" in
  let cfg = A.Cfg.build f in
  let dom = A.Dominance.build cfg in
  let loops = A.Loops.build cfg dom in
  Alcotest.(check int) "two loops" 2 (List.length loops.loops);
  let depths = List.sort compare (List.map (fun (l : A.Loops.loop) -> l.depth) loops.loops) in
  Alcotest.(check (list int)) "nesting depths" [ 1; 2 ] depths;
  let inner = List.find (fun (l : A.Loops.loop) -> l.depth = 2) loops.loops in
  let outer = List.find (fun (l : A.Loops.loop) -> l.depth = 1) loops.loops in
  Alcotest.(check (option string)) "parent" (Some outer.header) inner.parent

let test_reach_barriers () =
  let f, _ = sample_func () in
  (* insert a checkpoint between the load and store *)
  let body = find_block f "body" in
  body.insns <-
    (match body.insns with
    | [ l; a; s ] -> [ l; Checkpoint Middle_end_war; a; s ]
    | _ -> assert false);
  let cfg = A.Cfg.build f in
  let reach = A.Reach.build cfg in
  (* load at (body,0), store at (body,3) *)
  Alcotest.(check bool) "barrier cuts straight line" false
    (A.Reach.reaches reach ("body", 0) ("body", 3));
  Alcotest.(check bool) "store reaches load around the loop" true
    (A.Reach.reaches reach ("body", 3) ("body", 0));
  Alcotest.(check bool) "load cannot reach itself past barrier" false
    (A.Reach.reaches reach ("body", 0) ("body", 0))

let test_reach_call_barrier () =
  let src =
    {|int g;
      void h(void) {}
      int main(void){ int x = g; h(); g = x + 1; return 0; }|}
  in
  let prog = Wario_minic.Minic.compile src in
  let f = find_func prog "main" in
  let cfg = A.Cfg.build f in
  let escapes = A.Alias.escapes_of_program prog in
  let alias = A.Alias.build ~escapes f in
  let pdg = A.Pdg.build alias cfg f in
  Alcotest.(check int) "call cuts the only WAR" 0 (List.length (A.Pdg.wars pdg))

(* ------------------------------------------------------------------ *)
(* Alias analysis                                                       *)
(* ------------------------------------------------------------------ *)

let alias_ctx ?(mode = A.Alias.Precise) src fname =
  let prog = Wario_minic.Minic.compile src in
  Wario_transforms.Opt_pipeline.run prog;
  let f = find_func prog fname in
  let escapes = A.Alias.escapes_of_program prog in
  (A.Alias.build ~mode ~escapes f, f, prog)

let test_alias_distinct_globals () =
  let alias, _, _ =
    alias_ctx "int a; int b; int main(void){ a = 1; b = a + 1; return b; }" "main"
  in
  Alcotest.(check bool) "a vs b" false
    (A.Alias.may_alias alias (Glob "a") 4 (Glob "b") 4);
  Alcotest.(check bool) "a vs a" true
    (A.Alias.may_alias alias (Glob "a") 4 (Glob "a") 4);
  Alcotest.(check bool) "must a a" true
    (A.Alias.must_alias alias (Glob "a") 4 (Glob "a") 4)

let test_alias_offsets () =
  (* find the two store addresses in main: a[0] and a[1] *)
  let alias, f, _ =
    alias_ctx "int a[8]; int main(void){ a[0] = 1; a[1] = 2; return a[0]; }"
      "main"
  in
  let stores =
    List.concat_map
      (fun b ->
        List.filter_map
          (function Store (_, _, addr) -> Some addr | _ -> None)
          b.insns)
      f.blocks
  in
  match stores with
  | [ s0; s1 ] ->
      Alcotest.(check bool) "constant offsets disambiguate" false
        (A.Alias.may_alias alias s0 4 s1 4)
  | _ -> Alcotest.failf "expected 2 stores, got %d" (List.length stores)

let test_alias_basic_mode_conflates () =
  let src =
    "int a[8]; int b[8]; int main(void){ int i; for (i=0;i<8;i++) a[i] = b[i]; return 0; }"
  in
  let precise, f, _ = alias_ctx src "main" in
  let basic, _, _ = alias_ctx ~mode:A.Alias.Basic src "main" in
  (* the store address a+4i and load address b+4i *)
  let ops =
    List.concat_map
      (fun b ->
        List.filter_map
          (function
            | Store (_, _, addr) -> Some (`St addr)
            | Load (_, _, addr) -> Some (`Ld addr)
            | _ -> None)
          b.insns)
      f.blocks
  in
  let st = List.find_map (function `St a -> Some a | _ -> None) ops in
  let ld = List.find_map (function `Ld a -> Some a | _ -> None) ops in
  match (st, ld) with
  | Some st, Some ld ->
      Alcotest.(check bool) "precise distinguishes bases" false
        (A.Alias.may_alias precise st 4 ld 4);
      Alcotest.(check bool) "basic conflates derived pointers" true
        (A.Alias.may_alias basic st 4 ld 4)
  | _ -> Alcotest.fail "missing ops"

let test_alias_escape () =
  (* f is made large enough that the -O3 inliner leaves the call (and
     therefore the escape of open_arr) in place *)
  let src =
    {|int secret[4]; int open_arr[4];
      int f(int *p) {
        int s = 0; int i;
        for (i = 0; i < 4; i++) s = s + p[i] * 3 - (s >> 2) + (s ^ i) + (s & 7)
          + (i << 1) - (s % 3 + 1) + (p[i] / 2) + (s | i);
        return s + p[0];
      }
      int main(void){ return f(open_arr) + secret[0]; }|}
  in
  let alias, f, _ = alias_ctx src "f" in
  (* inside f, the parameter pointer is unknown: it may alias the escaped
     open_arr but not the non-escaping secret *)
  let param_addr =
    List.find_map
      (fun (b : block) ->
        List.find_map
          (function Load (_, _, addr) -> Some addr | _ -> None)
          b.insns)
      f.blocks
  in
  match param_addr with
  | Some p ->
      Alcotest.(check bool) "unknown vs escaped" true
        (A.Alias.may_alias alias p 4 (Glob "open_arr") 4);
      Alcotest.(check bool) "unknown vs private" false
        (A.Alias.may_alias alias p 4 (Glob "secret") 4)
  | None -> Alcotest.fail "no load found in f"

(* ------------------------------------------------------------------ *)
(* PDG                                                                  *)
(* ------------------------------------------------------------------ *)

let test_pdg_war_detection () =
  let f, prog = sample_func () in
  let cfg = A.Cfg.build f in
  let escapes = A.Alias.escapes_of_program prog in
  let alias = A.Alias.build ~escapes f in
  let pdg = A.Pdg.build alias cfg f in
  let wars = A.Pdg.wars pdg in
  Alcotest.(check int) "one WAR" 1 (List.length wars);
  let w = List.hd wars in
  Alcotest.(check bool) "load before store" true
    (compare_point w.war_load.mo_point w.war_store.mo_point < 0);
  let raws = A.Pdg.raws pdg in
  (* store g -> load g around the back edge *)
  Alcotest.(check bool) "raw exists" true (List.length raws >= 1)

let test_pdg_no_war_without_alias () =
  let src = "int a; int b; int main(void){ int x = a; b = x + 1; return 0; }" in
  let prog = Wario_minic.Minic.compile src in
  Wario_transforms.Opt_pipeline.run prog;
  let f = find_func prog "main" in
  let cfg = A.Cfg.build f in
  let escapes = A.Alias.escapes_of_program prog in
  let alias = A.Alias.build ~escapes f in
  let pdg = A.Pdg.build alias cfg f in
  Alcotest.(check int) "no WARs across distinct globals" 0
    (List.length (A.Pdg.wars pdg))

(* ------------------------------------------------------------------ *)
(* Affine                                                               *)
(* ------------------------------------------------------------------ *)

let test_affine () =
  let open A.Affine in
  let a = of_sym (Sglob "a") in
  let e1 = add a (const 4) in
  let e2 = add a (const 8) in
  Alcotest.(check bool) "disjoint by 4" true (disjoint e1 4 e2 4);
  Alcotest.(check bool) "overlap when wide" false (disjoint e1 8 e2 4);
  Alcotest.(check bool) "equal" true (equal_expr e1 (add (const 4) a));
  let i = of_sym (Sopaque 0) in
  let e3 = add a (mul_const i 4) in
  let e4 = add (add a (mul_const i 4)) (const 4) in
  Alcotest.(check bool) "i vs i+1 slots" true (disjoint e3 4 e4 4);
  Alcotest.(check bool) "same symbolic" true (equal_expr e3 e3);
  let j = of_sym (Sopaque 1) in
  Alcotest.(check bool) "different symbols unknown" false
    (disjoint e3 4 (add a (mul_const j 4)) 4)

let test_affine_spine () =
  let src =
    {|unsigned a[64];
      int main(void){ int i;
        for (i = 0; i < 64; i++) a[i] = a[i] + 1;
        return 0; }|}
  in
  let prog = Wario_minic.Minic.compile src in
  Wario_transforms.Opt_pipeline.run prog;
  let f = find_func prog "main" in
  (* find the loop body block: it has a load and a store *)
  let body =
    List.find
      (fun b ->
        List.exists (function Load _ -> true | _ -> false) b.insns
        && List.exists (function Store _ -> true | _ -> false) b.insns)
      f.blocks
  in
  let tbl =
    A.Affine.mem_addresses f ~spine:[ body.bname ]
      ~tainted:Wario_support.Util.Int_set.empty
  in
  let pts =
    List.mapi (fun i ins -> (i, ins)) body.insns
    |> List.filter_map (fun (i, ins) ->
           match ins with Load _ | Store _ -> Some (body.bname, i) | _ -> None)
  in
  match pts with
  | [ pl; ps ] ->
      let el = Hashtbl.find tbl pl and es = Hashtbl.find tbl ps in
      Alcotest.(check bool) "load and store of a[i] are equal" true
        (A.Affine.equal_expr el es)
  | _ -> Alcotest.fail "unexpected op count"

(* ------------------------------------------------------------------ *)
(* Hitting set                                                          *)
(* ------------------------------------------------------------------ *)

module Hs = A.Hitting_set.Make (Int)

let solve_ok ~cost sets =
  match Hs.solve ~cost sets with
  | Ok r -> r
  | Error (A.Hitting_set.Empty_set i) -> Alcotest.failf "set %d empty" i

let test_hitting_set_shared () =
  (* {1,2} {2,3} {2,9}: 2 hits everything *)
  let r = solve_ok ~cost:(fun _ -> 1.) [ [ 1; 2 ]; [ 2; 3 ]; [ 2; 9 ] ] in
  Alcotest.(check (list int)) "picks the shared element" [ 2 ] r

let test_hitting_set_disjoint () =
  let r = solve_ok ~cost:(fun _ -> 1.) [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  Alcotest.(check int) "three needed" 3 (List.length r)

let test_hitting_set_cost () =
  (* element 5 hits both sets but is expensive; 1 and 2 are cheap *)
  let cost = function 5 -> 10. | _ -> 1. in
  let r = solve_ok ~cost [ [ 1; 5 ]; [ 2; 5 ] ] in
  Alcotest.(check int) "prefers two cheap" 2 (List.length r);
  (* now make 5 cheap enough to win *)
  let cost = function 5 -> 1.5 | _ -> 1. in
  let r = solve_ok ~cost [ [ 1; 5 ]; [ 2; 5 ] ] in
  Alcotest.(check (list int)) "prefers one shared" [ 5 ] r

let test_hitting_set_empty_set () =
  match Hs.solve ~cost:(fun _ -> 1.) [ [ 1 ]; []; [ 2 ] ] with
  | Ok _ -> Alcotest.fail "empty set accepted"
  | Error (A.Hitting_set.Empty_set i) ->
      Alcotest.(check int) "names the offending set" 1 i

let test_hitting_set_covers () =
  (* random-ish instance: verify the cover property *)
  let rng = Wario_support.Util.Lcg.create 42 in
  let sets =
    List.init 50 (fun _ ->
        List.init
          (1 + Wario_support.Util.Lcg.int rng 5)
          (fun _ -> Wario_support.Util.Lcg.int rng 30))
  in
  let r = solve_ok ~cost:(fun _ -> 1.) sets in
  List.iter
    (fun s ->
      Alcotest.(check bool) "covered" true (List.exists (fun e -> List.mem e r) s))
    sets

(* Ties: a ring of pairs (every element in two sets) and the rows and
   columns of a 4x4 grid (every element in two sets).  Equal scores pop in
   the heap's layout order, not by cost or element order; these are the
   picks that order gives, pinned so that a rewrite of the solver (over
   membership classes, say) has to reproduce them. *)
let test_hitting_set_ties_pinned () =
  let ring = List.init 12 (fun i -> [ i; (i + 1) mod 12 ]) in
  let grid =
    List.concat
      (List.init 4 (fun r ->
           [ List.init 4 (fun c -> 20 + (4 * r) + c);
             List.init 4 (fun c -> 20 + r + (4 * c)) ]))
  in
  let family = ring @ grid in
  Alcotest.(check (list int))
    "unit costs, in pick order"
    [ 0; 35; 3; 7; 30; 24; 9; 5; 21; 10; 1 ]
    (solve_ok ~cost:(fun _ -> 1.) family);
  Alcotest.(check (list int))
    "multiples of 3 cost double, in pick order"
    [ 1; 4; 34; 31; 7; 10; 25; 20; 8; 5; 11; 2 ]
    (solve_ok ~cost:(fun e -> if e mod 3 = 0 then 2. else 1.) family);
  match Hs.solve_weighted ~node_budget:0 ~cost:(fun _ -> 1.) family with
  | Ok s ->
      Alcotest.(check (list int))
        "greedy fallback, pruned and sorted"
        [ 0; 1; 3; 5; 7; 9; 10; 21; 24; 30; 35 ]
        s.Hs.chosen
  | Error _ -> Alcotest.fail "no empty set here"

(* -- random-CFG properties (qcheck) --------------------------------- *)

(* Same pinned-seed idiom as test_props.ml: qcheck-alcotest otherwise
   draws a fresh seed per run, making CI nondeterministic. *)
let to_alcotest t =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string s with _ -> 3)
    | None -> 3
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

(* Arbitrary digraphs over n blocks — including unreachable blocks,
   multi-entry cycles (irreducible regions) and blocks that never reach
   an exit.  Dominance and natural-loop detection must stay correct on
   all of them, not just on the reducible CFGs the front end emits. *)
type rterm = T_ret | T_br of int | T_cbr of int * int

let mk_cfg_func (terms : rterm array) : func =
  let name i = "b" ^ string_of_int i in
  let blocks =
    Array.to_list
      (Array.mapi
         (fun i t ->
           let term =
             match t with
             | T_ret -> Ret None
             | T_br j -> Br (name j)
             | T_cbr (j, k) -> Cbr (Imm 1l, name j, name k)
           in
           { bname = name i; insns = []; term })
         terms)
  in
  {
    fname = "f";
    params = [];
    slots = [];
    blocks;
    next_reg = 0;
    next_label = 0;
  }

let gen_terms : rterm array QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 2 10 >>= fun n ->
  let blk = int_range 0 (n - 1) in
  array_repeat n
    (frequency
       [
         (1, return T_ret);
         (2, map (fun j -> T_br j) blk);
         (3, map2 (fun j k -> T_cbr (j, k)) blk blk);
       ])

let arbitrary_terms =
  QCheck.make
    ~print:(fun ts ->
      Array.to_list ts
      |> List.mapi (fun i t ->
             Printf.sprintf "b%d -> %s" i
               (match t with
               | T_ret -> "ret"
               | T_br j -> Printf.sprintf "b%d" j
               | T_cbr (j, k) -> Printf.sprintf "b%d|b%d" j k))
      |> String.concat "; ")
    gen_terms

let reachable_avoiding (cfg : A.Cfg.t) (avoid : string option) : Str_set.t =
  let seen = ref Str_set.empty in
  let rec go l =
    if avoid <> Some l && not (Str_set.mem l !seen) then begin
      seen := Str_set.add l !seen;
      List.iter go (A.Cfg.succs cfg l)
    end
  in
  go (A.Cfg.entry cfg);
  !seen

let prop_dominance_bruteforce =
  QCheck.Test.make ~count:300
    ~name:"dominance = unreachability without the dominator" arbitrary_terms
    (fun terms ->
      let cfg = A.Cfg.build (mk_cfg_func terms) in
      let dom = A.Dominance.build cfg in
      let reach = reachable_avoiding cfg None in
      Str_set.for_all
        (fun a ->
          Str_set.for_all
            (fun b ->
              (* every entry->b path passes a  <=>  removing a cuts b off *)
              let brute =
                a = b || not (Str_set.mem b (reachable_avoiding cfg (Some a)))
              in
              A.Dominance.dominates dom a b = brute)
            reach)
        reach)

let prop_loops_well_formed =
  QCheck.Test.make ~count:300 ~name:"natural loops are well formed"
    arbitrary_terms (fun terms ->
      let cfg = A.Cfg.build (mk_cfg_func terms) in
      let dom = A.Dominance.build cfg in
      let loops = A.Loops.build cfg dom in
      List.for_all
        (fun (l : A.Loops.loop) ->
          Str_set.mem l.A.Loops.header l.A.Loops.blocks
          && l.A.Loops.latches <> []
          && List.for_all
               (fun latch ->
                 Str_set.mem latch l.A.Loops.blocks
                 && List.mem l.A.Loops.header (A.Cfg.succs cfg latch))
               l.A.Loops.latches
          && Str_set.for_all
               (fun b -> A.Dominance.dominates dom l.A.Loops.header b)
               l.A.Loops.blocks
          && l.A.Loops.depth >= 1)
        loops.A.Loops.loops
      && List.for_all
           (fun lbl ->
             let d = loops.A.Loops.depth_of lbl in
             let containing =
               List.filter
                 (fun (l : A.Loops.loop) -> Str_set.mem lbl l.A.Loops.blocks)
                 loops.A.Loops.loops
             in
             (d > 0) = (containing <> [])
             && d <= List.length containing
             &&
             match A.Loops.innermost_containing loops lbl with
             | None -> containing = []
             | Some l ->
                 Str_set.mem lbl l.A.Loops.blocks
                 && l.A.Loops.depth = d)
           (A.Cfg.labels cfg))

let test_irreducible_cycle () =
  (* entry -> {a, b}; a <-> b: a two-entry (irreducible) cycle.  Neither
     node dominates the other, so there is no natural loop here — but
     dominance must still be exact. *)
  let f =
    mk_cfg_func [| T_cbr (1, 2); T_br 2; T_cbr (1, 3); T_ret |]
  in
  let cfg = A.Cfg.build f in
  let dom = A.Dominance.build cfg in
  Alcotest.(check bool) "entry dominates a" true
    (A.Dominance.dominates dom "b0" "b1");
  Alcotest.(check bool) "entry dominates b" true
    (A.Dominance.dominates dom "b0" "b2");
  Alcotest.(check bool) "a does not dominate b" false
    (A.Dominance.dominates dom "b1" "b2");
  Alcotest.(check bool) "b does not dominate a" false
    (A.Dominance.dominates dom "b2" "b1");
  let loops = A.Loops.build cfg dom in
  Alcotest.(check int) "no natural loops" 0
    (List.length loops.A.Loops.loops);
  List.iter
    (fun l -> Alcotest.(check int) ("depth " ^ l) 0 (loops.A.Loops.depth_of l))
    (A.Cfg.labels cfg)

let test_deeply_nested_loops () =
  (* d nested natural loops: h_i -> h_{i+1} | l_{i-1}; l_i -> h_i *)
  let d = 6 in
  (* block numbering: 0 = entry, 1..d = headers, d+1..2d = latches
     (latch of loop i = d + i), 2d+1 = exit *)
  let header i = i and latch i = d + i in
  let exit_b = (2 * d) + 1 in
  let terms = Array.make ((2 * d) + 2) T_ret in
  terms.(0) <- T_br (header 1);
  for i = 1 to d - 1 do
    terms.(header i) <-
      T_cbr (header (i + 1), if i = 1 then exit_b else latch (i - 1))
  done;
  terms.(header d) <- T_cbr (latch d, latch (d - 1));
  for i = 1 to d do
    terms.(latch i) <- T_br (header i)
  done;
  let cfg = A.Cfg.build (mk_cfg_func terms) in
  let dom = A.Dominance.build cfg in
  let loops = A.Loops.build cfg dom in
  Alcotest.(check int) "one loop per nesting level" d
    (List.length loops.A.Loops.loops);
  for i = 1 to d do
    Alcotest.(check int)
      (Printf.sprintf "header %d at depth %d" i i)
      i
      (loops.A.Loops.depth_of ("b" ^ string_of_int (header i)))
  done;
  Alcotest.(check int) "exit outside every loop" 0
    (loops.A.Loops.depth_of ("b" ^ string_of_int exit_b))

(* -- interprocedural call graph ------------------------------------- *)

let call_loop_prog () : program =
  (* main calls f from a loop body; z is never called *)
  let mk name blocks =
    { fname = name; params = []; slots = []; blocks; next_reg = 0;
      next_label = 0 }
  in
  let main =
    mk "main"
      [
        { bname = "entry"; insns = []; term = Br "header" };
        { bname = "header"; insns = []; term = Cbr (Imm 1l, "body", "exit") };
        {
          bname = "body";
          insns = [ Call (None, "f", []) ];
          term = Br "header";
        };
        { bname = "exit"; insns = []; term = Ret None };
      ]
  in
  let f = mk "f" [ { bname = "entry"; insns = []; term = Ret None } ] in
  let z = mk "z" [ { bname = "entry"; insns = []; term = Ret None } ] in
  { globals = []; funcs = [ main; f; z ] }

let test_callgraph_hot_callee () =
  let cg = A.Callgraph.build (call_loop_prog ()) in
  Alcotest.(check bool) "main at the root" true
    (cg.A.Callgraph.func_freq "main" = 1.0);
  (* f is called once per iteration of main's loop: its invocation
     frequency is the loop trip guess, not 1 *)
  let ff = cg.A.Callgraph.func_freq "f" in
  Alcotest.(check bool)
    (Printf.sprintf "f's frequency reflects the loop (%g)" ff)
    true
    (ff > 2. && ff < 100.);
  (* a block inside f is priced at the caller's rate *)
  Alcotest.(check bool) "f's entry priced interprocedurally" true
    (cg.A.Callgraph.block_weight "f" "entry"
    >= ff *. cg.A.Callgraph.local_weight "f" "entry" -. 1e-9);
  (* one edge, from the loop body, with the body's frequency *)
  (match cg.A.Callgraph.cg_edges with
  | [ e ] ->
      Alcotest.(check string) "edge site" "body" e.A.Callgraph.cg_site;
      Alcotest.(check bool) "edge frequency > 1" true (e.A.Callgraph.cg_freq > 1.)
  | es -> Alcotest.failf "expected one edge, got %d" (List.length es));
  Alcotest.(check bool) "nothing recursive" true
    (not (cg.A.Callgraph.recursive "main" || cg.A.Callgraph.recursive "f"))

let test_callgraph_unreached_defaults () =
  let cg = A.Callgraph.build (call_loop_prog ()) in
  (* never-called functions keep per-invocation weights instead of
     vanishing below every other block *)
  Alcotest.(check bool) "unreached function frequency is 1" true
    (cg.A.Callgraph.func_freq "z" = 1.0)

let test_callgraph_recursion_finite () =
  let mk name insns term =
    { fname = name; params = []; slots = [];
      blocks = [ { bname = "entry"; insns; term } ];
      next_reg = 0; next_label = 0 }
  in
  let main = mk "main" [ Call (None, "r", []) ] (Ret None) in
  let r =
    { fname = "r"; params = []; slots = [];
      blocks =
        [
          { bname = "entry"; insns = []; term = Cbr (Imm 1l, "rec", "out") };
          { bname = "rec"; insns = [ Call (None, "r", []) ]; term = Br "out" };
          { bname = "out"; insns = []; term = Ret None };
        ];
      next_reg = 0; next_label = 0 }
  in
  let cg = A.Callgraph.build { globals = []; funcs = [ main; r ] } in
  Alcotest.(check bool) "r marked recursive" true (cg.A.Callgraph.recursive "r");
  let fr = cg.A.Callgraph.func_freq "r" in
  Alcotest.(check bool)
    (Printf.sprintf "recursive frequency finite and positive (%g)" fr)
    true
    (Float.is_finite fr && fr > 0.)

let suite =
  [
    Alcotest.test_case "cfg: successors/preds/exits" `Quick test_cfg;
    Alcotest.test_case "dominance" `Quick test_dominance;
    Alcotest.test_case "post-dominance" `Quick test_post_dominance;
    Alcotest.test_case "loops: natural loop" `Quick test_loops;
    Alcotest.test_case "loops: nesting" `Quick test_nested_loops;
    Alcotest.test_case "reach: checkpoint barriers" `Quick test_reach_barriers;
    Alcotest.test_case "reach: calls are barriers" `Quick test_reach_call_barrier;
    Alcotest.test_case "alias: distinct globals" `Quick test_alias_distinct_globals;
    Alcotest.test_case "alias: constant offsets" `Quick test_alias_offsets;
    Alcotest.test_case "alias: basic mode conflates" `Quick test_alias_basic_mode_conflates;
    Alcotest.test_case "alias: escape analysis" `Quick test_alias_escape;
    Alcotest.test_case "pdg: WAR detection" `Quick test_pdg_war_detection;
    Alcotest.test_case "pdg: no false WARs" `Quick test_pdg_no_war_without_alias;
    Alcotest.test_case "affine: algebra" `Quick test_affine;
    Alcotest.test_case "affine: loop spine" `Quick test_affine_spine;
    Alcotest.test_case "hitting set: shared element" `Quick test_hitting_set_shared;
    Alcotest.test_case "hitting set: disjoint" `Quick test_hitting_set_disjoint;
    Alcotest.test_case "hitting set: cost aware" `Quick test_hitting_set_cost;
    Alcotest.test_case "hitting set: empty set" `Quick test_hitting_set_empty_set;
    Alcotest.test_case "hitting set: cover property" `Quick test_hitting_set_covers;
    Alcotest.test_case "hitting set: greedy picks on ties" `Quick
      test_hitting_set_ties_pinned;
    to_alcotest prop_dominance_bruteforce;
    to_alcotest prop_loops_well_formed;
    Alcotest.test_case "loops: irreducible cycle has no natural loop" `Quick
      test_irreducible_cycle;
    Alcotest.test_case "loops: deep nesting" `Quick test_deeply_nested_loops;
    Alcotest.test_case "callgraph: hot callee priced globally" `Quick
      test_callgraph_hot_callee;
    Alcotest.test_case "callgraph: unreached stays per-invocation" `Quick
      test_callgraph_unreached_defaults;
    Alcotest.test_case "callgraph: recursion finite" `Quick
      test_callgraph_recursion_finite;
  ]

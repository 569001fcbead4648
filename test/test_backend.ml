(* Back-end tests: instruction selection, web splitting, register
   allocation, frame lowering / pop conversion / epilog styles, the stack
   spill checkpoint inserters, and checkpoint live masks — validated both
   structurally and differentially (emulator output vs. IR interpreter). *)

module I = Wario_machine.Isa
module B = Wario_backend
module E = Wario_emulator
module P = Wario.Pipeline
module Minic = Wario_minic.Minic
module Interp = Wario_ir.Ir_interp

let compile_env env src = P.compile env src

let emu_output ?(irq_period = 0) c =
  E.Emulator.run ~irq_period c.P.image

(* ------------------------------------------------------------------ *)
(* Differential: every micro program, every environment                 *)
(* ------------------------------------------------------------------ *)

let test_differential_all_envs () =
  List.iter
    (fun (m : Wario_workloads.Micro.t) ->
      List.iter
        (fun env ->
          let c = compile_env env m.source in
          let r = E.Emulator.run ~verify:(env <> P.Plain) c.P.image in
          Alcotest.(check (list int32))
            (Printf.sprintf "%s [%s]" m.name (P.environment_name env))
            m.expected r.E.Emulator.output;
          if env <> P.Plain then
            Alcotest.(check int)
              (Printf.sprintf "%s [%s] violations" m.name (P.environment_name env))
              0
              (List.length r.E.Emulator.violations))
        P.all_environments)
    Wario_workloads.Micro.all

(* ------------------------------------------------------------------ *)
(* Isel                                                                 *)
(* ------------------------------------------------------------------ *)

let test_isel_rejects_many_params () =
  let src =
    {|int f(int a, int b, int c, int d, int e) { return a+b+c+d+e; }
      int main(void){ return f(1,2,3,4,5); }|}
  in
  let prog = Minic.compile src in
  match B.Isel.select_func (Wario_ir.Ir.find_func prog "f") with
  | exception B.Isel.Isel_error _ -> ()
  | _ -> Alcotest.fail "expected an isel error for 5 parameters"

let test_isel_structure () =
  let prog = Minic.compile "int main(void){ return 1 + 2; }" in
  let mf, _ = B.Isel.select_func (Wario_ir.Ir.find_func prog "main") in
  (* the stub block carries the function-name label *)
  Alcotest.(check string) "entry label" "main"
    (List.hd mf.I.mblocks).I.mlabel;
  (* a Ret lowered to mov r0 + branch to the epilog *)
  let has_epilog_branch =
    List.exists
      (fun b ->
        List.exists
          (function I.B l -> l = B.Isel.epilog_label "main" | _ -> false)
          b.I.mcode)
      mf.I.mblocks
  in
  Alcotest.(check bool) "branches to epilog" true has_epilog_branch

(* ------------------------------------------------------------------ *)
(* Webs                                                                 *)
(* ------------------------------------------------------------------ *)

let test_webs_split () =
  (* one virtual register redefined twice with disjoint uses -> 2 webs *)
  let v = I.first_vreg in
  let mf =
    {
      I.mname = "w";
      frame_words = 0; mframe = None;
      mblocks =
        [
          {
            I.mlabel = "w";
            mcode =
              [
                I.Mov (v, I.I 1l);
                I.Alu (I.ADD, v + 1, v, I.I 0l);
                I.Mov (v, I.I 2l); (* fresh value: new web *)
                I.Alu (I.ADD, v + 2, v, I.I 0l);
                I.Bx_lr;
              ];
          };
        ];
    }
  in
  ignore (B.Webs.run mf ~next_vreg:(v + 3));
  let code = (List.hd mf.I.mblocks).I.mcode in
  let def1 = match List.nth code 0 with I.Mov (d, _) -> d | _ -> -1 in
  let def2 = match List.nth code 2 with I.Mov (d, _) -> d | _ -> -1 in
  Alcotest.(check bool) "two defs got distinct webs" true (def1 <> def2);
  let use1 = match List.nth code 1 with I.Alu (_, _, rn, _) -> rn | _ -> -1 in
  let use2 = match List.nth code 3 with I.Alu (_, _, rn, _) -> rn | _ -> -1 in
  Alcotest.(check int) "use1 sees def1" def1 use1;
  Alcotest.(check int) "use2 sees def2" def2 use2

let test_webs_join_at_merge () =
  (* defs on both branches meeting at a join must share a web *)
  let v = I.first_vreg in
  let mf =
    {
      I.mname = "w";
      frame_words = 0; mframe = None;
      mblocks =
        [
          { I.mlabel = "w";
            mcode = [ I.Cmp (0, I.I 0l); I.Bc (I.EQ, "a"); I.B "b" ] };
          { I.mlabel = "a"; mcode = [ I.Mov (v, I.I 1l); I.B "join" ] };
          { I.mlabel = "b"; mcode = [ I.Mov (v, I.I 2l); I.B "join" ] };
          {
            I.mlabel = "join";
            mcode = [ I.Alu (I.ADD, v + 1, v, I.I 3l); I.Bx_lr ];
          };
        ];
    }
  in
  ignore (B.Webs.run mf ~next_vreg:(v + 2));
  let get_block l = List.find (fun b -> b.I.mlabel = l) mf.I.mblocks in
  let da = match (get_block "a").I.mcode with I.Mov (d, _) :: _ -> d | _ -> -1 in
  let db = match (get_block "b").I.mcode with I.Mov (d, _) :: _ -> d | _ -> -1 in
  let use =
    match (get_block "join").I.mcode with
    | I.Alu (_, _, rn, _) :: _ -> rn
    | _ -> -1
  in
  Alcotest.(check int) "branch defs unified" da db;
  Alcotest.(check int) "join use sees the web" da use

(* The three shapes liveness decides: a dead join keeps webs apart, a
   loop-carried def joins its header's web, and a [Movc] keeps the web of
   the value it may leave in place. *)

let block_code mf l = (List.find (fun b -> b.I.mlabel = l) mf.I.mblocks).I.mcode
let def_reg ins = Option.get (I.writes ins)
let use_reg ins = List.hd (I.reads ins)

let test_webs_dead_join_splits () =
  let v = I.first_vreg in
  let mf =
    {
      I.mname = "w";
      frame_words = 0; mframe = None;
      mblocks =
        [
          { I.mlabel = "w";
            mcode = [ I.Cmp (0, I.I 0l); I.Bc (I.EQ, "a"); I.B "b" ] };
          { I.mlabel = "a";
            mcode =
              [ I.Mov (v, I.I 1l); I.Alu (I.ADD, v + 1, v, I.I 0l); I.B "join" ] };
          { I.mlabel = "b";
            mcode =
              [ I.Mov (v, I.I 2l); I.Alu (I.ADD, v + 2, v, I.I 0l); I.B "join" ] };
          (* [v] is dead here: the two defs share no use *)
          { I.mlabel = "join"; mcode = [ I.Mov (0, I.I 0l); I.Bx_lr ] };
        ];
    }
  in
  ignore (B.Webs.run mf ~next_vreg:(v + 3));
  let da = def_reg (List.nth (block_code mf "a") 0) in
  let db = def_reg (List.nth (block_code mf "b") 0) in
  Alcotest.(check bool) "defs meeting where dead stay apart" true (da <> db);
  Alcotest.(check int) "a's use" da (use_reg (List.nth (block_code mf "a") 1));
  Alcotest.(check int) "b's use" db (use_reg (List.nth (block_code mf "b") 1))

let test_webs_loop_carried () =
  let v = I.first_vreg in
  let mf =
    {
      I.mname = "w";
      frame_words = 0; mframe = None;
      mblocks =
        [
          { I.mlabel = "w"; mcode = [ I.Mov (v, I.I 0l) ] };
          { I.mlabel = "h"; mcode = [ I.Cmp (v, I.I 10l); I.Bc (I.GE, "x") ] };
          { I.mlabel = "body";
            mcode = [ I.Alu (I.ADD, v, v, I.I 1l); I.B "h" ] };
          { I.mlabel = "x";
            mcode = [ I.Alu (I.ADD, v + 1, v, I.I 0l); I.Bx_lr ] };
        ];
    }
  in
  ignore (B.Webs.run mf ~next_vreg:(v + 2));
  let init = def_reg (List.hd (block_code mf "w")) in
  let step = List.hd (block_code mf "body") in
  Alcotest.(check int) "header use sees the entry def" init
    (use_reg (List.hd (block_code mf "h")));
  Alcotest.(check int) "loop-carried def joins the header's web" init
    (def_reg step);
  Alcotest.(check int) "loop body reads the same web" init (use_reg step);
  Alcotest.(check int) "exit use sees the web" init
    (use_reg (List.hd (block_code mf "x")))

let test_webs_movc_keeps_web () =
  let v = I.first_vreg in
  let mf =
    {
      I.mname = "w";
      frame_words = 0; mframe = None;
      mblocks =
        [
          {
            I.mlabel = "w";
            mcode =
              [
                I.Mov (v, I.I 1l);
                I.Alu (I.ADD, v + 1, v, I.I 0l);
                I.Mov (v, I.I 2l);
                I.Cmp (0, I.I 0l);
                I.Movc (I.EQ, v, I.I 3l);
                I.Alu (I.ADD, v + 2, v, I.I 0l);
                I.Bx_lr;
              ];
          };
        ];
    }
  in
  ignore (B.Webs.run mf ~next_vreg:(v + 3));
  let code = block_code mf "w" in
  let first = def_reg (List.nth code 0) and kept = def_reg (List.nth code 2) in
  Alcotest.(check bool) "first value has its own web" true (first <> kept);
  Alcotest.(check int) "movc writes the kept value's web" kept
    (def_reg (List.nth code 4));
  Alcotest.(check int) "later use reads that web" kept
    (use_reg (List.nth code 5))

(* Reading an uninitialised local is undefined in C but must not crash the
   compiler: the use gets a web of its own.  Exit codes are not compared
   with [Ir_interp], which reads the value as 0. *)
let test_uninitialised_local () =
  let src = "int main(void) { int x; return x + 1; }" in
  List.iter
    (fun env ->
      let name = P.environment_name env in
      let c = compile_env env src in
      (if env <> P.Plain then
         match P.certify c with
         | Wario_certify.Certify.Certified _ -> ()
         | v -> Alcotest.failf "%s: %s" name (P.certify_report c v));
      ignore (E.Emulator.run ~verify:(env <> P.Plain) c.P.image))
    P.all_environments

(* Differential reference for webs: brute-force du-chains on the pre-webs
   code.  The defs reaching a use are found by searching backward from it
   over an independently computed CFG.  Two properties are checked on the
   renamed code, which keeps every instruction in place:
   - every def reaching a use writes the register that use now reads;
   - two defs of one vreg share a register only if a chain of common uses
     (or a [Movc], which reads and writes its destination) connects them.
   Returns an error message for the first violation. *)
let webs_match_du_chains (mf : I.mfunc) ~next_vreg : (unit, string) result =
  let vreg r = r >= I.first_vreg in
  let code () =
    Array.of_list (List.map (fun b -> Array.of_list b.I.mcode) mf.I.mblocks)
  in
  let pre = code () in
  let labels = Array.of_list (List.map (fun b -> b.I.mlabel) mf.I.mblocks) in
  ignore (B.Webs.run mf ~next_vreg);
  let post = code () in
  let n = Array.length pre in
  (* the last block carrying label [l], as a branch resolves it *)
  let index l =
    let rec go i =
      if i < 0 then None else if labels.(i) = l then Some i else go (i - 1)
    in
    go (n - 1)
  in
  let preds = Array.make n [] in
  Array.iteri
    (fun i code ->
      let len = Array.length code in
      Array.iter
        (function
          | I.B l | I.Bc (_, l) ->
              Option.iter (fun t -> preds.(t) <- i :: preds.(t)) (index l)
          | _ -> ())
        code;
      let sealed =
        len > 0 && match code.(len - 1) with I.B _ | I.Bx_lr -> true | _ -> false
      in
      if (not sealed) && i + 1 < n then preds.(i + 1) <- i :: preds.(i + 1))
    pre;
  let defines v ins = I.writes ins = Some v in
  (* defs of [v] reaching position [k] of block [b] *)
  let reaching b k v =
    let rec last_def b k =
      if k < 0 then None
      else if defines v pre.(b).(k) then Some (b, k)
      else last_def b (k - 1)
    in
    match last_def b (k - 1) with
    | Some d -> [ d ]
    | None ->
        let seen = Array.make n false and found = ref [] in
        let rec visit p =
          if not seen.(p) then begin
            seen.(p) <- true;
            match last_def p (Array.length pre.(p) - 1) with
            | Some d -> found := d :: !found
            | None -> List.iter visit preds.(p)
          end
        in
        List.iter visit preds.(b);
        !found
  in
  let classes = Hashtbl.create 64 in
  let rec find d =
    match Hashtbl.find_opt classes d with
    | Some p when p <> d ->
        let r = find p in
        Hashtbl.replace classes d r;
        r
    | _ -> d
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace classes ra rb
  in
  let error = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !error = None then error := Some m) fmt
  in
  Array.iteri
    (fun b code ->
      Array.iteri
        (fun k ins ->
          let now = I.reads post.(b).(k) in
          List.iteri
            (fun i v ->
              if vreg v then begin
                let r = List.nth now i in
                let defs = reaching b k v in
                List.iter
                  (fun (db, dk) ->
                    if I.writes post.(db).(dk) <> Some r then
                      fail "%s: def at %s+%d of r%d does not write r%d, read at %s+%d"
                        mf.I.mname labels.(db) dk v r labels.(b) k;
                    union (db, dk) (List.hd defs))
                  defs;
                match ins with
                | I.Movc (_, rd, _) when rd = v && defs <> [] ->
                    union (b, k) (List.hd defs)
                | _ -> ()
              end)
            (I.reads ins))
        code)
    pre;
  (* renamed register -> (original vreg, reference class) of its defs *)
  let owner = Hashtbl.create 64 in
  Array.iteri
    (fun b code ->
      Array.iteri
        (fun k ins ->
          match I.writes ins with
          | Some v when vreg v -> (
              let r = Option.get (I.writes post.(b).(k)) in
              let mine = (v, find (b, k)) in
              match Hashtbl.find_opt owner r with
              | None -> Hashtbl.replace owner r mine
              | Some o when o <> mine ->
                  fail "%s: def at %s+%d of r%d shares r%d with an unconnected def"
                    mf.I.mname labels.(b) k v r
              | Some _ -> ())
          | _ -> ())
        code)
    pre;
  match !error with None -> Ok () | Some m -> Error m

let check_webs_of_program what (prog : Wario_ir.Ir.program) =
  List.iter
    (fun f ->
      let mf, next_vreg = B.Isel.select_func f in
      match webs_match_du_chains mf ~next_vreg with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" what m)
    prog.Wario_ir.Ir.funcs

let test_webs_du_chains_benchmarks () =
  List.iter
    (fun (what, ir, _) -> check_webs_of_program what ir)
    (Lazy.force Test_certify.benchmark_lowered)

let prop_webs_du_chains =
  QCheck.Test.make ~name:"random programs: webs = du-chain reference"
    ~count:25 Test_props.arbitrary_program
    (fun src ->
      List.for_all
        (fun prog ->
          List.for_all
            (fun f ->
              let mf, next_vreg = B.Isel.select_func f in
              match webs_match_du_chains mf ~next_vreg with
              | Ok () -> true
              | Error m -> QCheck.Test.fail_reportf "%s" m)
            prog.Wario_ir.Ir.funcs)
        [ Minic.compile src; (let ir, _, _ = P.lower P.Wario src in ir) ])

(* ------------------------------------------------------------------ *)
(* Register allocation                                                  *)
(* ------------------------------------------------------------------ *)

let test_regalloc_physical_only () =
  List.iter
    (fun (m : Wario_workloads.Micro.t) ->
      let _, mprog, _ = P.lower P.Wario m.source in
      List.iter
        (fun (mf : I.mfunc) ->
          List.iter
            (fun b ->
              List.iter
                (fun ins ->
                  List.iter
                    (fun r ->
                      if r >= I.first_vreg then
                        Alcotest.failf "%s: virtual register r%d survived RA in %s"
                          m.name r (I.string_of_instr ins))
                    (I.reads ins
                    @ match I.writes ins with Some d -> [ d ] | None -> []))
                b.I.mcode)
            mf.I.mblocks)
        mprog.I.mfuncs)
    Wario_workloads.Micro.all

let test_regalloc_spills_under_pressure () =
  (* an expression tree needing far more than 11 simultaneous live values *)
  let src =
    {|int f(int a, int b) {
        int t01 = a + b;   int t02 = a - b;   int t03 = a * 3;
        int t04 = b * 5;   int t05 = a ^ b;   int t06 = a | b;
        int t07 = a & b;   int t08 = a << 1;  int t09 = b >> 1;
        int t10 = a + 7;   int t11 = b + 9;   int t12 = a - 4;
        int t13 = b - 6;   int t14 = a * b;   int t15 = a + b + 1;
        return t01+t02+t03+t04+t05+t06+t07+t08+t09+t10+t11+t12+t13+t14+t15; }
      int main(void){ print_int(f(100, 37)); return 0; }|}
  in
  let c = compile_env P.Plain src in
  Alcotest.(check bool) "some spills happened" true
    (c.P.backend.spill_slots > 0);
  let r = emu_output c in
  Alcotest.(check (list int32)) "spilled program is correct"
    (Interp.run (Minic.compile src)).Interp.output r.E.Emulator.output

(* ------------------------------------------------------------------ *)
(* Frames, epilogs, spill checkpoints                                   *)
(* ------------------------------------------------------------------ *)

let count_ckpts_in (mprog : I.mprog) pred =
  List.fold_left
    (fun acc f ->
      List.fold_left
        (fun acc b ->
          acc
          + List.length
              (List.filter
                 (function I.Ckpt (c, _) -> pred c | _ -> false)
                 b.I.mcode))
        acc f.I.mblocks)
    0 mprog.I.mfuncs

let frame_src =
  {|int helper(int x) {
      int buf[8]; int i;
      for (i = 0; i < 8; i++) buf[i] = x + i;
      int s = 0;
      for (i = 0; i < 8; i++) s = s + buf[i] * buf[(i + 1) & 7];
      return s; }
    int main(void){ print_int(helper(3) + helper(9)); return 0; }|}

let test_epilog_styles () =
  let _, naive_m, naive = P.lower P.R_pdg frame_src in
  let _, opt_m, opt = P.lower P.Epilog_opt frame_src in
  let exits p = count_ckpts_in p (fun c -> c = I.Function_exit) in
  Alcotest.(check bool)
    (Printf.sprintf "optimized epilogs have fewer exit checkpoints (%d < %d)"
       (exits opt_m) (exits naive_m))
    true
    (exits opt_m < exits naive_m);
  (* the optimizer brackets the epilog in cpsid/cpsie *)
  let has_cpsid =
    List.exists
      (fun (f : I.mfunc) ->
        List.exists
          (fun b -> List.exists (function I.Cpsid -> true | _ -> false) b.I.mcode)
          f.I.mblocks)
      opt_m.I.mfuncs
  in
  Alcotest.(check bool) "interrupts disabled across epilog" true has_cpsid;
  (* both run correctly *)
  let reference = (Interp.run (Minic.compile frame_src)).Interp.output in
  Alcotest.(check (list int32)) "naive" reference (emu_output naive).E.Emulator.output;
  Alcotest.(check (list int32)) "optimized" reference (emu_output opt).E.Emulator.output

let test_plain_backend_no_ckpts () =
  let _, mprog, _ = P.lower P.Plain frame_src in
  Alcotest.(check int) "no checkpoints at all" 0
    (count_ckpts_in mprog (fun _ -> true))

let test_leaf_no_stack_no_ckpts () =
  (* a function with no stack writes needs no boundary checkpoints *)
  let src =
    {|int tiny(int a) { return a + 1; }
      int main(void){ return tiny(41); }|}
  in
  let _, mprog, _ = P.lower P.R_pdg src in
  let tiny = List.find (fun f -> f.I.mname = "tiny") mprog.I.mfuncs in
  let count p =
    List.fold_left
      (fun acc b -> acc + List.length (List.filter p b.I.mcode))
      0 tiny.I.mblocks
  in
  (* every call is bracketed by mandatory entry and exit barriers: the
     callee's reads must not share a region with the caller's later writes
     (and vice versa); a stackless leaf needs nothing more *)
  Alcotest.(check int) "entry + exit barrier only" 2
    (count (function I.Ckpt _ -> true | _ -> false));
  Alcotest.(check int) "one exit checkpoint" 1
    (count (function I.Ckpt (I.Function_exit, _) -> true | _ -> false));
  Alcotest.(check int) "no pushes" 0
    (count (function I.Push _ -> true | _ -> false))

let spill_war_src =
  (* heavy expression inside a loop: spill slots are written and read every
     iteration, creating back-end WARs *)
  {|unsigned g[4];
    int main(void){
      int i; int a = 3; int b = 5;
      unsigned acc = 1u;
      for (i = 0; i < 50; i++) {
        int t01 = a + i;   int t02 = b - i;   int t03 = a * i;
        int t04 = b ^ i;   int t05 = a | i;   int t06 = b & i;
        int t07 = i << 2;  int t08 = i >> 1;  int t09 = a + b;
        int t10 = a - b;   int t11 = i * 3;   int t12 = i + 11;
        int t13 = a * 7;   int t14 = b * 9;
        acc = acc + (unsigned)(t01+t02+t03+t04+t05+t06+t07+t08+t09+t10+t11+t12+t13+t14);
        acc = acc * 31u + (acc >> 5);
        g[i & 3] = acc;
      }
      print_int((int)acc);
      print_int((int)g[1]);
      return 0; }|}

let test_spill_ckpt_strategies () =
  let naive = compile_env P.R_pdg spill_war_src in
  let hs = compile_env P.Wario spill_war_src in
  (* both are WAR-free dynamically *)
  let rn = emu_output naive and rh = emu_output hs in
  Alcotest.(check int) "naive violations" 0 (List.length rn.E.Emulator.violations);
  Alcotest.(check int) "hs violations" 0 (List.length rh.E.Emulator.violations);
  Alcotest.(check (list int32)) "same output" rn.E.Emulator.output rh.E.Emulator.output;
  (* when spill WARs exist, the hitting set needs no more checkpoints than
     one-per-store *)
  if naive.P.backend.spill_wars > 0 then
    Alcotest.(check bool) "hitting set not worse" true
      (hs.P.backend.spill_ckpts <= naive.P.backend.spill_ckpts)

let test_ckpt_masks_nonempty () =
  (* checkpoint masks must include the live registers: running with masks
     is already covered; here we check they are not saving everything *)
  let _, mprog, _ = P.lower P.Wario frame_src in
  let masks = ref [] in
  List.iter
    (fun (f : I.mfunc) ->
      List.iter
        (fun b ->
          List.iter
            (function I.Ckpt (_, m) -> masks := m :: !masks | _ -> ())
            b.I.mcode)
        f.I.mblocks)
    mprog.I.mfuncs;
  Alcotest.(check bool) "has checkpoints" true (!masks <> []);
  Alcotest.(check bool) "not all registers live everywhere" true
    (List.exists (fun m -> m <> 0x7fff) !masks)

let test_text_size_ordering () =
  (* instrumented builds are bigger than plain; expander biggest *)
  let m = Wario_workloads.Micro.find "sort" in
  let plain = (compile_env P.Plain m.source).P.text_bytes in
  let ratchet = (compile_env P.Ratchet m.source).P.text_bytes in
  let wario = (compile_env P.Wario m.source).P.text_bytes in
  Alcotest.(check bool) "ratchet >= plain" true (ratchet >= plain);
  Alcotest.(check bool) "wario >= plain" true (wario >= plain)

let suite =
  [
    Alcotest.test_case "differential: all micros x all envs" `Quick
      test_differential_all_envs;
    Alcotest.test_case "isel: >4 params rejected" `Quick test_isel_rejects_many_params;
    Alcotest.test_case "isel: structure" `Quick test_isel_structure;
    Alcotest.test_case "webs: splits independent ranges" `Quick test_webs_split;
    Alcotest.test_case "webs: joins at merges" `Quick test_webs_join_at_merge;
    Alcotest.test_case "webs: dead join keeps defs apart" `Quick
      test_webs_dead_join_splits;
    Alcotest.test_case "webs: loop-carried def joins header" `Quick
      test_webs_loop_carried;
    Alcotest.test_case "webs: movc keeps its web" `Quick test_webs_movc_keeps_web;
    Alcotest.test_case "webs: uninitialised local compiles and runs" `Quick
      test_uninitialised_local;
    Alcotest.test_case "webs: du-chain reference, benchmarks" `Slow
      test_webs_du_chains_benchmarks;
    Test_props.to_alcotest prop_webs_du_chains;
    Alcotest.test_case "regalloc: no virtual registers survive" `Quick
      test_regalloc_physical_only;
    Alcotest.test_case "regalloc: spills correctly" `Quick
      test_regalloc_spills_under_pressure;
    Alcotest.test_case "frames: epilog styles" `Quick test_epilog_styles;
    Alcotest.test_case "frames: plain has no checkpoints" `Quick
      test_plain_backend_no_ckpts;
    Alcotest.test_case "frames: stackless leaf" `Quick test_leaf_no_stack_no_ckpts;
    Alcotest.test_case "spill checkpoints: both strategies safe" `Quick
      test_spill_ckpt_strategies;
    Alcotest.test_case "checkpoint masks" `Quick test_ckpt_masks_nonempty;
    Alcotest.test_case "text size ordering" `Quick test_text_size_ordering;
  ]

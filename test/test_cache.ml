(* The content-addressed compile cache (PR 10): the on-disk store, the
   canonical stage keys, cached-compile byte identity, and the Pgo
   shared-prefix property.

   The load-bearing claims:
   - every [Pipeline.options] field (and the environment and the source)
     reaches the image-stage key —
     no configuration can alias another's cached artifacts;
   - a warm-cache compile is byte-identical (Marshal) to a fresh
     uncached compile, for every environment;
   - incremental recompilation holds: an [elide]/[motion] toggle re-runs
     only the image stage, a placement change reuses the cached
     transformed WIR;
   - the store never breaks its caller: corrupt entries degrade to
     misses, the byte budget evicts LRU-first. *)

module P = Wario.Pipeline
module C = Wario.Cache
module Store = Wario_support.Store
module T = Wario_transforms

let src = "int x; int main() { x = 1; x = x + 2; return x; }"

let src2 =
  "int a[4]; int main() { int i; for (i = 0; i < 4; i = i + 1) { a[i] = a[i] \
   + i; } return a[3]; }"

let tmp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  d

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun n -> remove_tree (Filename.concat path n))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_store ?max_bytes f =
  let dir = tmp_dir "wario-test-store" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () -> f dir (Store.open_store ?max_bytes dir))

let with_cache f =
  let dir = tmp_dir "wario-test-cache" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () -> f (C.create dir))

let image_bytes (c : P.compiled) = Marshal.to_string c.P.image []

(* ------------------------------------------------------------------ *)
(* Store                                                                *)
(* ------------------------------------------------------------------ *)

(* the payload under [key], copied out of the store's read buffer *)
let find_string s key =
  Store.find s key (fun buf off len -> Some (Bytes.sub_string buf off len))

let test_store_roundtrip () =
  with_store (fun _dir s ->
      Alcotest.(check (option string)) "miss on empty" None (find_string s "aa");
      Store.put s ~meta:"t" "aa" "payload-1";
      Alcotest.(check (option string))
        "hit after put" (Some "payload-1") (find_string s "aa");
      Alcotest.(check bool) "mem" true (Store.mem s "aa");
      Alcotest.(check bool) "not mem" false (Store.mem s "bb");
      Store.put s "aa" "payload-2";
      Alcotest.(check (option string))
        "overwrite" (Some "payload-2") (find_string s "aa");
      let c = Store.counters s in
      Alcotest.(check int) "hits" 2 c.Store.hits;
      Alcotest.(check int) "misses" 1 c.Store.misses;
      Alcotest.(check int) "puts" 2 c.Store.puts)

let test_store_rejects_bad_keys () =
  with_store (fun _dir s ->
      (* path-escaping or empty keys must be ignored, not written *)
      Store.put s "../escape" "x";
      Store.put s "" "x";
      Store.put s "a/b" "x";
      let c = Store.counters s in
      Alcotest.(check int) "no puts recorded" 0 c.Store.puts;
      Alcotest.(check (option string)) "no entry" None (find_string s "aa"))

let test_store_corrupt_entry_is_miss () =
  with_store (fun dir s ->
      Store.put s "cc" "good";
      let path = Filename.concat (Filename.concat dir "objects") "cc" in
      let oc = open_out_bin path in
      output_string oc "garbage without a header";
      close_out oc;
      Alcotest.(check (option string))
        "corrupt entry reads as miss" None (find_string s "cc");
      Alcotest.(check bool)
        "corrupt entry deleted on discovery" false (Sys.file_exists path);
      (* and the slot is reusable *)
      Store.put s "cc" "fresh";
      Alcotest.(check (option string))
        "overwritten cleanly" (Some "fresh") (find_string s "cc"))

(* Every single-bit flip and every truncation of a small cache entry
   reads back as a miss or as the original value — never as a
   mis-unmarshalled value, an exception or a crash.  Without the payload
   digest, a flip inside the marshalled bytes would reach
   [Marshal.from_string]. *)
let test_cache_entry_bit_flips_and_truncations () =
  let dir = tmp_dir "wario-test-cache" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let cache = C.create dir in
      let key = C.Key.of_parts [ ("stage", "flip-test") ] in
      let v = ([ 1; 2; 3 ], "payload", Some 4.5) in
      C.put cache key v;
      let path =
        Filename.concat (Filename.concat dir "objects") (C.Key.to_hex key)
      in
      let good = In_channel.with_open_bin path In_channel.input_all in
      let check what bytes =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc bytes);
        match (C.get cache key : (int list * string * float option) option) with
        | None -> ()
        | Some v' when v' = v -> ()
        | Some _ -> Alcotest.failf "%s: a different value came back" what
        | exception e ->
            Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
      in
      for i = 0 to String.length good - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string good in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          check (Printf.sprintf "bit %d of byte %d flipped" bit i)
            (Bytes.to_string b)
        done
      done;
      for len = 0 to String.length good - 1 do
        check (Printf.sprintf "truncated to %d bytes" len)
          (String.sub good 0 len)
      done;
      (* the untouched entry still hits *)
      check "intact" good;
      Alcotest.(check bool) "intact entry hits" true (C.get cache key = Some v))

(* The read path: one reused buffer per domain. *)

let big_value i = (i, String.init (300_000 + i) (fun k -> Char.chr ((k + i) land 255)))

(* An entry larger than the buffer's first size reads whole; a small entry
   read right after it returns only its own bytes, whatever the larger
   entry left in the buffer past it. *)
let test_cache_reads_reuse_the_buffer () =
  with_cache (fun cache ->
      let kb = C.Key.of_parts [ ("stage", "big") ]
      and ks = C.Key.of_parts [ ("stage", "small") ] in
      let big = big_value 1 and small = (2, "s") in
      C.put cache kb big;
      C.put cache ks small;
      for _ = 1 to 2 do
        Alcotest.(check bool) "the large entry reads whole" true
          ((C.get cache kb : (int * string) option) = Some big);
        Alcotest.(check bool) "the small entry after it is itself" true
          ((C.get cache ks : (int * string) option) = Some small)
      done)

(* Warm gets from two domains over different entries each come back with
   their own value: each domain reads into its own buffer. *)
let test_cache_gets_from_two_domains () =
  with_cache (fun cache ->
      let entries =
        List.init 12 (fun i ->
            let v = if i mod 3 = 0 then big_value i else (i, String.make (1 + (997 * i)) 'x') in
            (C.Key.of_parts [ ("stage", "domains"); ("i", string_of_int i) ], v))
      in
      List.iter (fun (k, v) -> C.put cache k v) entries;
      let jobs = List.concat (List.init 4 (fun _ -> entries)) in
      let got =
        Wario_exec.Exec.map ~jobs:2
          (fun (k, _) -> (C.get cache k : (int * string) option))
          jobs
      in
      List.iter2
        (fun (_, v) g -> Alcotest.(check bool) "own value" true (g = Some v))
        jobs got;
      Alcotest.(check int) "every get hit" (List.length jobs) (C.counters cache).C.hits)

(* A payload that is not exactly one marshalled value (trailing bytes, or
   one byte short) passes the store's check but is a miss, and is deleted. *)
let test_cache_marshal_size_mismatch_is_miss () =
  let dir = tmp_dir "wario-test-cache" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let cache = C.create dir and store = Store.open_store dir in
      let key = C.Key.of_parts [ ("stage", "size-test") ] in
      let good = Marshal.to_string (7, "seven") [] in
      List.iter
        (fun (what, payload) ->
          Store.put store (C.Key.to_hex key) payload;
          Alcotest.(check bool) what true
            ((C.get cache key : (int * string) option) = None);
          Alcotest.(check bool) (what ^ ": deleted") false
            (Store.mem store (C.Key.to_hex key)))
        [
          ("trailing bytes", good ^ "extra");
          ("one byte short", String.sub good 0 (String.length good - 1));
          ("shorter than a header", "x");
        ];
      Store.put store (C.Key.to_hex key) good;
      Alcotest.(check bool) "the exact payload hits" true
        ((C.get cache key : (int * string) option) = Some (7, "seven")))

let test_store_lru_eviction () =
  (* budget of ~3 small entries; oldest (least-recently-touched) goes *)
  let payload = String.make 200 'x' in
  with_store ~max_bytes:800 (fun _dir s ->
      Store.put s "k1" payload;
      Store.put s "k2" payload;
      Store.put s "k3" payload;
      (* refresh k1's LRU position so k2 is the eviction victim *)
      ignore (find_string s "k1");
      Unix.sleepf 0.01;
      Store.put s "k4" payload;
      let c = Store.counters s in
      Alcotest.(check bool) "evicted something" true (c.Store.evictions > 0);
      Alcotest.(check bool) "newest survives" true (Store.mem s "k4"))

(* ------------------------------------------------------------------ *)
(* Stage keys                                                           *)
(* ------------------------------------------------------------------ *)

let key ?opts env s = C.Key.to_hex (P.image_key ?opts env s)

let test_key_shape () =
  let k = key P.Wario src in
  Alcotest.(check int) "32 hex chars" 32 (String.length k);
  Alcotest.(check bool)
    "lowercase hex" true
    (String.for_all (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false) k);
  Alcotest.(check string) "deterministic" k (key P.Wario src);
  Alcotest.(check int)
    "five stages in order" 5
    (List.length (P.stage_keys P.Wario src));
  Alcotest.(check (list string))
    "stage names" P.stage_names
    (List.map fst (P.stage_keys P.Wario src))

(* Keys must not move: serve's [key] field and the corpus fingerprints
   are persisted.  [Key.of_parts] folds the pieces into a running hash;
   the reference below builds the canonical string and hashes it twice,
   as the derivation is specified.  The literal was recorded before the
   fold was introduced; the format version carries the OCaml version, so
   it is compared only under the toolchain it was recorded with. *)
let test_key_pinned () =
  let reference parts =
    let canon =
      String.concat ""
        (("1:" ^ Sys.ocaml_version)
        :: List.map (fun (f, v) -> "\x00" ^ f ^ "\x01" ^ v) parts)
    in
    Printf.sprintf "%016Lx%016Lx"
      (Wario_support.Util.fnv1a64 canon)
      (Wario_support.Util.fnv1a64 (canon ^ "\x02wario-key"))
  in
  let pinned = [ ("stage", "front"); ("source", "int main() { return 0; }") ] in
  List.iter
    (fun parts ->
      Alcotest.(check string)
        "of_parts = hash of the canonical string" (reference parts)
        (C.Key.of_parts parts))
    [ []; pinned; [ ("", "") ]; [ ("stage", "image"); ("parent", key P.Wario src) ] ];
  if Sys.ocaml_version = "5.1.1" then
    Alcotest.(check string)
      "recorded key" "20c4bd46a7983a3156c6e08efe0a554f" (C.Key.of_parts pinned)

(* Flipping ANY options field must change the image key: the cache can
   never serve one configuration's image to another. *)
let test_every_option_field_flips_the_key () =
  let d = P.default_options in
  let base = key ~opts:d P.Wario src in
  let flips =
    [
      ("unroll_factor", { d with P.unroll_factor = 4 });
      ("expander_size_limit", { d with P.expander_size_limit = 1 });
      ("optimize", { d with P.optimize = false });
      ( "expander_profile",
        { d with P.expander_profile = Some [ ("helper", 3) ] } );
      ("max_region", { d with P.max_region = Some 700 });
      ("drop_middle_ckpt", { d with P.sabotage = Some (P.Drop_ckpt 1) });
      ("drop_saved_reg", { d with P.sabotage = Some (P.Drop_saved_reg 1) });
      ( "placement(greedy)",
        { d with P.placement = T.Checkpoint_inserter.Greedy } );
      ( "placement(inter)",
        { d with P.placement = T.Checkpoint_inserter.Interprocedural } );
      ("block_profile", { d with P.block_profile = Some [ ("main$b0", 9) ] });
      ("elide", { d with P.elide = true });
      ("motion", { d with P.motion = true });
    ]
  in
  List.iter
    (fun (name, opts) ->
      if key ~opts P.Wario src = base then
        Alcotest.failf "flipping %s did not change the image key" name)
    flips;
  (* environment and source participate too *)
  Alcotest.(check bool) "env flips key" true (key P.Ratchet src <> base);
  Alcotest.(check bool) "source flips key" true (key P.Wario src2 <> base)

(* Incremental recompilation falls out of the key chaining. *)
let test_key_chaining_structure () =
  let d = P.default_options in
  let assoc name keys = List.assoc name keys in
  let base = P.stage_keys ~opts:d P.Wario src in
  (* elide/motion: only the image key moves *)
  let elided = P.stage_keys ~opts:{ d with P.elide = true } P.Wario src in
  List.iter
    (fun stage ->
      Alcotest.(check string)
        (stage ^ " key survives an elide toggle")
        (assoc stage base) (assoc stage elided))
    [ "front"; "wir"; "place"; "mach" ];
  Alcotest.(check bool)
    "image key moves on elide" true
    (assoc "image" base <> assoc "image" elided);
  (* placement (non-inter): wir and front keys survive, place moves *)
  let greedy =
    P.stage_keys
      ~opts:{ d with P.placement = T.Checkpoint_inserter.Greedy }
      P.Wario src
  in
  Alcotest.(check string)
    "front survives placement flip" (assoc "front" base) (assoc "front" greedy);
  Alcotest.(check string)
    "wir survives placement flip" (assoc "wir" base) (assoc "wir" greedy);
  Alcotest.(check bool)
    "place moves on placement flip" true
    (assoc "place" base <> assoc "place" greedy);
  (* interprocedural: trial expansion compiles whole programs before the
     middle end, so the wir key must conservatively move *)
  let inter =
    P.stage_keys
      ~opts:{ d with P.placement = T.Checkpoint_inserter.Interprocedural }
      P.Wario src
  in
  Alcotest.(check string)
    "front survives inter" (assoc "front" base) (assoc "front" inter);
  Alcotest.(check bool)
    "wir moves under inter" true (assoc "wir" base <> assoc "wir" inter);
  (* ...but under Plain there are no trials and no instrumentation *)
  let plain_base = P.stage_keys ~opts:d P.Plain src in
  let plain_inter =
    P.stage_keys
      ~opts:{ d with P.placement = T.Checkpoint_inserter.Interprocedural }
      P.Plain src
  in
  Alcotest.(check string)
    "plain wir ignores inter trials" (List.assoc "wir" plain_base)
    (List.assoc "wir" plain_inter)

(* qcheck: distinct option records give distinct image keys (profiles are
   generated pre-sorted — the canonical encoding sorts them, so two
   permutations of one profile alias BY DESIGN). *)
let gen_options : P.options QCheck.Gen.t =
  let open QCheck.Gen in
  let* unroll = oneofl [ 1; 2; 4; 8 ] in
  let* esl = oneofl [ 0; 1; 5 ] in
  let* optimize = bool in
  let* max_region = oneofl [ None; Some 500; Some 700 ] in
  let* drop = oneofl [ None; Some 1 ] in
  let* placement =
    oneofl
      [
        T.Checkpoint_inserter.Greedy;
        T.Checkpoint_inserter.Cost_guided;
        T.Checkpoint_inserter.Interprocedural;
      ]
  in
  let* block_profile =
    oneofl [ None; Some [ ("a$b0", 1) ]; Some [ ("a$b0", 1); ("a$b1", 2) ] ]
  in
  let* expander_profile = oneofl [ None; Some [ ("helper", 2) ] ] in
  let* elide = bool in
  let* motion = bool in
  return
    {
      P.unroll_factor = unroll;
      expander_size_limit = esl;
      optimize;
      expander_profile;
      max_region;
      sabotage = Option.map (fun n -> P.Drop_ckpt n) drop;
      placement;
      block_profile;
      elide;
      motion;
    }

let qcheck_distinct_options_distinct_keys =
  QCheck.Test.make ~count:200
    ~name:"distinct options => distinct image keys (and equal => equal)"
    QCheck.(
      make ~print:(fun _ -> "<options pair>") Gen.(pair gen_options gen_options))
    (fun (o1, o2) ->
      let k1 = key ~opts:o1 P.Wario src and k2 = key ~opts:o2 P.Wario src in
      if o1 = o2 then k1 = k2 else k1 <> k2)

(* ------------------------------------------------------------------ *)
(* Cached-compile identity                                              *)
(* ------------------------------------------------------------------ *)

let test_warm_equals_fresh_every_environment () =
  with_cache (fun cache ->
      List.iter
        (fun env ->
          let cold, _ = P.compile_with_report ~cache env src2 in
          let warm, report = P.compile_with_report ~cache env src2 in
          let fresh, uncached = P.compile_with_report ~cache:C.disabled env src2 in
          let lowered = P.compile_ir env (Wario_minic.Minic.compile src2) in
          let name = P.environment_name env in
          Alcotest.(check string)
            (name ^ ": warm == cold") (image_bytes cold) (image_bytes warm);
          Alcotest.(check string)
            (name ^ ": warm == fresh") (image_bytes fresh) (image_bytes warm);
          Alcotest.(check string)
            (name ^ ": IR entry == fresh") (image_bytes fresh)
            (image_bytes lowered);
          Alcotest.(check (list (pair string bool)))
            (name ^ ": uncached compile reports no stage") [] uncached;
          Alcotest.(check bool)
            (name ^ ": warm run hit the cache")
            true
            (List.for_all snd report))
        P.all_environments)

(* A warm compile is one store read: the "image" entry is the whole
   compiled record, so nothing else is probed, and what comes back
   equals a fresh uncached compile in every field the record keeps.
   Over a slice of the e2e serve grid, [lower] gives the same record
   plus the IR the "place" entry holds and the machine program the
   image was linked from, which the record no longer keeps. *)
let test_warm_compile_reads_one_entry () =
  let source name =
    (List.find
       (fun (b : Wario_workloads.Programs.benchmark) -> b.name = name)
       Wario_workloads.Programs.all)
      .source
  in
  with_cache (fun cache ->
      List.iter
        (fun (program, env, placement, elide) ->
          let src = source program in
          let opts = { P.default_options with P.placement; elide } in
          let name =
            Printf.sprintf "%s/%s/%s/elide=%b" program (P.environment_name env)
              (P.placement_name placement) elide
          in
          let _ = P.compile_with_report ~opts ~cache env src in
          let before = C.counters cache in
          let warm, report = P.compile_with_report ~opts ~cache env src in
          let after = C.counters cache in
          let fresh = P.compile ~opts ~cache:C.disabled env src in
          let check what eq = Alcotest.(check bool) (name ^ ": " ^ what) true eq in
          Alcotest.(check (list (pair string bool)))
            (name ^ ": only the image entry is read")
            [ ("image", true) ]
            report;
          Alcotest.(check int)
            (name ^ ": one hit") (before.C.hits + 1) after.C.hits;
          Alcotest.(check int)
            (name ^ ": no miss") before.C.misses after.C.misses;
          Alcotest.(check string)
            (name ^ ": image bytes") (image_bytes fresh) (image_bytes warm);
          check "middle" (fresh.P.middle = warm.P.middle);
          check "backend" (fresh.P.backend = warm.P.backend);
          check "elision" (fresh.P.elision = warm.P.elision);
          check "motion" (fresh.P.motion = warm.P.motion);
          check "model cost" (fresh.P.model_cost = warm.P.model_cost);
          Alcotest.(check int)
            (name ^ ": text bytes") fresh.P.text_bytes warm.P.text_bytes;
          let job =
            {
              Wario.Serve.j_id = name;
              j_program = program;
              j_source = src;
              j_env = env;
              j_opts = opts;
            }
          in
          let line c =
            Wario.Serve.result_line ~stats_only:true ~job
              ~key:(Wario.Serve.key_of_job job) ~dedup_of:None ~stages:[]
              ~wall_ms:0. c
          in
          Alcotest.(check string) (name ^ ": result line") (line fresh) (line warm);
          let ir, mprog, lowered = P.lower ~opts env src in
          check "lower's record" (lowered = fresh);
          let (place_ir : Wario_ir.Ir.program), (_ : P.middle_stats) =
            Option.get
              (C.get cache (List.assoc "place" (P.stage_keys ~opts env src)))
          in
          Alcotest.(check string)
            (name ^ ": printed IR")
            (Wario_ir.Ir_printer.program_to_string place_ir)
            (Wario_ir.Ir_printer.program_to_string ir);
          Alcotest.(check string)
            (name ^ ": machine functions link to the image")
            (image_bytes fresh)
            (Marshal.to_string (Wario_emulator.Image.link mprog) []))
        (List.concat_map
           (fun program ->
             List.concat_map
               (fun env ->
                 List.concat_map
                   (fun placement ->
                     List.map
                       (fun elide -> (program, env, placement, elide))
                       [ false; true ])
                   T.Checkpoint_inserter.[ Greedy; Cost_guided ])
               P.[ Ratchet; R_pdg; Wario; Wario_expander ])
           [ "crc"; "sha" ]))

(* The image payload changed type when the compiled record dropped its
   IR and machine program.  An entry of the previous layout (the record
   with both) under the previous store magic, at a live image key, must
   read as a miss, never unmarshal as the new record, and be replaced. *)
let test_old_store_magic_is_a_miss () =
  let dir = tmp_dir "wario-test-cache" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let cache = C.create dir in
      let cold, _ = P.compile_with_report ~cache P.Wario src2 in
      (* the previous layout's image payload, under the previous magic: a
         tuple marshals exactly as a record with the same fields *)
      let key = P.image_key P.Wario src2 in
      let ir, mprog, _ = P.lower P.Wario src2 in
      let payload =
        Marshal.to_string
          ( cold.P.env,
            ir,
            mprog,
            cold.P.image,
            cold.P.middle,
            cold.P.backend,
            cold.P.elision,
            cold.P.motion,
            cold.P.model_cost,
            cold.P.text_bytes )
          []
      in
      let path = Filename.concat (Filename.concat dir "objects") key in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.concat ""
               [ "wario-store-3\n"; key; "\n";
                 Digest.to_hex (Digest.string payload); "\n"; payload ]));
      let again, report = P.compile_with_report ~cache P.Wario src2 in
      Alcotest.(check (list (pair string bool)))
        "old image entry misses; place and mach still hit"
        [ ("place", true); ("mach", true); ("image", false) ]
        report;
      Alcotest.(check string)
        "rebuilt identically" (image_bytes cold) (image_bytes again);
      Alcotest.(check bool) "same record" true (cold = again);
      let _, report = P.compile_with_report ~cache P.Wario src2 in
      Alcotest.(check (list (pair string bool)))
        "the rebuilt entry replaced it" [ ("image", true) ] report;
      (* the last magic, wario-store-4: today's record under that layout's
         MD5 check line *)
      let payload = Marshal.to_string cold [] in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.concat ""
               [ "wario-store-4\n"; key; "\n";
                 Digest.to_hex (Digest.string payload); "\n"; payload ]));
      let again, report = P.compile_with_report ~cache P.Wario src2 in
      Alcotest.(check (list (pair string bool)))
        "wario-store-4 image entry misses"
        [ ("place", true); ("mach", true); ("image", false) ]
        report;
      Alcotest.(check bool) "rebuilt the same record" true (cold = again))

(* A traced compile carries the store's counters on its pipeline.compile
   span: the cold one what it wrote, the warm hit what it read, which is
   the image entry's file. *)
let test_store_counters_on_compile_span () =
  let dir = tmp_dir "wario-test-cache" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let cache = C.create dir in
      let counters () =
        let spans = Wario_obs.Span.create () in
        let _ = P.compile_with_report ~spans ~cache P.Wario src2 in
        match Wario_obs.Span.roots spans with
        | [ root ] -> root.Wario_obs.Span.sp_counters
        | _ -> Alcotest.fail "one pipeline.compile root"
      in
      let cold = counters () and warm = counters () in
      let has ctrs name =
        Alcotest.(check bool) (name ^ " present") true (List.mem_assoc name ctrs)
      in
      List.iter (has cold)
        [ "marshal_us"; "store_write_us"; "store_bytes_written" ];
      List.iter (has warm)
        [ "store_read_us"; "store_digest_us"; "unmarshal_us"; "store_bytes_read" ];
      Alcotest.(check bool) "a hit writes nothing" false
        (List.mem_assoc "store_bytes_written" warm);
      let entry =
        Filename.concat (Filename.concat dir "objects") (P.image_key P.Wario src2)
      in
      Alcotest.(check int)
        "bytes read = the image entry" (Unix.stat entry).Unix.st_size
        (List.assoc "store_bytes_read" warm);
      let _, report = P.compile_with_report ~cache P.Wario src2 in
      Alcotest.(check (list (pair string bool)))
        "untraced hit" [ ("image", true) ] report)

let test_incremental_recompilation_paths () =
  with_cache (fun cache ->
      let d = P.default_options in
      let _ = P.compile_with_report ~opts:d ~cache P.Wario src2 in
      (* elide toggle: image stage misses, everything reached is a hit *)
      let _, r_elide =
        P.compile_with_report
          ~opts:{ d with P.elide = true }
          ~cache P.Wario src2
      in
      Alcotest.(check (list (pair string bool)))
        "elide toggle re-links only"
        [ ("place", true); ("mach", true); ("image", false) ]
        r_elide;
      (* placement flip: place misses but the cached WIR replays *)
      let _, r_place =
        P.compile_with_report
          ~opts:{ d with P.placement = T.Checkpoint_inserter.Greedy }
          ~cache P.Wario src2
      in
      Alcotest.(check (list (pair string bool)))
        "placement flip reuses the transformed WIR"
        [ ("place", false); ("wir", true); ("mach", false); ("image", false) ]
        r_place)

let test_corrupt_cache_degrades_to_recompile () =
  let dir = tmp_dir "wario-test-cache" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let cache = C.create dir in
      let cold, _ = P.compile_with_report ~cache P.Wario src in
      (* smash every object; the next compile must still succeed *)
      let objects = Filename.concat dir "objects" in
      Array.iter
        (fun n ->
          let oc = open_out_bin (Filename.concat objects n) in
          output_string oc "not a cache entry";
          close_out oc)
        (Sys.readdir objects);
      let again, report = P.compile_with_report ~cache P.Wario src in
      Alcotest.(check string)
        "recompiled identically" (image_bytes cold) (image_bytes again);
      Alcotest.(check bool)
        "every stage missed" true
        (List.for_all (fun (_, hit) -> not hit) report))

let test_ambient_cache_from_env () =
  let dir = tmp_dir "wario-ambient" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "WARIO_CACHE_DIR" "";
      remove_tree dir)
    (fun () ->
      Unix.putenv "WARIO_CACHE_DIR" "";
      Alcotest.(check bool)
        "empty WARIO_CACHE_DIR is disabled" false
        (C.enabled (C.from_env ()));
      Unix.putenv "WARIO_CACHE_DIR" dir;
      let c = C.from_env () in
      Alcotest.(check bool) "set WARIO_CACHE_DIR enables" true (C.enabled c);
      (* Pipeline.compile picks the ambient cache up by default *)
      let a = P.compile P.Wario src in
      let b = P.compile P.Wario src in
      Alcotest.(check string)
        "ambient warm == ambient cold" (image_bytes a) (image_bytes b);
      let ctr = C.counters (C.from_env ()) in
      Alcotest.(check bool) "ambient cache saw hits" true (ctr.C.hits > 0))

(* Satellite: Pgo.compile_candidates over one shared cache — all four
   variants parse/optimize/analyze once, and every candidate (selected
   one included) stays byte-identical to a cold-cache compile. *)
let test_pgo_candidates_share_cache_and_stay_identical () =
  with_cache (fun cache ->
      let cached = Wario.Pgo.compile_candidates ~cache P.Wario src2 in
      let fresh = Wario.Pgo.compile_candidates ~cache:C.disabled P.Wario src2 in
      List.iter
        (fun v ->
          Alcotest.(check string)
            (Wario.Pgo.variant_name v ^ " candidate identical")
            (image_bytes (Wario.Pgo.compiled_of fresh v))
            (image_bytes (Wario.Pgo.compiled_of cached v)))
        [ Wario.Pgo.Greedy; Wario.Pgo.Static; Wario.Pgo.Profile;
          Wario.Pgo.Inter ];
      Alcotest.(check string)
        "same measured selection"
        (Wario.Pgo.variant_name fresh.Wario.Pgo.pilot.Wario.Pgo.selected)
        (Wario.Pgo.variant_name cached.Wario.Pgo.pilot.Wario.Pgo.selected);
      let ctr = C.counters cache in
      (* the static/greedy/profile candidates share front+wir: strictly
         fewer misses than 4 candidates x 5 stages all missing *)
      Alcotest.(check bool)
        "variants shared cached prefixes" true
        (ctr.C.hits > 0))

(* ------------------------------------------------------------------ *)
(* Serve protocol                                                       *)
(* ------------------------------------------------------------------ *)

let lookup = function "tiny" -> Some src | _ -> None

let test_serve_job_parsing () =
  let ok line =
    match Wario.Serve.job_of_line ~lookup ~index:0 line with
    | Ok j -> j
    | Error e -> Alcotest.failf "job %S did not parse: %s" line e
  in
  let err line =
    match Wario.Serve.job_of_line ~lookup ~index:0 line with
    | Ok _ -> Alcotest.failf "job %S should not parse" line
    | Error e -> e
  in
  let j = ok {|{"id":"a","benchmark":"tiny","env":"ratchet","elide":true}|} in
  Alcotest.(check string) "id" "a" j.Wario.Serve.j_id;
  Alcotest.(check string) "program" "tiny" j.Wario.Serve.j_program;
  Alcotest.(check bool) "elide" true j.Wario.Serve.j_opts.P.elide;
  Alcotest.(check string)
    "env" "ratchet"
    (P.environment_name j.Wario.Serve.j_env);
  let d = ok {|{"source":"int main() { return 0; }"}|} in
  Alcotest.(check string) "default id" "job-0" d.Wario.Serve.j_id;
  Alcotest.(check string) "inline program" "<inline>" d.Wario.Serve.j_program;
  ignore (err {|{"benchmark":"nope"}|});
  ignore (err {|{"benchmark":"tiny","typo_field":1}|});
  ignore (err {|{"benchmark":"tiny","source":"int main(){return 0;}"}|});
  ignore (err {|{}|});
  ignore (err {|not json|});
  Alcotest.(check string) "unroll range" "unroll must be >= 1"
    (err {|{"benchmark":"tiny","unroll":0}|});
  Alcotest.(check string) "max_region range" "max_region must be >= 4"
    (err {|{"benchmark":"tiny","max_region":2}|})

(* A line that parses as JSON keeps its id on its error line, whatever
   rejected it; a line that is not JSON, or has no id, is [job-<n>]. *)
let test_serve_rejected_line_keeps_id () =
  let rejected =
    [
      ("bench", {|{"id":"bench","benchmark":"nope"}|});
      ("env", {|{"id":"env","benchmark":"tiny","env":"nope"}|});
      ("place", {|{"id":"place","benchmark":"tiny","placement":"nope"}|});
      ("unroll", {|{"id":"unroll","benchmark":"tiny","unroll":0}|});
      ("region", {|{"id":"region","benchmark":"tiny","max_region":2}|});
      ("bool", {|{"id":"bool","benchmark":"tiny","elide":1}|});
      ("field", {|{"id":"field","benchmark":"tiny","typo":1}|});
      ("job-7", {|not json|});
      ("job-8", {|{"benchmark":"nope"}|});
    ]
  in
  let lines = List.map snd rejected in
  let parsed =
    List.mapi (fun i l -> Wario.Serve.job_of_line ~lookup ~index:i l) lines
  in
  let plan = Wario.Serve.plan [] in
  let out, errors =
    Wario.Serve.result_lines ~stats_only:true ~inputs:lines parsed plan
      (fun _ -> Alcotest.fail "nothing compiles")
  in
  Alcotest.(check int) "every line is an error" (List.length rejected) errors;
  List.iter2
    (fun (id, input) line ->
      Alcotest.(check bool)
        (Printf.sprintf "%s keeps id %S: %s" input id line)
        true
        (String.starts_with
           ~prefix:(Printf.sprintf {|{"id":"%s","ok":false,|} id)
           line))
    rejected out

(* A job whose compile fails is its own error line: the other lines of
   the batch are byte-identical to those of the batch without it. *)
let test_serve_failed_compile_is_one_line () =
  let batch lines =
    let parsed =
      List.mapi (fun i l -> Wario.Serve.job_of_line ~lookup ~index:i l) lines
    in
    let oks = Array.of_list (List.filter_map Result.to_option parsed) in
    let plan = Wario.Serve.plan (Array.to_list oks) in
    Wario.Serve.result_lines ~stats_only:true ~inputs:lines parsed plan
      (Wario.Serve.compile ~cache:C.disabled plan oks)
  in
  let good1 = {|{"id":"a","benchmark":"tiny"}|}
  and bad = {|{"id":"bad","source":"int main() { return 1 +; }"}|}
  and good2 = {|{"id":"c","benchmark":"tiny","env":"ratchet"}|} in
  let lines, errors = batch [ good1; bad; good2 ] in
  let clean, clean_errors = batch [ good1; good2 ] in
  Alcotest.(check int) "one line per job" 3 (List.length lines);
  Alcotest.(check (pair int int)) "error lines" (1, 0) (errors, clean_errors);
  Alcotest.(check bool) "the bad job's line is its error" true
    (String.starts_with ~prefix:{|{"id":"bad","ok":false,|}
       (List.nth lines 1));
  Alcotest.(check (list string)) "good lines unchanged" clean
    [ List.nth lines 0; List.nth lines 2 ]

let test_serve_plan_dedupes_by_key () =
  let j line i = Result.get_ok (Wario.Serve.job_of_line ~lookup ~index:i line) in
  let jobs =
    [
      j {|{"id":"a","benchmark":"tiny"}|} 0;
      j {|{"id":"b","benchmark":"tiny"}|} 1;
      j {|{"id":"c","benchmark":"tiny","elide":true}|} 2;
    ]
  in
  let plan = Wario.Serve.plan jobs in
  Alcotest.(check (list int)) "two distinct" [ 0; 2 ] plan.Wario.Serve.p_distinct;
  Alcotest.(check (array int))
    "aliases point at first occurrence" [| 0; 0; 2 |]
    plan.Wario.Serve.p_canonical;
  Alcotest.(check string)
    "key matches pipeline" (Wario.Serve.key_of_job (List.hd jobs))
    plan.Wario.Serve.p_keys.(0)

(* ------------------------------------------------------------------ *)
(* Corpus fingerprint migration                                         *)
(* ------------------------------------------------------------------ *)

let test_corpus_hash_formats () =
  let module VC = Wario_verify.Corpus in
  let legacy =
    "(entry (expect fail) (program-hash b0c53ba8f5fb6ded) (repro (workload \
     byte_ops) (env wario) (unroll 8) (drop-ckpt 1) (cuts) (seed 1)))"
  in
  (match VC.of_string legacy with
  | Error e -> Alcotest.failf "legacy entry did not parse: %s" e
  | Ok e ->
      Alcotest.(check (option string))
        "legacy 16-hex digest preserved" (Some "b0c53ba8f5fb6ded")
        e.VC.e_program_hash;
      (* round-trips verbatim, still in the legacy format *)
      let reparsed = Result.get_ok (VC.of_string (VC.to_string e)) in
      Alcotest.(check (option string))
        "round-trip" (Some "b0c53ba8f5fb6ded") reparsed.VC.e_program_hash);
  (* a fresh entry records the 32-hex canonical stage key *)
  let repro =
    Result.get_ok
      (Wario_verify.Repro.of_string
         "(repro (workload byte_ops) (env wario) (unroll 8) (cuts) (seed 1))")
  in
  let e = VC.make ~expect:VC.Must_pass repro in
  (match e.VC.e_program_hash with
  | None -> Alcotest.fail "fresh entry has no program hash"
  | Some h ->
      Alcotest.(check int) "32-hex stage key" 32 (String.length h);
      Alcotest.(check (option string))
        "matches the pipeline image key directly" (Some h)
        (VC.program_hash repro));
  ignore
    (Alcotest.(check bool)
       "garbage hash rejected" true
       (Result.is_error (VC.of_string "(entry (expect pass) (program-hash zz) (repro (workload byte_ops) (env wario) (unroll 8) (cuts) (seed 1)))")))

let to_alcotest t =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string s with _ -> 3)
    | None -> 3
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

let suite =
  [
    Alcotest.test_case "store: roundtrip + counters" `Quick
      test_store_roundtrip;
    Alcotest.test_case "store: bad keys ignored" `Quick
      test_store_rejects_bad_keys;
    Alcotest.test_case "store: corrupt entry is a miss" `Quick
      test_store_corrupt_entry_is_miss;
    Alcotest.test_case "cache: every bit flip and truncation is a miss" `Quick
      test_cache_entry_bit_flips_and_truncations;
    Alcotest.test_case "cache: a reused read buffer returns each entry" `Quick
      test_cache_reads_reuse_the_buffer;
    Alcotest.test_case "cache: gets from two domains" `Quick
      test_cache_gets_from_two_domains;
    Alcotest.test_case "cache: a marshal size mismatch is a miss" `Quick
      test_cache_marshal_size_mismatch_is_miss;
    Alcotest.test_case "store: LRU eviction under a byte budget" `Quick
      test_store_lru_eviction;
    Alcotest.test_case "keys: shape and determinism" `Quick test_key_shape;
    Alcotest.test_case "keys: pinned derivation" `Quick test_key_pinned;
    Alcotest.test_case "keys: every option field flips the image key" `Quick
      test_every_option_field_flips_the_key;
    Alcotest.test_case "keys: chaining gives incremental recompilation" `Quick
      test_key_chaining_structure;
    to_alcotest qcheck_distinct_options_distinct_keys;
    Alcotest.test_case "compile: warm == cold == fresh, every environment"
      `Quick test_warm_equals_fresh_every_environment;
    Alcotest.test_case "compile: a warm compile reads one entry" `Quick
      test_warm_compile_reads_one_entry;
    Alcotest.test_case "compile: an old-magic image entry is a miss" `Quick
      test_old_store_magic_is_a_miss;
    Alcotest.test_case "compile: store counters on the compile span" `Quick
      test_store_counters_on_compile_span;
    Alcotest.test_case "compile: elide re-links, placement reuses WIR" `Quick
      test_incremental_recompilation_paths;
    Alcotest.test_case "compile: corrupt cache degrades to recompile" `Quick
      test_corrupt_cache_degrades_to_recompile;
    Alcotest.test_case "compile: ambient WARIO_CACHE_DIR" `Quick
      test_ambient_cache_from_env;
    Alcotest.test_case "pgo: candidates share the cache, stay identical"
      `Quick test_pgo_candidates_share_cache_and_stay_identical;
    Alcotest.test_case "serve: job parsing" `Quick test_serve_job_parsing;
    Alcotest.test_case "serve: plan dedupes by key" `Quick
      test_serve_plan_dedupes_by_key;
    Alcotest.test_case "serve: a failed compile is that job's error line"
      `Quick test_serve_failed_compile_is_one_line;
    Alcotest.test_case "serve: a rejected line keeps its id" `Quick
      test_serve_rejected_line_keeps_id;
    Alcotest.test_case "corpus: legacy and stage-key fingerprints" `Quick
      test_corpus_hash_formats;
  ]

(* Observability (lib/obs): trace sinks and event-stream invariants,
   per-function attribution, Chrome trace-event JSON well-formedness,
   span trees and their projection onto named metrics.  The JSON
   assertions use a small local parser rather than string matching. *)

module P = Wario.Pipeline
module E = Wario_emulator
module W = Wario_workloads.Programs
module T = Wario_obs.Trace
module Pr = Wario_obs.Profile
module S = Wario_obs.Span
module X = Wario_exec.Exec

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser (enough for Chrome traces and metric lines)    *)
(* ------------------------------------------------------------------ *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          incr pos;
          Buffer.contents b
      | '\\' ->
          incr pos;
          if !pos >= n then fail "truncated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              Buffer.add_char b (Char.chr (code land 0xff));
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '%c'" c));
          incr pos;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> lit "true" (J_bool true)
    | Some 'f' -> lit "false" (J_bool false)
    | Some 'n' -> lit "null" J_null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value"
  and lit w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then begin
      pos := !pos + l;
      v
    end
    else fail w
  and number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> J_num f
    | None -> fail "bad number"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      J_arr []
    end
    else
      let rec go acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go (v :: acc)
        | Some ']' ->
            incr pos;
            J_arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      go []
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      J_obj []
    end
    else
      let member () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        (k, value ())
      in
      let rec go acc =
        let kv = member () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go (kv :: acc)
        | Some '}' ->
            incr pos;
            J_obj (List.rev (kv :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      go []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field k = function J_obj kvs -> List.assoc_opt k kvs | _ -> None

let str_field k o =
  match field k o with Some (J_str s) -> Some s | _ -> None

let num_field k o =
  match field k o with Some (J_num f) -> Some f | _ -> None

(* ------------------------------------------------------------------ *)
(* Shared traced runs (one compile, reused across cases)                *)
(* ------------------------------------------------------------------ *)

let sha_image =
  lazy ((P.compile P.Wario (W.find "sha").W.source).P.image)

let traced ?supply () =
  let sink = T.ring () in
  let r = E.Emulator.run ?supply ~verify:false ~tracer:sink (Lazy.force sha_image) in
  (r, T.events sink)

let continuous = lazy (traced ())
let intermittent = lazy (traced ~supply:(E.Power.Periodic 50_000) ())

let counted_ckpt_events evs =
  List.length
    (List.filter
       (fun (t : T.timed) ->
         match t.T.ev with
         | T.Checkpoint { cause; _ } -> T.counted_cause cause
         | _ -> false)
       evs)

let waste_sum (w : E.Emulator.waste) =
  w.E.Emulator.w_useful + w.E.Emulator.w_boot + w.E.Emulator.w_restore
  + w.E.Emulator.w_reexec

let attributed_cycles (p : Pr.t) =
  List.fold_left (fun a (r : Pr.fn_row) -> a + r.Pr.fn_cycles) 0 p.Pr.rows

(* ------------------------------------------------------------------ *)
(* Trace invariants                                                     *)
(* ------------------------------------------------------------------ *)

let test_trace_continuous () =
  let r, evs = Lazy.force continuous in
  Alcotest.(check bool) "non-empty trace" true (evs <> []);
  let rec mono = function
    | (a : T.timed) :: (b :: _ as rest) -> a.T.at <= b.T.at && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (mono evs);
  Alcotest.(check int) "counted checkpoint events = stats"
    r.E.Emulator.checkpoints_total (counted_ckpt_events evs);
  (match List.rev evs with
  | { T.ev = T.Halt _; _ } :: _ -> ()
  | _ -> Alcotest.fail "last event is not Halt");
  Alcotest.(check int) "waste decomposition sums to cycles"
    r.E.Emulator.cycles (waste_sum r.E.Emulator.waste);
  let p = Pr.of_events evs in
  Alcotest.(check int) "attribution sums to cycles" r.E.Emulator.cycles
    (attributed_cycles p);
  Alcotest.(check int) "profile checkpoints = stats"
    r.E.Emulator.checkpoints_total p.Pr.checkpoints;
  Alcotest.(check int) "one boot" 1 p.Pr.boots;
  Alcotest.(check int) "no power failures" 0 p.Pr.power_failures

let test_trace_intermittent () =
  let rc, _ = Lazy.force continuous in
  let r, evs = Lazy.force intermittent in
  Alcotest.(check bool) "the supply actually failed" true
    (r.E.Emulator.power_failures > 0);
  Alcotest.(check int) "waste decomposition sums to cycles"
    r.E.Emulator.cycles (waste_sum r.E.Emulator.waste);
  Alcotest.(check bool) "re-executed cycles observed" true
    (r.E.Emulator.waste.E.Emulator.w_reexec > 0);
  (* re-execution and boots inflate total cycles but never useful ones *)
  Alcotest.(check int) "useful cycles match the continuous run"
    rc.E.Emulator.waste.E.Emulator.w_useful
    r.E.Emulator.waste.E.Emulator.w_useful;
  let p = Pr.of_events evs in
  Alcotest.(check int) "profile power failures = stats"
    r.E.Emulator.power_failures p.Pr.power_failures;
  Alcotest.(check int) "one boot per power cycle"
    (r.E.Emulator.power_failures + 1)
    p.Pr.boots;
  Alcotest.(check int) "attribution sums to cycles" r.E.Emulator.cycles
    (attributed_cycles p)

let test_null_sink () =
  let r_null = E.Emulator.run ~verify:false (Lazy.force sha_image) in
  let r_rec, _ = Lazy.force continuous in
  Alcotest.(check int) "tracing does not change cycles"
    r_null.E.Emulator.cycles r_rec.E.Emulator.cycles;
  Alcotest.(check int) "tracing does not change checkpoints"
    r_null.E.Emulator.checkpoints_total r_rec.E.Emulator.checkpoints_total;
  Alcotest.(check bool) "null sink is disabled" false (T.enabled T.null);
  Alcotest.(check int) "null sink records nothing" 0 (T.length T.null);
  Alcotest.(check bool) "null sink has no events" true (T.events T.null = [])

let test_ring_capacity () =
  let s = T.ring ~capacity:4 () in
  for i = 1 to 10 do
    T.emit s i (T.Irq { pc = i; func = "f" })
  done;
  Alcotest.(check int) "length capped" 4 (T.length s);
  Alcotest.(check int) "dropped counts the rest" 6 (T.dropped s);
  Alcotest.(check (list int)) "newest events kept, oldest first"
    [ 7; 8; 9; 10 ]
    (List.map (fun (t : T.timed) -> t.T.at) (T.events s))

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                              *)
(* ------------------------------------------------------------------ *)

let test_chrome_json () =
  let r, evs = Lazy.force intermittent in
  let items =
    match parse_json (T.to_chrome_json evs) with
    | J_arr items -> items
    | _ -> Alcotest.fail "top level is not an array"
  in
  Alcotest.(check bool) "non-empty" true (items <> []);
  List.iter
    (fun it ->
      (match str_field "ph" it with
      | Some ("X" | "i" | "M") -> ()
      | Some ph -> Alcotest.fail ("unexpected phase " ^ ph)
      | None -> Alcotest.fail "event without ph");
      match str_field "ph" it with
      | Some "M" -> ()
      | _ -> (
          (match num_field "ts" it with
          | Some ts when ts >= 0. -> ()
          | _ -> Alcotest.fail "event without non-negative ts");
          match str_field "ph" it with
          | Some "X" -> (
              match num_field "dur" it with
              | Some d when d >= 0. -> ()
              | _ -> Alcotest.fail "X slice without non-negative dur")
          | _ -> ()))
    items;
  let counted_json =
    List.length
      (List.filter
         (fun it ->
           str_field "name" it = Some "checkpoint"
           &&
           match field "args" it with
           | Some args -> str_field "cause" args <> Some "console"
           | None -> false)
         items)
  in
  Alcotest.(check int) "checkpoint slices = stats"
    r.E.Emulator.checkpoints_total counted_json;
  let failures =
    List.length
      (List.filter (fun it -> str_field "name" it = Some "power-failure") items)
  in
  Alcotest.(check int) "power-failure instants = stats"
    r.E.Emulator.power_failures failures

let test_folded () =
  let _, evs = Lazy.force continuous in
  let p = Pr.of_events evs in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Pr.folded p))
  in
  Alcotest.(check bool) "one line per hot function" true (lines <> []);
  let parsed =
    List.map
      (fun l ->
        match String.rindex_opt l ' ' with
        | Some i ->
            ( String.sub l 0 i,
              int_of_string (String.sub l (i + 1) (String.length l - i - 1)) )
        | None -> Alcotest.fail ("bad folded line: " ^ l))
      lines
  in
  Alcotest.(check bool) "mentions the hot loop" true
    (List.mem_assoc "sha_transform" parsed);
  Alcotest.(check int) "folded cycles sum to attribution"
    (attributed_cycles p)
    (List.fold_left (fun a (_, c) -> a + c) 0 parsed)

(* ------------------------------------------------------------------ *)
(* Metrics: a projection of the span tree                               *)
(* ------------------------------------------------------------------ *)

let leaf ?(track = 0) ?(counters = []) ?(children = []) name t0 dur : S.span =
  {
    S.sp_name = name;
    sp_t0 = t0;
    sp_dur = dur;
    sp_track = track;
    sp_attrs = [];
    sp_counters = counters;
    sp_children = children;
  }

let test_metrics_projection () =
  (* two [pass] spans under different parents, a counter on each (one
     shared, one not), and a pool whose worker child sits on track 1 *)
  let tree =
    leaf "compile" 0. 10.
      ~children:
        [
          leaf "middle" 0. 4.
            ~children:[ leaf "pass" 0. 0.25 ~counters:[ ("n", 2) ] ];
          leaf "backend" 4. 3.
            ~children:
              [ leaf "pass" 4. 0.5 ~counters:[ ("m", 1); ("n", 5) ] ];
          leaf "exec.map" 7. 2.
            ~children:
              [ leaf ~track:1 "worker" 7. 1.5 ~counters:[ ("items", 3) ] ];
        ]
  in
  let line metric kind value =
    Printf.sprintf "{\"metric\":\"%s\",\"kind\":\"%s\",\"value\":%s}"
      metric kind value
  in
  Alcotest.(check (list string)) "depth-first, first-seen, summed by name"
    [
      line "compile.ms" "time_ms" "10.000";
      line "middle.ms" "time_ms" "4.000";
      line "pass.ms" "time_ms" "0.750";
      line "pass.n" "count" "7";
      line "backend.ms" "time_ms" "3.000";
      line "pass.m" "count" "1";
      line "exec.map.ms" "time_ms" "2.000";
      line "worker.ms" "time_ms" "1.500";
      line "worker.items" "count" "3";
      "";
    ]
    (String.split_on_char '\n' (S.to_metrics_jsonl [ tree ]));
  Alcotest.(check string) "no spans, no metrics" "" (S.to_metrics_jsonl [])

(* ------------------------------------------------------------------ *)
(* Span recorder                                                        *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let sp = S.create () in
  let v =
    S.with_span sp ~attrs:[ ("stage", S.Str "outer") ] "outer" (fun () ->
        S.add_counter ~by:3 sp "widgets";
        S.with_span sp "inner" (fun () ->
            S.set_attr sp "deep" (S.Bool true);
            S.add_counter sp "widgets");
        S.with_span sp "inner2" (fun () -> ());
        41 + 1)
  in
  Alcotest.(check int) "with_span returns the thunk value" 42 v;
  match S.roots sp with
  | [ root ] ->
      Alcotest.(check string) "root name" "outer" root.S.sp_name;
      Alcotest.(check int) "root track" 0 root.S.sp_track;
      Alcotest.(check bool) "root attr kept" true
        (List.assoc_opt "stage" root.S.sp_attrs = Some (S.Str "outer"));
      Alcotest.(check (list string)) "children in completion order"
        [ "inner"; "inner2" ]
        (List.map (fun c -> c.S.sp_name) root.S.sp_children);
      Alcotest.(check bool) "counter on the open span only" true
        (List.assoc_opt "widgets" root.S.sp_counters = Some 3);
      (match root.S.sp_children with
      | inner :: _ ->
          Alcotest.(check bool) "inner counter separate" true
            (List.assoc_opt "widgets" inner.S.sp_counters = Some 1);
          Alcotest.(check bool) "inner attr" true
            (List.assoc_opt "deep" inner.S.sp_attrs = Some (S.Bool true));
          Alcotest.(check bool) "child starts inside parent" true
            (inner.S.sp_t0 >= root.S.sp_t0)
      | [] -> Alcotest.fail "no children");
      (match S.check [ root ] with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("self-check failed: " ^ e))
  | roots ->
      Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots))

let test_span_exception_keeps_span () =
  let sp = S.create () in
  (match S.with_span sp "outer" (fun () ->
       S.with_span sp "boom" (fun () -> raise Exit))
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Exit -> ());
  match S.roots sp with
  | [ root ] ->
      Alcotest.(check (list string)) "raising span kept" [ "boom" ]
        (List.map (fun c -> c.S.sp_name) root.S.sp_children)
  | _ -> Alcotest.fail "expected one root"

let test_span_disabled () =
  Alcotest.(check bool) "disabled" false (S.is_enabled S.disabled);
  let v = S.with_span S.disabled "x" (fun () -> 7) in
  Alcotest.(check int) "disabled runs the thunk" 7 v;
  S.set_attr S.disabled "a" (S.Int 1);
  S.add_counter S.disabled "c";
  S.graft S.disabled [];
  Alcotest.(check bool) "disabled records nothing" true (S.roots S.disabled = [])

let test_span_check_rejects () =
  (* a same-track child wider than its parent must fail the self-check *)
  let child =
    {
      S.sp_name = "child";
      sp_t0 = 0.0;
      sp_dur = 10.0;
      sp_track = 0;
      sp_attrs = [];
      sp_counters = [];
      sp_children = [];
    }
  in
  let parent = { child with S.sp_name = "parent"; sp_dur = 4.0;
                 sp_children = [ child ] } in
  (match S.check [ parent ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversized child accepted");
  (* two same-track children whose sum exceeds the parent also fail *)
  let c1 = { child with S.sp_dur = 3.0 } in
  let c2 = { child with S.sp_t0 = 1.0; sp_dur = 3.0 } in
  let parent2 = { parent with S.sp_dur = 4.0; sp_children = [ c1; c2 ] } in
  (match S.check [ parent2 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "over-summing same-track children accepted");
  (* the same two children on distinct tracks (parallel workers) are fine *)
  let parent3 =
    { parent2 with S.sp_children = [ c1; { c2 with S.sp_track = 1 } ] }
  in
  match S.check [ parent3 ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("distinct-track overlap rejected: " ^ e)

type shape =
  | Shape of
      string * int * (string * S.value) list * (string * int) list * shape list

let rec span_shape (s : S.span) =
  Shape
    ( s.S.sp_name,
      s.S.sp_track,
      s.S.sp_attrs,
      s.S.sp_counters,
      List.map span_shape s.S.sp_children )

let test_span_jsonl_roundtrip () =
  let sp = S.create () in
  S.with_span sp ~attrs:[ ("k", S.Int 5); ("f", S.Float 1.25) ] "pool"
    (fun () ->
      S.with_span sp "stage" (fun () -> S.add_counter ~by:7 sp "items");
      (* graft a pre-built worker tree on its own track, like Exec.map *)
      let wsp = S.create ~track:3 () in
      S.with_span wsp ~attrs:[ ("worker", S.Int 3) ] "worker" (fun () -> ());
      S.graft sp (S.roots wsp));
  let roots = S.roots sp in
  (match S.check roots with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("pre-serialize check: " ^ e));
  let jsonl = S.to_jsonl roots in
  match S.of_jsonl jsonl with
  | Error e -> Alcotest.fail ("of_jsonl: " ^ e)
  | Ok rebuilt ->
      Alcotest.(check int) "same number of roots" (List.length roots)
        (List.length rebuilt);
      Alcotest.(check bool) "same shape, attrs and counters" true
        (List.map span_shape roots = List.map span_shape rebuilt);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "t0 survives the round trip" true
            (Float.abs (a.S.sp_t0 -. b.S.sp_t0) < 1e-6);
          Alcotest.(check bool) "dur survives the round trip" true
            (Float.abs (a.S.sp_dur -. b.S.sp_dur) < 1e-6))
        roots rebuilt;
      (match S.check rebuilt with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("post-rebuild check: " ^ e));
      (* a dangling parent id is an error, not a silent drop *)
      (match S.of_jsonl {|{"span":"x","id":9,"parent":8,"track":0,"t0_ms":0,"dur_ms":1,"attrs":{},"counters":{}}|}
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "dangling parent accepted")

let test_span_chrome_json () =
  let sp = S.create () in
  S.with_span sp "a" (fun () -> S.with_span sp "b" (fun () -> ()));
  let items =
    match parse_json (S.to_chrome_json ~process_name:"test" (S.roots sp)) with
    | J_obj kvs -> (
        match List.assoc_opt "traceEvents" kvs with
        | Some (J_arr items) -> items
        | _ -> Alcotest.fail "no traceEvents array")
    | _ -> Alcotest.fail "top level is not an object"
  in
  let slices =
    List.filter (fun it -> str_field "ph" it = Some "X") items
  in
  Alcotest.(check int) "one X slice per span" 2 (List.length slices);
  List.iter
    (fun it ->
      (match num_field "ts" it with
      | Some ts when ts >= 0. -> ()
      | _ -> Alcotest.fail "slice without non-negative ts");
      match num_field "dur" it with
      | Some d when d >= 0. -> ()
      | _ -> Alcotest.fail "slice without non-negative dur")
    slices;
  Alcotest.(check bool) "earliest slice normalized to ts 0" true
    (List.exists (fun it -> num_field "ts" it = Some 0.) slices);
  Alcotest.(check bool) "process_name metadata present" true
    (List.exists (fun it -> str_field "ph" it = Some "M") items)

let test_exec_span_workers () =
  let sp = S.create () in
  let rs = X.map ~jobs:2 ~spans:sp ~label:"test.pool" succ [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "map results" [ 2; 3; 4; 5 ] rs;
  match S.roots sp with
  | [ pool ] ->
      Alcotest.(check string) "pool span label" "test.pool" pool.S.sp_name;
      let workers =
        List.filter (fun c -> c.S.sp_name = "worker") pool.S.sp_children
      in
      Alcotest.(check bool) "at least one worker span" true (workers <> []);
      let tracks = List.map (fun w -> w.S.sp_track) workers in
      Alcotest.(check bool) "workers on distinct nonzero tracks" true
        (List.for_all (fun t -> t > 0) tracks
        && List.length (List.sort_uniq compare tracks) = List.length tracks);
      Alcotest.(check int) "worker items sum to the input size" 4
        (List.fold_left
           (fun a w ->
             a
             + match List.assoc_opt "items" w.S.sp_counters with
               | Some n -> n
               | None -> 0)
           0 workers);
      (match S.check [ pool ] with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("worker self-check: " ^ e))
  | _ -> Alcotest.fail "expected exactly one pool span"

(* ------------------------------------------------------------------ *)
(* The projection of a real compile agrees with the compiled record     *)
(* ------------------------------------------------------------------ *)

let test_pipeline_metrics () =
  let spans = S.create () in
  let opts =
    {
      P.default_options with
      P.elide = true;
      placement = Wario_transforms.Checkpoint_inserter.Cost_guided;
    }
  in
  let c =
    P.compile ~opts ~spans ~cache:Wario.Cache.disabled P.Wario
      (W.find "crc").W.source
  in
  let metrics =
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          let o = parse_json l in
          match (str_field "metric" o, num_field "value" o) with
          | Some m, Some v -> Some (m, v)
          | _ -> Alcotest.fail ("bad metrics line: " ^ l))
      (String.split_on_char '\n' (S.to_metrics_jsonl (S.roots spans)))
  in
  let count name expected =
    match List.assoc_opt name metrics with
    | Some v -> Alcotest.(check int) name expected (int_of_float v)
    | None -> Alcotest.fail ("missing metric " ^ name)
  in
  Alcotest.(check bool) "frontend timed" true
    (List.mem_assoc "frontend.ms" metrics);
  Alcotest.(check bool) "backend passes timed" true
    (List.mem_assoc "backend.regalloc.ms" metrics);
  count "middle.checkpoint_inserter.wars" c.P.middle.P.wars_found;
  count "link.text_bytes" c.P.text_bytes;
  let lwc = Option.get c.P.middle.P.lwc in
  count "middle.loop_write_clusterer.loops_unrolled"
    lwc.Wario_transforms.Loop_write_clusterer.loops_unrolled;
  count "backend.spill_ckpts" c.P.backend.Wario_backend.Backend.spill_ckpts;
  count "backend.elide.elided" (Option.get c.P.elision).Wario.Elide.elided

let suite =
  [
    Alcotest.test_case "trace: continuous invariants" `Quick
      test_trace_continuous;
    Alcotest.test_case "trace: intermittent invariants" `Quick
      test_trace_intermittent;
    Alcotest.test_case "trace: null sink" `Quick test_null_sink;
    Alcotest.test_case "trace: ring capacity" `Quick test_ring_capacity;
    Alcotest.test_case "trace: chrome JSON" `Quick test_chrome_json;
    Alcotest.test_case "profile: folded lines" `Quick test_folded;
    Alcotest.test_case "metrics: span projection" `Quick
      test_metrics_projection;
    Alcotest.test_case "metrics: pipeline fills registry" `Quick
      test_pipeline_metrics;
    Alcotest.test_case "span: nesting, attrs, counters" `Quick
      test_span_nesting;
    Alcotest.test_case "span: raising thunk keeps the span" `Quick
      test_span_exception_keeps_span;
    Alcotest.test_case "span: disabled recorder" `Quick test_span_disabled;
    Alcotest.test_case "span: self-check rejects bad trees" `Quick
      test_span_check_rejects;
    Alcotest.test_case "span: jsonl round trip" `Quick
      test_span_jsonl_roundtrip;
    Alcotest.test_case "span: chrome trace json" `Quick test_span_chrome_json;
    Alcotest.test_case "span: exec worker spans" `Quick test_exec_span_workers;
  ]

(* The persisted regression corpus.

   Every counterexample the campaign finds and shrinks is worth keeping:
   replaying it is the cheapest possible regression test for the whole
   pipeline+verifier stack.  A corpus is a directory of S-expression entry
   files, one entry per file:

     (entry (expect fail) (supply markov:10) (found-by campaign)
            (program-hash 1a2b3c4d5e6f7788)
            (repro (workload byte_ops) (env wario) (unroll 8)
                   (drop-ckpt 1) (cuts 413) (seed 1)))

   [expect] gives the entry its polarity:
   - [fail]: the verifier must STILL flag this replay — these are detector
     regression tests (e.g. sabotaged builds the verifier must keep
     catching);
   - [pass]: the replay must stay green — these are fixed bugs that must
     not come back.

   [program-hash] fingerprints what the reproducer was recorded against
   (environment, pipeline options, workload source); a mismatch at replay
   time marks the entry STALE in the report (the program changed — the
   entry may no longer mean what it did) without deciding the gate by
   itself.

   Files are content-addressed (FNV-1a of the canonical entry text), so
   re-adding an identical counterexample is a no-op: the campaign can dump
   every shrunk failure it sees and the corpus stays deduplicated. *)

module P = Wario.Pipeline
module U = Wario_support.Util

type expect = Must_fail | Must_pass

type entry = {
  e_repro : Repro.t;
  e_expect : expect;
  e_supply : string option;  (** Supply.name of the generator that found it *)
  e_found_by : string option;  (** e.g. ["campaign"], ["adversary"] *)
  e_program_hash : string option;
      (** fingerprint of (env, options, source) at recording time: 32 hex
          chars (the pipeline's canonical image-stage cache key), or a
          legacy ≤16-hex FNV digest on entries recorded before the cache
          existed *)
}

(* ------------------------------------------------------------------ *)
(* Program fingerprint                                                  *)
(* ------------------------------------------------------------------ *)

(* The fingerprint is the pipeline's own image-stage cache key: a
   canonical hash of the replay's inputs — source text, environment and
   EVERY option field, chained through the per-stage key derivation the
   compile cache uses (Pipeline.stage_keys).  One fingerprint scheme for
   the whole repo: whatever would make the cache recompile also marks a
   corpus entry stale.  Stable across runs (FNV over canonical bytes);
   the cache format version participates, so a payload-format bump
   retires old fingerprints to STALE instead of silently matching. *)
let program_hash (r : Repro.t) : string option =
  match Repro.source_of_workload r.Repro.workload with
  | Error _ -> None
  | Ok source ->
      let opts = Repro.options_of r in
      Some (Wario.Cache.Key.to_hex (P.image_key ~opts r.Repro.env source))

(* The pre-cache digest (entries recorded before the stage-key scheme):
   FNV over environment, source and the three option fields a reproducer
   carried back then.  Kept only to judge staleness of legacy entries. *)
let legacy_program_hash (r : Repro.t) : int64 option =
  match Repro.source_of_workload r.Repro.workload with
  | Error _ -> None
  | Ok source ->
      let opts = Repro.options_of r in
      let canon =
        String.concat "\x00"
          [
            P.environment_name r.Repro.env;
            source;
            string_of_int opts.P.unroll_factor;
            (match opts.P.max_region with
            | None -> "-"
            | Some m -> string_of_int m);
            (match opts.P.drop_middle_ckpt with
            | None -> "-"
            | Some n -> string_of_int n);
          ]
      in
      Some (U.fnv1a64 canon)

let is_legacy_hash (h : string) = String.length h <> 32

let make ?supply ?found_by ~(expect : expect) (repro : Repro.t) : entry =
  {
    e_repro = repro;
    e_expect = expect;
    e_supply = supply;
    e_found_by = found_by;
    e_program_hash = program_hash repro;
  }

(* ------------------------------------------------------------------ *)
(* Printing / parsing                                                   *)
(* ------------------------------------------------------------------ *)

let to_string (e : entry) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "(entry";
  Buffer.add_string buf
    (Printf.sprintf " (expect %s)"
       (match e.e_expect with Must_fail -> "fail" | Must_pass -> "pass"));
  (match e.e_supply with
  | None -> ()
  | Some s -> Buffer.add_string buf (Printf.sprintf " (supply %s)" s));
  (match e.e_found_by with
  | None -> ()
  | Some s -> Buffer.add_string buf (Printf.sprintf " (found-by %s)" s));
  (match e.e_program_hash with
  | None -> ()
  | Some h -> Buffer.add_string buf (Printf.sprintf " (program-hash %s)" h));
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Repro.to_string e.e_repro);
  Buffer.add_char buf ')';
  Buffer.contents buf

let of_string (s : string) : (entry, string) result =
  match Repro.parse s with
  | Error e -> Error e
  | Ok (Repro.List (Repro.Atom "entry" :: fields)) -> (
      let expect = ref None
      and supply = ref None
      and found_by = ref None
      and hash = ref None
      and repro = ref None
      and err = ref None in
      let fail msg = if !err = None then err := Some msg in
      List.iter
        (function
          | Repro.List [ Repro.Atom "expect"; Repro.Atom "fail" ] ->
              expect := Some Must_fail
          | Repro.List [ Repro.Atom "expect"; Repro.Atom "pass" ] ->
              expect := Some Must_pass
          | Repro.List [ Repro.Atom "expect"; x ] ->
              fail ("expect: want fail|pass, got " ^ Repro.sexp_to_string x)
          | Repro.List [ Repro.Atom "supply"; Repro.Atom s ] ->
              supply := Some s
          | Repro.List [ Repro.Atom "found-by"; Repro.Atom s ] ->
              found_by := Some s
          | Repro.List [ Repro.Atom "program-hash"; Repro.Atom h ] ->
              let hex_ok =
                h <> ""
                && String.for_all
                     (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
                     h
              in
              if not hex_ok then
                fail ("program-hash: not a hex digest: " ^ h)
              else begin
                if is_legacy_hash h then
                  Printf.eprintf
                    "corpus: deprecated legacy program-hash %s (re-save the \
                     entry to upgrade it to the 32-hex stage-key format)\n%!"
                    h;
                hash := Some h
              end
          | Repro.List (Repro.Atom "repro" :: _) as sx -> (
              match Repro.of_sexp sx with
              | Ok r -> repro := Some r
              | Error e -> fail ("repro: " ^ e))
          | Repro.List (Repro.Atom f :: _) -> fail ("unknown field " ^ f)
          | sx -> fail ("malformed field " ^ Repro.sexp_to_string sx))
        fields;
      match (!err, !expect, !repro) with
      | Some e, _, _ -> Error e
      | None, None, _ -> Error "missing field expect"
      | None, _, None -> Error "missing field repro"
      | None, Some expect, Some repro ->
          Ok
            {
              e_repro = repro;
              e_expect = expect;
              e_supply = !supply;
              e_found_by = !found_by;
              e_program_hash = !hash;
            })
  | Ok _ -> Error "expected (entry ...)"

(* ------------------------------------------------------------------ *)
(* Directory persistence                                                *)
(* ------------------------------------------------------------------ *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    name

let filename (e : entry) : string =
  (* content-addressed: identical entries collide on purpose *)
  Printf.sprintf "%s-%s-%08Lx.repro"
    (sanitize e.e_repro.Repro.workload)
    (sanitize (P.environment_name e.e_repro.Repro.env))
    (Int64.logand (U.fnv1a64 (to_string e)) 0xffffffffL)

let save ~(dir : string) (e : entry) : [ `Added of string | `Exists of string ]
    =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename e) in
  if Sys.file_exists path then `Exists path
  else begin
    let oc = open_out path in
    output_string oc (to_string e);
    output_char oc '\n';
    close_out oc;
    `Added path
  end

let load_dir (dir : string) :
    (string * entry) list * (string * string) list =
  match Sys.readdir dir with
  | exception Sys_error e -> ([], [ (dir, e) ])
  | names ->
      let names =
        List.filter
          (fun n -> Filename.check_suffix n ".repro")
          (Array.to_list names)
        |> List.sort compare
      in
      List.fold_left
        (fun (oks, errs) name ->
          let path = Filename.concat dir name in
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let body = really_input_string ic n in
          close_in ic;
          match of_string (String.trim body) with
          | Ok e -> (oks @ [ (path, e) ], errs)
          | Error msg -> (oks, errs @ [ (path, msg) ]))
        ([], []) names

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)
(* ------------------------------------------------------------------ *)

(* Recompile exactly as recorded and re-run the oracle on the recorded
   cut schedule. *)
let replay_repro ?engine (r : Repro.t) : (unit, string) result =
  match Repro.source_of_workload r.Repro.workload with
  | Error e -> Error e
  | Ok source -> (
      let c = P.compile ~opts:(Repro.options_of r) r.Repro.env source in
      let g = Oracle.golden ?engine c in
      match Oracle.golden_violations g with
      | _ :: _ as vs ->
          Error
            (Oracle.string_of_divergence (Oracle.War_violations vs)
            ^ " (in the golden run, before any injection)")
      | [] -> (
          match Oracle.check_schedule ?engine g c r.Repro.cuts with
          | Ok () -> Ok ()
          | Error d -> Error (Oracle.string_of_divergence d)))

type verdict = {
  v_ok : bool;  (** expectation upheld *)
  v_stale : bool;  (** program hash no longer matches the workload *)
  v_message : string;
}

let replay ?engine (e : entry) : verdict =
  let stale =
    match e.e_program_hash with
    | None -> false
    | Some recorded when is_legacy_hash recorded -> (
        (* legacy entry: judge staleness by the scheme it was recorded
           under, so pre-cache corpora keep replaying as non-stale *)
        match legacy_program_hash e.e_repro with
        | Some now -> recorded <> Printf.sprintf "%Lx" now
        | None -> false)
    | Some recorded -> (
        match program_hash e.e_repro with
        | Some now -> recorded <> now
        | None -> false)
  in
  let ok, message =
    match (replay_repro ?engine e.e_repro, e.e_expect) with
    | Ok (), Must_pass -> (true, "replay green, as expected")
    | Error d, Must_fail -> (true, "still caught: " ^ d)
    | Ok (), Must_fail ->
        (false, "expected the verifier to flag this replay, but it passed")
    | Error d, Must_pass -> (false, "regressed: " ^ d)
  in
  {
    v_ok = ok;
    v_stale = stale;
    v_message =
      (if stale then message ^ " [STALE: program changed since recording]"
       else message);
  }

(* One-line S-expression reproducers for failing injection schedules.

     (repro (workload rmw_loop) (env wario) (unroll 8) (cuts 413 879)
            (seed 42))

   Every field needed to replay deterministically is carried: the workload
   name (a micro program or a paper benchmark), the software environment,
   the pipeline options that shape the checkpoint schedule (unroll factor,
   optional region bound, placement policy, elision and motion, optional
   test-only sabotage) and the cut schedule itself.  Options at their
   defaults are left out of the line, the unroll factor excepted.  [seed]
   is bookkeeping: the campaign seed that found the failure. *)

module P = Wario.Pipeline

type t = {
  workload : string;
  env : P.environment;
  opts : P.options;
  cuts : int array;
  seed : int64 option;  (** campaign seed that found the failure *)
}

let defaults = P.default_options

let make ?(opts = defaults) ?seed ~workload ~env cuts =
  { workload; env; opts; cuts; seed }

let options_of (r : t) : P.options = r.opts

let source_of_workload (name : string) : (string, string) result =
  match
    List.find_opt (fun (m : Wario_workloads.Micro.t) -> m.name = name)
      Wario_workloads.Micro.all
  with
  | Some m -> Ok m.Wario_workloads.Micro.source
  | None -> (
      match
        List.find_opt
          (fun (b : Wario_workloads.Programs.benchmark) -> b.name = name)
          Wario_workloads.Programs.all
      with
      | Some b -> Ok b.Wario_workloads.Programs.source
      | None -> Error (Printf.sprintf "unknown workload %s" name))

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let to_string (r : t) : string =
  let buf = Buffer.create 128 and o = r.opts in
  let add fmt = Printf.bprintf buf fmt in
  add "(repro (workload %s) (env %s) (unroll %d)" r.workload
    (P.environment_name r.env) o.P.unroll_factor;
  Option.iter (add " (max-region %d)") o.P.max_region;
  if o.P.placement <> defaults.P.placement then
    add " (placement %s)" (P.placement_name o.P.placement);
  if o.P.elide <> defaults.P.elide then add " (elide %b)" o.P.elide;
  if o.P.motion <> defaults.P.motion then add " (motion %b)" o.P.motion;
  (match o.P.sabotage with
  | None -> ()
  | Some (P.Drop_ckpt n) -> add " (drop-ckpt %d)" n
  | Some (P.Drop_saved_reg n) -> add " (drop-reg %d)" n);
  add " (cuts";
  Array.iter (add " %d") r.cuts;
  add ")";
  Option.iter (add " (seed %Ld)") r.seed;
  add ")";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (a minimal S-expression reader; no external deps)            *)
(* ------------------------------------------------------------------ *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

let tokenize (s : string) : string list =
  let toks = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  String.iter
    (fun ch ->
      match ch with
      | '(' | ')' ->
          flush ();
          toks := String.make 1 ch :: !toks
      | ' ' | '\t' | '\n' | '\r' -> flush ()
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !toks

let parse_sexp (s : string) : sexp =
  let rec one = function
    | [] -> raise (Parse_error "unexpected end of input")
    | "(" :: rest ->
        let items, rest = many rest in
        (List items, rest)
    | ")" :: _ -> raise (Parse_error "unexpected )")
    | a :: rest -> (Atom a, rest)
  and many = function
    | ")" :: rest -> ([], rest)
    | [] -> raise (Parse_error "unbalanced parentheses")
    | toks ->
        let x, rest = one toks in
        let xs, rest = many rest in
        (x :: xs, rest)
  in
  match one (tokenize s) with
  | x, [] -> x
  | _, t :: _ -> raise (Parse_error ("trailing input at " ^ t))

let int_of_atom ctx = function
  | Atom a -> (
      match int_of_string_opt a with
      | Some i -> i
      | None -> raise (Parse_error (ctx ^ ": not an integer: " ^ a)))
  | List _ -> raise (Parse_error (ctx ^ ": expected an integer"))

let bool_of_atom ctx = function
  | Atom a -> (
      match bool_of_string_opt a with
      | Some b -> b
      | None -> raise (Parse_error (ctx ^ ": not a boolean: " ^ a)))
  | List _ -> raise (Parse_error (ctx ^ ": expected a boolean"))

let parse (s : string) : (sexp, string) result =
  match parse_sexp s with
  | sx -> Ok sx
  | exception Parse_error msg -> Error msg

let rec sexp_to_string = function
  | Atom a -> a
  | List items -> "(" ^ String.concat " " (List.map sexp_to_string items) ^ ")"

let of_sexp (sx : sexp) : (t, string) result =
  try
    match sx with
    | List (Atom "repro" :: fields) ->
        let workload = ref None and env = ref None and opts = ref defaults in
        let cuts = ref [||] and seed = ref None in
        let set f = opts := f !opts in
        List.iter
          (function
            | List [ Atom "workload"; Atom w ] -> workload := Some w
            | List [ Atom "env"; Atom e ] -> (
                match P.environment_of_name e with
                | Some v -> env := Some v
                | None -> raise (Parse_error ("unknown environment " ^ e)))
            | List [ Atom "unroll"; v ] ->
                set (fun o -> { o with unroll_factor = int_of_atom "unroll" v })
            | List [ Atom "max-region"; v ] ->
                let m = int_of_atom "max-region" v in
                set (fun o -> { o with max_region = Some m })
            | List [ Atom "placement"; Atom p ] -> (
                match P.placement_of_name p with
                | Some v -> set (fun o -> { o with placement = v })
                | None -> raise (Parse_error ("unknown placement " ^ p)))
            | List [ Atom "elide"; v ] ->
                set (fun o -> { o with elide = bool_of_atom "elide" v })
            | List [ Atom "motion"; v ] ->
                set (fun o -> { o with motion = bool_of_atom "motion" v })
            | List [ Atom "drop-ckpt"; v ] ->
                let n = int_of_atom "drop-ckpt" v in
                set (fun o -> { o with sabotage = Some (P.Drop_ckpt n) })
            | List [ Atom "drop-reg"; v ] ->
                let n = int_of_atom "drop-reg" v in
                set (fun o -> { o with sabotage = Some (P.Drop_saved_reg n) })
            | List (Atom "cuts" :: vs) ->
                cuts :=
                  Array.of_list (List.map (int_of_atom "cuts") vs)
            | List [ Atom "seed"; Atom v ] -> (
                match Int64.of_string_opt v with
                | Some s -> seed := Some s
                | None -> raise (Parse_error ("seed: not an integer: " ^ v)))
            | List (Atom f :: _) -> raise (Parse_error ("unknown field " ^ f))
            | _ -> raise (Parse_error "malformed field"))
          fields;
        let require name = function
          | Some v -> v
          | None -> raise (Parse_error ("missing field " ^ name))
        in
        Result.map
          (fun () ->
            {
              workload = require "workload" !workload;
              env = require "env" !env;
              opts = !opts;
              cuts = !cuts;
              seed = !seed;
            })
          (P.check_options !opts)
    | _ -> Error "expected (repro ...)"
  with Parse_error msg -> Error msg

let of_string (s : string) : (t, string) result =
  match parse s with Error e -> Error e | Ok sx -> of_sexp sx

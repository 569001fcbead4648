(* One-line S-expression reproducers for failing injection schedules.

     (repro (workload rmw_loop) (env wario) (unroll 8) (cuts 413 879)
            (seed 42))

   Every field needed to replay deterministically is carried: the workload
   name (a micro program or a paper benchmark), the software environment,
   the pipeline options that shape the checkpoint schedule (unroll factor,
   optional region bound, optional test-only sabotage) and the cut
   schedule itself.  [seed] is bookkeeping: the campaign seed that found the
   failure. *)

module P = Wario.Pipeline

type t = {
  workload : string;
  env : P.environment;
  unroll : int;
  max_region : int option;
  sabotage : P.sabotage option;  (** test-only sabotage replay (see Pipeline) *)
  cuts : int array;
  seed : int64 option;  (** campaign seed that found the failure *)
}

let make ?(unroll = P.default_options.P.unroll_factor) ?max_region ?sabotage
    ?seed ~workload ~env cuts =
  { workload; env; unroll; max_region; sabotage; cuts; seed }

let options_of (r : t) : P.options =
  {
    P.default_options with
    P.unroll_factor = r.unroll;
    max_region = r.max_region;
    sabotage = r.sabotage;
  }

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
  let buf = Buffer.create 128 in
  Buffer.add_string buf "(repro";
  Buffer.add_string buf (Printf.sprintf " (workload %s)" r.workload);
  Buffer.add_string buf
    (Printf.sprintf " (env %s)" (P.environment_name r.env));
  Buffer.add_string buf (Printf.sprintf " (unroll %d)" r.unroll);
  (match r.max_region with
  | None -> ()
  | Some m -> Buffer.add_string buf (Printf.sprintf " (max-region %d)" m));
  (match r.sabotage with
  | None -> ()
  | Some (P.Drop_ckpt n) ->
      Buffer.add_string buf (Printf.sprintf " (drop-ckpt %d)" n)
  | Some (P.Drop_saved_reg n) ->
      Buffer.add_string buf (Printf.sprintf " (drop-reg %d)" n));
  Buffer.add_string buf " (cuts";
  Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf " %d" c)) r.cuts;
  Buffer.add_string buf ")";
  (match r.seed with
  | None -> ()
  | Some s -> Buffer.add_string buf (Printf.sprintf " (seed %Ld)" s));
  Buffer.add_string buf ")";
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
        let workload = ref None and env = ref None in
        let unroll = ref P.default_options.P.unroll_factor in
        let max_region = ref None and sabotage = ref None in
        let cuts = ref [||] and seed = ref None in
        List.iter
          (function
            | List [ Atom "workload"; Atom w ] -> workload := Some w
            | List [ Atom "env"; Atom e ] -> (
                match P.environment_of_name e with
                | Some v -> env := Some v
                | None -> raise (Parse_error ("unknown environment " ^ e)))
            | List [ Atom "unroll"; v ] -> unroll := int_of_atom "unroll" v
            | List [ Atom "max-region"; v ] ->
                max_region := Some (int_of_atom "max-region" v)
            | List [ Atom "drop-ckpt"; v ] ->
                sabotage := Some (P.Drop_ckpt (int_of_atom "drop-ckpt" v))
            | List [ Atom "drop-reg"; v ] ->
                sabotage := Some (P.Drop_saved_reg (int_of_atom "drop-reg" v))
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
        Ok
          {
            workload = require "workload" !workload;
            env = require "env" !env;
            unroll = !unroll;
            max_region = !max_region;
            sabotage = !sabotage;
            cuts = !cuts;
            seed = !seed;
          }
    | _ -> Error "expected (repro ...)"
  with Parse_error msg -> Error msg

let of_string (s : string) : (t, string) result =
  match parse s with Error e -> Error e | Ok sx -> of_sexp sx

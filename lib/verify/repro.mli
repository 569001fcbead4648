(** One-line S-expression reproducers for failing injection schedules,
    e.g. [(repro (workload rmw_loop) (env wario) (unroll 8) (cuts 413 879))].
    Replayable via [iclang verify --repro] or {!Corpus.replay_repro}. *)

type t = {
  workload : string;  (** micro-program or benchmark name *)
  env : Wario.Pipeline.environment;
  unroll : int;
  max_region : int option;
  sabotage : Wario.Pipeline.sabotage option;
      (** replays the test-only sabotage hook (see {!Wario.Pipeline.options}):
          [(drop-ckpt N)] or [(drop-reg N)] *)
  cuts : int array;  (** the injection schedule *)
  seed : int64 option;  (** campaign seed that found the failure (bookkeeping) *)
}

val make :
  ?unroll:int ->
  ?max_region:int ->
  ?sabotage:Wario.Pipeline.sabotage ->
  ?seed:int64 ->
  workload:string ->
  env:Wario.Pipeline.environment ->
  int array ->
  t

val options_of : t -> Wario.Pipeline.options
(** Pipeline options reconstructing the exact compile of the failure. *)

val source_of_workload : string -> (string, string) result
(** Resolve a workload name against the micro programs, then the paper
    benchmarks. *)

val to_string : t -> string
(** One line, parseable by {!of_string}. *)

val of_string : string -> (t, string) result

(** {1 S-expression plumbing}

    The minimal S-expression reader behind {!of_string}, shared with the
    regression-corpus entry format ({!Corpus}), which embeds a reproducer
    inside a larger expression. *)

type sexp = Atom of string | List of sexp list

val parse : string -> (sexp, string) result
val sexp_to_string : sexp -> string

val of_sexp : sexp -> (t, string) result
(** Parse an already-read [(repro ...)] expression. *)

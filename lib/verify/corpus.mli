(** The persisted regression corpus: a directory of S-expression entries,
    each a shrunk reproducer plus metadata (expectation polarity, the
    supply model that found it, a program fingerprint).  Content-addressed
    file names keep the corpus deduplicated; [iclang verify --corpus DIR]
    replays every entry deterministically and CI gates on the result. *)

type expect =
  | Must_fail
      (** the verifier must still flag this replay (detector regression
          test — e.g. a sabotaged build the harness must keep catching) *)
  | Must_pass  (** a fixed bug that must stay fixed: replay must be green *)

type entry = {
  e_repro : Repro.t;
  e_expect : expect;
  e_supply : string option;  (** {!Supply.name} of the generator, if any *)
  e_found_by : string option;  (** e.g. ["campaign"], ["adversary"] *)
  e_program_hash : string option;
      (** fingerprint of (env, options, source) at recording time: 32 hex
          chars — the pipeline's canonical image-stage cache key
          ({!Wario.Pipeline.image_key}) — or a legacy ≤16-hex FNV digest
          on entries recorded before the compile cache existed (parsed
          with a deprecation warning; staleness is judged under the
          scheme the entry was recorded with) *)
}

val program_hash : Repro.t -> string option
(** The canonical fingerprint of the replay's compile:
    {!Wario.Pipeline.image_key} over the workload source, environment and
    the reproducer's options — the same hash that addresses the compile
    cache, so whatever would make the cache recompile also marks the
    entry stale.  [None] for an unknown workload.  Stable across runs. *)

val make : ?supply:string -> ?found_by:string -> expect:expect -> Repro.t -> entry
(** Build an entry, computing {!program_hash}. *)

val to_string : entry -> string
(** One line, parseable by {!of_string}. *)

val of_string : string -> (entry, string) result

val filename : entry -> string
(** Content-addressed file name ([workload-env-xxxxxxxx.repro]): identical
    entries collide on purpose. *)

val save : dir:string -> entry -> [ `Added of string | `Exists of string ]
(** Write the entry into [dir] (created if missing); [`Exists] means an
    identical entry was already present. *)

val load_dir : string -> (string * entry) list * (string * string) list
(** All [*.repro] files of a directory in sorted order: parsed entries
    with their paths, and [(path, error)] for files that did not parse
    (the replay gate treats those as failures). *)

type verdict = {
  v_ok : bool;  (** expectation upheld *)
  v_stale : bool;  (** program hash no longer matches the workload *)
  v_message : string;
}

val replay : ?engine:Wario_emulator.Emulator.engine -> entry -> verdict
(** Recompile exactly as recorded ({!Harness.replay}, on [engine]) and
    judge the outcome against the entry's expectation.  A stale program
    fingerprint is reported in the verdict but does not by itself decide
    it. *)

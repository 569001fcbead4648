(** The typed compilation cache: canonical stage keys plus marshalled
    artifacts over the content-addressed on-disk store
    ({!Wario_support.Store}).  See DESIGN.md §19.

    {!Pipeline} owns the per-stage key derivations (which option fields
    each stage consumes); this module owns the canonical encoding, the
    FNV-1a key, and the never-raise get/put discipline: every cache
    failure degrades to a recompile, never an error. *)

module Key : sig
  type t = string
  (** 32 lowercase hex characters: the FNV-1a 64-bit hash of the
      canonical field string, then the hash of that string with a
      domain suffix.  FNV-1a is a left fold, so the second half is a
      function of the first: a key carries 64 bits, not 128. *)

  val of_parts : (string * string) list -> t
  (** Canonical key of an ordered (field, value) list.  The cache format
      version (which includes the OCaml compiler version — payloads are
      [Marshal]ed) is folded into every key, so key-derivation changes
      miss against old entries instead of misreading them.  A payload
      type change bumps the store's entry magic instead, which keeps
      every key. *)

  val to_hex : t -> string
end

type t

val disabled : t
(** No store: every [get] misses, every [put] is a no-op. *)

val enabled : t -> bool

val create : ?max_bytes:int -> string -> t
(** Open (creating if needed) an on-disk cache rooted at a directory.
    [max_bytes] bounds it with LRU eviction
    (default {!Wario_support.Store.default_max_bytes}). *)

val from_env : unit -> t
(** The ambient cache: [WARIO_CACHE_DIR] names the directory (unset or
    empty → {!disabled}), [WARIO_CACHE_MAX_MB] bounds it.  Handles are
    shared per (dir, budget) within the process, so ambient users see
    one set of counters. *)

type counters = Wario_support.Store.counters = {
  hits : int;
  misses : int;
  evictions : int;
  puts : int;
}

val counters : t -> counters

val get : ?spans:Wario_obs.Span.t -> t -> Key.t -> 'a option
(** Unmarshal the payload stored under a key.  [None] on any miss,
    corruption or unmarshal failure — never raises.  The ['a] is trusted
    from the key: stage names and the format version participate in
    every key, so distinct payload types cannot share one.  A live
    [spans] recorder gets counters on its innermost open span:
    [store_read_us], [store_bytes_read], [store_digest_us] (see
    {!Wario_support.Store.find}) and [unmarshal_us].  With a disabled
    one (the default) no clock is read. *)

val put : ?spans:Wario_obs.Span.t -> t -> ?stage:string -> Key.t -> 'a -> unit
(** Marshal and store a payload (atomic rename-on-write; see
    {!Wario_support.Store.put}).  [stage] tags the advisory index.
    Never raises.  A live [spans] recorder gets [marshal_us],
    [store_write_us] and [store_bytes_written] on its innermost open
    span. *)

val mem : t -> Key.t -> bool
(** Existence probe without reading, counting or LRU-touching. *)


(** The typed compilation cache: canonical stage keys plus marshalled
    artifacts over the content-addressed on-disk store
    ({!Wario_support.Store}).  See DESIGN.md §19.

    {!Pipeline} owns the per-stage key derivations (which option fields
    each stage consumes); this module owns the canonical encoding, the
    128-bit FNV-1a key, and the never-raise get/put discipline: every
    cache failure degrades to a recompile, never an error. *)

module Key : sig
  type t = string
  (** 32 lowercase hex characters: two domain-separated FNV-1a 64-bit
      hashes of the canonical field string. *)

  val of_parts : (string * string) list -> t
  (** Canonical key of an ordered (field, value) list.  The cache format
      version (which includes the OCaml compiler version — payloads are
      [Marshal]ed) is folded into every key, so format changes miss
      against old entries instead of misreading them. *)

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

val get : t -> Key.t -> 'a option
(** Unmarshal the payload stored under a key.  [None] on any miss,
    corruption or unmarshal failure — never raises.  The ['a] is trusted
    from the key: stage names and the format version participate in
    every key, so distinct payload types cannot share one. *)

val put : t -> ?stage:string -> Key.t -> 'a -> unit
(** Marshal and store a payload (atomic rename-on-write; see
    {!Wario_support.Store.put}).  [stage] tags the advisory index.
    Never raises. *)

val mem : t -> Key.t -> bool
(** Existence probe without reading, counting or LRU-touching. *)


(** A content-addressed on-disk blob store — the persistence layer of
    the compilation cache (see lib/core/cache.ml for the typed,
    stage-keyed interface and DESIGN.md §19 for the layout).

    Entries live as [dir/objects/<key>] files, each self-describing: a
    magic line ([wario-store-5]), its own key, a check line (16 hex digits
    of {!Wario_support.Util.word_hash} over the payload), then the
    payload.  Writes stage under
    [dir/tmp/] and land via an atomic [rename], so concurrent readers —
    other processes, or other domains of an {!Wario_exec} pool — never
    observe torn entries.  [dir/index.jsonl] is an advisory put log,
    rewritten from the live object set after every eviction sweep.

    Eviction is least-recently-used by file mtime with a byte budget:
    [find] touches the entry, [put] sweeps oldest-first when the store
    outgrows [max_bytes].

    A cache must never break its caller: every filesystem error degrades
    to a miss ([find] -> [None]) or a no-op ([put]); corrupt entries are
    deleted on discovery. *)

type t

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  puts : int;
}

val default_max_bytes : int
(** 256 MiB. *)

val open_store : ?max_bytes:int -> string -> t
(** [open_store dir] creates [dir] (and its [objects/]/[tmp/]
    subdirectories) if missing and returns a handle.  The handle is
    domain-safe: counters are atomics and all entry state lives on
    disk. *)

val find :
  ?count:(string -> int -> unit) ->
  t ->
  string ->
  (bytes -> int -> int -> 'a option) ->
  'a option
(** [find t key decode] reads the entry under [key] into this domain's
    read buffer, checks its magic, key, framing and word hash in place,
    and returns [decode buf off len] over the payload's [len] bytes at
    [off].  The buffer is reused by the domain's next [find]: [decode]
    must build its result from the bytes, never return the buffer, and
    must not read past [off + len] (stale bytes of a longer entry may
    follow).  [None] (counted as a miss) when the entry is absent, torn,
    corrupt or unreadable, or [decode] returns [None]; an entry failing
    any check is deleted.  A hit refreshes the entry's LRU position.
    [count], when given, receives [store_read_us] and [store_bytes_read]
    for the entry file read, and [store_digest_us] for its in-place check;
    without it no clock is read. *)

val mem : t -> string -> bool
(** Existence probe without reading, counting or LRU-touching. *)

val put :
  ?count:(string -> int -> unit) -> t -> ?meta:string -> string -> string -> unit
(** [put t ~meta key payload] writes an entry atomically
    (write-to-tmp + rename), logs it to the index with the advisory
    [meta] tag, and runs the LRU sweep if the byte budget is exceeded.
    [count], when given, receives [store_write_us] (word hash, write and
    rename) and [store_bytes_written] for an entry that landed.
    Keys must be non-empty and drawn from [a-z A-F 0-9 - .] (they are
    used as file names verbatim); anything else is ignored. *)

val counters : t -> counters
(** Hit/miss/eviction/put totals since [open_store]. *)

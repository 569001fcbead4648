(** A content-addressed on-disk blob store — the persistence layer of
    the compilation cache (see lib/core/cache.ml for the typed,
    stage-keyed interface and DESIGN.md §19 for the layout).

    Entries live as [dir/objects/<key>] files, each self-describing (a
    magic line, its own key and the payload's MD5 digest before the
    payload).  Writes stage under
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

val find : ?count:(string -> int -> unit) -> t -> string -> string option
(** Payload stored under a key, or [None] (counted as a miss) when
    absent, torn, corrupt or unreadable.  The payload's digest is checked
    before it is returned; an entry that fails any check is deleted.  A
    hit refreshes the entry's LRU position.  [count], when given,
    receives [store_read_us] and [store_bytes_read] for the entry file
    read, and [store_digest_us] for its header and digest check;
    without it no clock is read. *)

val mem : t -> string -> bool
(** Existence probe without reading, counting or LRU-touching. *)

val put :
  ?count:(string -> int -> unit) -> t -> ?meta:string -> string -> string -> unit
(** [put t ~meta key payload] writes an entry atomically
    (write-to-tmp + rename), logs it to the index with the advisory
    [meta] tag, and runs the LRU sweep if the byte budget is exceeded.
    [count], when given, receives [store_write_us] (digest, write and
    rename) and [store_bytes_written] for an entry that landed.
    Keys must be non-empty and drawn from [a-z A-F 0-9 - .] (they are
    used as file names verbatim); anything else is ignored. *)

val counters : t -> counters
(** Hit/miss/eviction/put totals since [open_store]. *)

(* A content-addressed on-disk blob store: the persistence layer of the
   compilation cache (lib/core/cache.ml builds the typed, stage-keyed
   interface on top of this).

   Layout under [dir]:

     objects/<key>    one file per entry: a fixed magic line, the key
                      (self-describing — a corrupt or misplaced file can
                      be detected without the index), a check line (the
                      16 hex digits of [Util.word_hash] over the
                      payload), then the payload
     tmp/             write staging; entries land via [Sys.rename]
     index.jsonl      advisory append-only log of puts ({key, meta,
                      bytes}); informational only — the objects
                      directory is the source of truth and the index is
                      rewritten from it after every eviction sweep

   Crash-safety and concurrency: every entry is written to a unique file
   under tmp/ and renamed into place.  rename(2) is atomic on a POSIX
   filesystem, so a reader (another process, or another domain of an
   `Exec.map` pool) either sees the complete entry or no entry — never a
   torn one.  Two writers racing on the same key both write valid
   entries and the second rename wins; since entries are
   content-addressed the two bodies are identical and the race is
   harmless.

   Eviction: least-recently-used by file mtime.  [find] touches the
   entry's mtime, [put] checks the byte budget and deletes
   oldest-mtime entries until the store fits again.  The budget is
   advisory (a concurrent writer can overshoot between the check and
   the sweep) — the store converges back under the cap on the next put.

   Failure policy: a cache must never break its caller.  Every
   filesystem error degrades to a miss ([find] -> None) or a no-op
   ([put]); corrupt entries are deleted on discovery.  [find] checks the
   payload's word hash before handing the bytes out, so a bit-flipped or
   truncated payload never reaches the caller's [Marshal.from_bytes]
   (which is not memory-safe on malformed input).

   Reads: [find] reads an entry with [Unix.read] into a per-domain buffer
   that grows to the largest entry read and is then reused, checks the
   magic, key, framing and word hash in place, and hands the caller's
   decoder the payload's offset and length in that buffer.  A hit
   allocates no copy of the entry. *)

(* Bump on any change to the entry layout or to the type of a payload
   stored under an unchanged key: old entries then miss. *)
let magic = "wario-store-5\n"

type t = {
  dir : string;
  max_bytes : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  puts : int Atomic.t;
  approx_bytes : int Atomic.t;
      (* running estimate of the objects/ footprint; re-synced by the
         full scan each eviction sweep performs *)
}

type counters = { hits : int; misses : int; evictions : int; puts : int }

let objects_dir t = Filename.concat t.dir "objects"
let tmp_dir t = Filename.concat t.dir "tmp"
let index_file t = Filename.concat t.dir "index.jsonl"

let mkdir_p path =
  let rec go p =
    if p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* a key becomes a file name verbatim: restrict it to a safe alphabet *)
let valid_key k =
  k <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'F' | '0' .. '9' | '-' | '.' -> true | _ -> false)
       k

let scan_bytes t =
  match Sys.readdir (objects_dir t) with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun acc name ->
          match Unix.stat (Filename.concat (objects_dir t) name) with
          | { Unix.st_size; _ } -> acc + st_size
          | exception Unix.Unix_error _ -> acc)
        0 names

let default_max_bytes = 256 * 1024 * 1024

let open_store ?(max_bytes = default_max_bytes) (dir : string) : t =
  let t =
    {
      dir;
      max_bytes;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      evictions = Atomic.make 0;
      puts = Atomic.make 0;
      approx_bytes = Atomic.make 0;
    }
  in
  mkdir_p (objects_dir t);
  mkdir_p (tmp_dir t);
  Atomic.set t.approx_bytes (scan_bytes t);
  t

let counters (t : t) : counters =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    puts = Atomic.get t.puts;
  }

let entry_path t key = Filename.concat (objects_dir t) key

(* Each domain's read buffer; [read_entry] grows it to the largest entry
   read so far.  Only the domain's own [find] uses it, and a decoder hands
   back a value built from it, never the buffer itself. *)
let read_buf = Domain.DLS.new_key (fun () -> ref (Bytes.create 65536))

(* The whole file at [path] in the domain's buffer: the buffer and the
   file's length.  A file that shrinks under the read is short, and fails
   the framing check. *)
let read_entry path : bytes * int =
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let size = (Unix.fstat fd).Unix.st_size in
  let cell = Domain.DLS.get read_buf in
  if Bytes.length !cell < size then cell := Bytes.create size;
  let buf = !cell in
  let rec go len =
    if len = size then len
    else match Unix.read fd buf len (size - len) with 0 -> len | k -> go (len + k)
  in
  (buf, go 0)

(* [s] sits in [buf] at [off] *)
let bytes_at buf off s =
  let n = String.length s in
  let rec go i =
    i = n || (Bytes.unsafe_get buf (off + i) = String.unsafe_get s i && go (i + 1))
  in
  go 0

(* the check line's 16 hex digits spell [h] *)
let hex_at buf off (h : int64) =
  let rec go i =
    i = 16
    || (let nib = Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15 in
        Bytes.unsafe_get buf (off + i) = "0123456789abcdef".[nib] && go (i + 1))
  in
  go 0

(* Advisory index line.  O_APPEND keeps concurrent one-line writes from
   interleaving on a local filesystem; the index is never read back for
   correctness, only for inspection. *)
let index_append t ~key ~meta ~bytes =
  try
    let fd =
      Unix.openfile (index_file t)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    in
    let line =
      Printf.sprintf "{\"key\":\"%s\",\"meta\":\"%s\",\"bytes\":%d}\n" key meta
        bytes
    in
    let b = Bytes.of_string line in
    ignore (Unix.write fd b 0 (Bytes.length b));
    Unix.close fd
  with Unix.Unix_error _ | Sys_error _ -> ()

let index_rewrite t (live : (string * int) list) =
  try
    let tmp =
      Filename.concat (tmp_dir t)
        (Printf.sprintf "index.%d.%d" (Unix.getpid ()) (Domain.self () :> int))
    in
    let oc = open_out_bin tmp in
    List.iter
      (fun (key, bytes) ->
        output_string oc
          (Printf.sprintf "{\"key\":\"%s\",\"meta\":\"live\",\"bytes\":%d}\n"
             key bytes))
      live;
    close_out oc;
    Sys.rename tmp (index_file t)
  with Unix.Unix_error _ | Sys_error _ -> ()

(* Oldest-mtime-first sweep until the store fits under [max_bytes] again.
   Runs a full directory scan: eviction is rare (only on budget overflow)
   and the scan also re-syncs the running byte estimate. *)
let evict_lru t =
  match Sys.readdir (objects_dir t) with
  | exception Sys_error _ -> ()
  | names ->
      let entries =
        Array.to_list names
        |> List.filter_map (fun name ->
               let path = Filename.concat (objects_dir t) name in
               match Unix.stat path with
               | { Unix.st_size; st_mtime; _ } ->
                   Some (name, path, st_size, st_mtime)
               | exception Unix.Unix_error _ -> None)
        |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare a b)
      in
      let total =
        List.fold_left (fun acc (_, _, sz, _) -> acc + sz) 0 entries
      in
      let total = ref total in
      let live = ref [] in
      List.iter
        (fun (name, path, sz, _) ->
          if !total > t.max_bytes then begin
            (try Sys.remove path with Sys_error _ -> ());
            Atomic.incr t.evictions;
            total := !total - sz
          end
          else live := (name, sz) :: !live)
        entries;
      Atomic.set t.approx_bytes !total;
      index_rewrite t (List.rev !live)

(* [count name n] receives the named amounts [find] and [put] report:
   microseconds spent per phase and bytes moved.  Without it no clock is
   read. *)
let count_bytes count name n = Option.iter (fun add -> add name n) count

let find ?count (t : t) (key : string)
    (decode : bytes -> int -> int -> 'a option) : 'a option =
  let miss () =
    Atomic.incr t.misses;
    None
  in
  if not (valid_key key) then miss ()
  else
    let path = entry_path t key in
    match Util.timed_us count "store_read_us" (fun () -> read_entry path) with
    | exception (Unix.Unix_error _ | Sys_error _) -> miss ()
    | buf, len -> (
        count_bytes count "store_bytes_read" len;
        let mlen = String.length magic and klen = String.length key in
        let cpos = mlen + klen + 1 in
        let header_len = cpos + 17 in
        let plen = len - header_len in
        let valid =
          Util.timed_us count "store_digest_us" @@ fun () ->
          plen > 0
          && bytes_at buf 0 magic
          && bytes_at buf mlen key
          && Bytes.get buf (cpos - 1) = '\n'
          && Bytes.get buf (header_len - 1) = '\n'
          && hex_at buf cpos (Util.word_hash buf header_len plen)
        in
        match if valid then decode buf header_len plen else None with
        | Some _ as hit ->
            (* LRU touch: both timestamps to "now" *)
            (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
            Atomic.incr t.hits;
            hit
        | None ->
            (* corrupt, mislabelled or undecodable: delete on discovery *)
            (try Sys.remove path with Sys_error _ -> ());
            miss ())

let mem (t : t) (key : string) : bool =
  valid_key key && Sys.file_exists (entry_path t key)

let put ?count (t : t) ?(meta = "") (key : string) (payload : string) : unit =
  if valid_key key then begin
    try
      let bytes =
        Util.timed_us count "store_write_us" @@ fun () ->
        let check =
          Printf.sprintf "%016Lx"
            (Util.word_hash (Bytes.unsafe_of_string payload) 0
               (String.length payload))
        in
        let tmp =
          Filename.concat (tmp_dir t)
            (Printf.sprintf "%s.%d.%d" key (Unix.getpid ())
               (Domain.self () :> int))
        in
        let oc = open_out_bin tmp in
        List.iter (output_string oc) [ magic; key; "\n"; check; "\n"; payload ];
        close_out oc;
        Sys.rename tmp (entry_path t key);
        String.length magic + String.length key + 18 + String.length payload
      in
      count_bytes count "store_bytes_written" bytes;
      Atomic.incr t.puts;
      index_append t ~key ~meta ~bytes;
      let b = ref (Atomic.get t.approx_bytes) in
      let continue = ref true in
      while !continue do
        if Atomic.compare_and_set t.approx_bytes !b (!b + bytes)
        then continue := false
        else b := Atomic.get t.approx_bytes
      done;
      if Atomic.get t.approx_bytes > t.max_bytes then evict_lru t
    with Unix.Unix_error _ | Sys_error _ -> ()
  end

(* A content-addressed on-disk blob store: the persistence layer of the
   compilation cache (lib/core/cache.ml builds the typed, stage-keyed
   interface on top of this).

   Layout under [dir]:

     objects/<key>    one file per entry: a fixed magic line, the key
                      (self-describing — a corrupt or misplaced file can
                      be detected without the index), the hex MD5 digest
                      of the payload, then the payload
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
   payload digest before handing the bytes out, so a bit-flipped or
   truncated payload never reaches the caller's [Marshal.from_string]
   (which is not memory-safe on malformed input). *)

(* Bump on any change to the entry layout or to the type of a payload
   stored under an unchanged key: old entries then miss. *)
let magic = "wario-store-4\n"

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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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

let find ?count (t : t) (key : string) : string option =
  let miss () =
    Atomic.incr t.misses;
    None
  in
  if not (valid_key key) then miss ()
  else
    let path = entry_path t key in
    match Util.timed_us count "store_read_us" (fun () -> read_file path) with
    | exception (Sys_error _ | End_of_file) -> miss ()
    | body ->
        count_bytes count "store_bytes_read" (String.length body);
        let mlen = String.length magic and klen = String.length key in
        let dpos = mlen + klen + 1 in
        let header_len = dpos + 33 in
        let plen = String.length body - header_len in
        let valid =
          Util.timed_us count "store_digest_us" @@ fun () ->
          plen > 0
          && String.sub body 0 mlen = magic
          && String.sub body mlen klen = key
          && body.[mlen + klen] = '\n'
          && body.[header_len - 1] = '\n'
          (* the digest is checked over the payload in place, before the
             one copy that hands it out *)
          && String.sub body dpos 32
             = Digest.to_hex (Digest.substring body header_len plen)
        in
        if valid then begin
          (* LRU touch: both timestamps to "now" *)
          (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
          Atomic.incr t.hits;
          Some (String.sub body header_len plen)
        end
        else begin
          (* corrupt or mislabelled entry: delete on discovery *)
          (try Sys.remove path with Sys_error _ -> ());
          miss ()
        end

let mem (t : t) (key : string) : bool =
  valid_key key && Sys.file_exists (entry_path t key)

let put ?count (t : t) ?(meta = "") (key : string) (payload : string) : unit =
  if valid_key key then begin
    try
      let body =
        Util.timed_us count "store_write_us" @@ fun () ->
        let body =
          String.concat ""
            [ magic; key; "\n"; Digest.to_hex (Digest.string payload); "\n"; payload ]
        in
        let tmp =
          Filename.concat (tmp_dir t)
            (Printf.sprintf "%s.%d.%d" key (Unix.getpid ())
               (Domain.self () :> int))
        in
        let oc = open_out_bin tmp in
        output_string oc body;
        close_out oc;
        Sys.rename tmp (entry_path t key);
        body
      in
      count_bytes count "store_bytes_written" (String.length body);
      Atomic.incr t.puts;
      index_append t ~key ~meta ~bytes:(String.length body);
      let b = ref (Atomic.get t.approx_bytes) in
      let continue = ref true in
      while !continue do
        if Atomic.compare_and_set t.approx_bytes !b (!b + String.length body)
        then continue := false
        else b := Atomic.get t.approx_bytes
      done;
      if Atomic.get t.approx_bytes > t.max_bytes then evict_lru t
    with Unix.Unix_error _ | Sys_error _ -> ()
  end

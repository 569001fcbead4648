(* The typed compilation cache: stage keys + marshalled artifacts over
   the content-addressed blob store (Wario_support.Store).

   Keys are canonical: a stage key is built from an explicit, ordered
   list of (field, value) pairs — the stage name, a format version, the
   parent stage's key, and exactly the option fields that stage consumes
   (Pipeline owns the per-stage field lists).  The key is the FNV-1a
   64-bit hash of the canonical string, followed by the hash of that
   string with ["\x02wario-key"] appended.  FNV-1a is a left fold, so
   the second half is a function of the first: the 32 hex characters
   carry 64 bits, not 128.  The format version is baked into every key
   so a key-derivation change simply misses against old entries instead
   of misreading them.

   Payloads are [Marshal]ed OCaml values.  That is safe here because
   (a) every stage's artifacts are plain data — IR programs, machine
   programs, images, stats records; no closures — and (b) a key
   collision across payload types would require two different canonical
   strings to collide in 64 bits.  Marshalling is compiler-version
   specific, so the OCaml version string participates in the format
   version: a toolchain bump invalidates the cache wholesale rather
   than risking a misparse. *)

module U = Wario_support.Util
module Store = Wario_support.Store
module S = Wario_obs.Span

(* Bump on any change to key derivation: every key moves with it.  A
   change to a stage's payload type instead bumps [Store.magic], which
   makes every old entry miss while the keys (serve's [key] field, the
   corpus fingerprints) stay put. *)
let format_version = "1:" ^ Sys.ocaml_version

module Key = struct
  type t = string

  (* FNV-1a state after the format version, where every key starts *)
  let version_state = U.fnv1a64 format_version

  (* The canonical string is never built: each piece is folded into the
     running hash, which gives the same bits as hashing the
     concatenation. *)
  let of_parts (parts : (string * string) list) : t =
    let h =
      List.fold_left
        (fun h (field, value) ->
          let h = U.fnv1a64_from (U.fnv1a64_from h "\x00") field in
          U.fnv1a64_from (U.fnv1a64_from h "\x01") value)
        version_state parts
    in
    Printf.sprintf "%016Lx%016Lx" h (U.fnv1a64_from h "\x02wario-key")

  let to_hex (k : t) : string = k
end

type t = { store : Store.t option }

let disabled = { store = None }
let enabled t = t.store <> None

let create ?max_bytes (dir : string) : t =
  { store = Some (Store.open_store ?max_bytes dir) }

(* WARIO_CACHE_DIR turns the ambient cache on for every Pipeline.compile
   that does not pass an explicit cache; WARIO_CACHE_MAX_MB bounds it.
   Opened once per (dir, max_mb) value so repeated ambient lookups share
   one handle (and one set of counters) per process. *)
let ambient_handles : (string * int, t) Hashtbl.t = Hashtbl.create 4
let ambient_mutex = Mutex.create ()

let from_env () : t =
  match Sys.getenv_opt "WARIO_CACHE_DIR" with
  | None | Some "" -> disabled
  | Some dir ->
      let max_mb =
        match
          Option.bind (Sys.getenv_opt "WARIO_CACHE_MAX_MB") int_of_string_opt
        with
        | Some mb when mb > 0 -> mb
        | _ -> Store.default_max_bytes / (1024 * 1024)
      in
      Mutex.protect ambient_mutex (fun () ->
          match Hashtbl.find_opt ambient_handles (dir, max_mb) with
          | Some t -> t
          | None ->
              let t = create ~max_bytes:(max_mb * 1024 * 1024) dir in
              Hashtbl.replace ambient_handles (dir, max_mb) t;
              t)

type counters = Store.counters = {
  hits : int;
  misses : int;
  evictions : int;
  puts : int;
}

let counters t =
  match t.store with
  | None -> { hits = 0; misses = 0; evictions = 0; puts = 0 }
  | Some s -> Store.counters s

(* [get]/[put] never raise: a failing cache degrades to recompilation.
   [get] additionally guards the unmarshal: a payload that is not exactly
   one marshalled value ([Marshal.total_size] against its length) is a
   miss, and the store deletes it.  The store's amounts become counters on
   the innermost open span of a live recorder; with a disabled one
   nothing is counted or timed. *)

let counter spans =
  if S.is_enabled spans then Some (fun name by -> S.add_counter ~by spans name)
  else None

let get ?(spans = S.disabled) (t : t) (key : Key.t) : 'a option =
  match t.store with
  | None -> None
  | Some s -> (
      let count = counter spans in
      Store.find ?count s key @@ fun buf off len ->
      (* in place: the payload must be exactly one marshalled value *)
      try
        if len >= Marshal.header_size && Marshal.total_size buf off = len
        then
          Some
            (U.timed_us count "unmarshal_us" (fun () -> Marshal.from_bytes buf off))
        else None
      with Failure _ | Invalid_argument _ -> None)

let put ?(spans = S.disabled) (t : t) ?(stage = "") (key : Key.t) (v : 'a) :
    unit =
  match t.store with
  | None -> ()
  | Some s ->
      let count = counter spans in
      let payload =
        U.timed_us count "marshal_us" (fun () -> Marshal.to_string v [])
      in
      Store.put ?count s ~meta:stage key payload

let mem (t : t) (key : Key.t) : bool =
  match t.store with None -> false | Some s -> Store.mem s key

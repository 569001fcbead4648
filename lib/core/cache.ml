(* The typed compilation cache: stage keys + marshalled artifacts over
   the content-addressed blob store (Wario_support.Store).

   Keys are canonical: a stage key is built from an explicit, ordered
   list of (field, value) pairs — the stage name, a format version, the
   parent stage's key, and exactly the option fields that stage consumes
   (Pipeline owns the per-stage field lists).  Two FNV-1a 64-bit passes
   over the canonical string (plain, and domain-separated) give a
   128-bit hex key; the format version is baked into every key so a
   layout change simply misses against old entries instead of
   misreading them.

   Payloads are [Marshal]ed OCaml values.  That is safe here because
   (a) every stage's artifacts are plain data — IR programs, machine
   programs, images, stats records; no closures — and (b) a key
   collision across payload types would require two different canonical
   strings to collide in 128 bits.  Marshalling is compiler-version
   specific, so the OCaml version string participates in the format
   version: a toolchain bump invalidates the cache wholesale rather
   than risking a misparse. *)

module U = Wario_support.Util
module Store = Wario_support.Store

(* Bump on any change to stage payloads or key derivation. *)
let format_version = "1:" ^ Sys.ocaml_version

module Key = struct
  type t = string

  let of_parts (parts : (string * string) list) : t =
    let buf = Buffer.create 256 in
    Buffer.add_string buf format_version;
    List.iter
      (fun (field, value) ->
        Buffer.add_char buf '\x00';
        Buffer.add_string buf field;
        Buffer.add_char buf '\x01';
        Buffer.add_string buf value)
      parts;
    let canon = Buffer.contents buf in
    Printf.sprintf "%016Lx%016Lx" (U.fnv1a64 canon)
      (U.fnv1a64 (canon ^ "\x02wario-key"))

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
   [get] additionally guards the unmarshal — a truncated or
   foreign-format payload surfaces as a miss, and the offending entry
   has already been deleted by the store's self-check or will simply be
   overwritten by the fresh put. *)

let get (t : t) (key : Key.t) : 'a option =
  match t.store with
  | None -> None
  | Some s -> (
      match Store.find s key with
      | None -> None
      | Some payload -> (
          try Some (Marshal.from_string payload 0)
          with Failure _ | Invalid_argument _ -> None))

let put (t : t) ?(stage = "") (key : Key.t) (v : 'a) : unit =
  match t.store with
  | None -> ()
  | Some s -> Store.put s ~meta:stage key (Marshal.to_string v [])

let mem (t : t) (key : Key.t) : bool =
  match t.store with None -> false | Some s -> Store.mem s key

(* Small shared utilities used across the WARio libraries. *)

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)
module Str_map = Map.Make (String)
module Str_set = Set.Make (String)

(** [fold_range f acc lo hi] folds [f] over the half-open range [lo, hi). *)
let fold_range f acc lo hi =
  let rec go acc i = if i >= hi then acc else go (f acc i) (i + 1) in
  go acc lo

(** [list_index_of p xs] is the index of the first element satisfying [p]. *)
let list_index_of p xs =
  let rec go i = function
    | [] -> None
    | x :: _ when p x -> Some i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 xs

(** [take n xs] is the first [n] elements of [xs] (all of [xs] if shorter). *)
let rec take n xs =
  if n <= 0 then [] else match xs with [] -> [] | x :: tl -> x :: take (n - 1) tl

(** [drop n xs] is [xs] without its first [n] elements. *)
let rec drop n xs =
  if n <= 0 then xs else match xs with [] -> [] | _ :: tl -> drop (n - 1) tl

(** [span p xs] splits [xs] into the longest prefix satisfying [p] and the rest. *)
let span p xs =
  let rec go acc = function
    | x :: tl when p x -> go (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  go [] xs

(** Stable deduplication preserving first occurrences. *)
let dedup_stable (type a) (xs : a list) : a list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else (
        Hashtbl.add seen x ();
        true))
    xs

(** Round [n] up to the next multiple of [align] (a power of two or not). *)
let align_up n align = if align <= 1 then n else (n + align - 1) / align * align

(** Nearest-rank percentile over an already-sorted non-empty array: the
    sort-once companion to {!percentile} for callers taking several
    percentiles of one sample. *)
let percentile_sorted p (sorted : int array) =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Util.percentile_sorted: empty";
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  let rank = max 1 (min n rank) in
  sorted.(rank - 1)

(** Simple percentile over a non-empty list (nearest-rank).  Sorts per
    call; use {!percentile_sorted} when taking several percentiles of the
    same sample. *)
let percentile p xs =
  match xs with
  | [] -> invalid_arg "Util.percentile: empty"
  | _ ->
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      percentile_sorted p sorted

let mean xs =
  match xs with
  | [] -> invalid_arg "Util.mean: empty"
  | _ -> List.fold_left ( +. ) 0. (List.map float_of_int xs) /. float_of_int (List.length xs)

(** [timed_us count name f] runs [f].  When [count] is given, it also
    receives [name] and [f]'s wall time in microseconds; without it no
    clock is read. *)
let timed_us (count : (string -> int -> unit) option) name f =
  match count with
  | None -> f ()
  | Some add ->
      let t0 = Unix.gettimeofday () in
      let v = f () in
      add name (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
      v

(** FNV-1a 64-bit digest of a string.  Deterministic across runs and OCaml
    versions (unlike [Hashtbl.hash] on structured data), so it is safe to
    persist — the regression corpus uses it both to content-address entry
    files and to fingerprint the program a reproducer was recorded
    against.

    FNV-1a is a left fold over the bytes, so [fnv1a64_from (fnv1a64 a) b =
    fnv1a64 (a ^ b)]: a digest can be continued without building the
    concatenation.  The accumulator is a local [ref] that never escapes
    the loop, so the native compiler keeps it unboxed: hashing allocates
    nothing per byte. *)
let fnv1a64_from (h : int64) (s : string) : int64 =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let fnv1a64 (s : string) : int64 = fnv1a64_from 0xcbf29ce484222325L s

(** The word fold: [h] xor one 64-bit word, times an odd multiplier, then
    an xor-shift.  Both steps are bijections of the running hash, so two
    inputs that differ in exactly one word always fold differently. *)
let[@inline] fold_word (h : int64) (w : int64) : int64 =
  let x = Int64.mul (Int64.logxor h w) 0x100000001b3L in
  Int64.logxor x (Int64.shift_right_logical x 29)

(** [fold_words h b off n] folds the [n / 8] little-endian 8-byte words of
    [b] from [off] into [h] ([n] a multiple of 8).  One inline loop over a
    local [ref]: ocamlopt keeps the [int64] unboxed there, so the fold
    allocates nothing per word. *)
let fold_words (h : int64) (b : bytes) (off : int) (n : int) : int64 =
  let h = ref h in
  let i = ref off in
  let stop = off + n in
  while !i < stop do
    h := fold_word !h (Bytes.get_int64_le b !i);
    i := !i + 8
  done;
  !h

(** [word_hash b off n] checks [n] bytes of [b] from [off]: their whole
    8-byte words, then each tail byte as one word, then [n] itself, so
    every single-word change and every truncation changes the result. *)
let word_hash (b : bytes) (off : int) (n : int) : int64 =
  let whole = n land lnot 7 in
  let h = ref (fold_words 0xcbf29ce484222325L b off whole) in
  for i = off + whole to off + n - 1 do
    h := fold_word !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))
  done;
  fold_word !h (Int64.of_int n)

(** A deterministic 32-bit linear congruential generator, used wherever the
    library needs reproducible pseudo-randomness (workload inputs, synthetic
    harvester traces).  Numerical Recipes constants. *)
module Lcg = struct
  type t = { mutable state : int32 }

  let create seed = { state = Int32.of_int (seed land 0x7fffffff) }

  let next t =
    let s = Int32.add (Int32.mul t.state 1664525l) 1013904223l in
    t.state <- s;
    s

  (** [int t bound] is a pseudo-random int in [0, bound). *)
  let int t bound =
    if bound <= 0 then invalid_arg "Lcg.int: bound <= 0";
    let v = Int32.to_int (Int32.shift_right_logical (next t) 8) in
    v mod bound

  (** [float t] is a pseudo-random float in [0, 1). *)
  let float t = float_of_int (int t (1 lsl 24)) /. float_of_int (1 lsl 24)
end

(** A binary max-heap over float priorities with integer payloads, used by
    the greedy hitting set (lazy-deletion pattern: priorities that only ever
    decrease are revalidated at pop time). *)
module Fheap = struct
  type t = {
    mutable keys : float array;
    mutable vals : int array;
    mutable size : int;
  }

  let create () = { keys = Array.make 64 0.; vals = Array.make 64 0; size = 0 }

  let grow h =
    if h.size = Array.length h.keys then begin
      let nk = Array.make (2 * h.size) 0. and nv = Array.make (2 * h.size) 0 in
      Array.blit h.keys 0 nk 0 h.size;
      Array.blit h.vals 0 nv 0 h.size;
      h.keys <- nk;
      h.vals <- nv
    end

  let swap h i j =
    let k = h.keys.(i) and v = h.vals.(i) in
    h.keys.(i) <- h.keys.(j);
    h.vals.(i) <- h.vals.(j);
    h.keys.(j) <- k;
    h.vals.(j) <- v

  let push h key v =
    grow h;
    h.keys.(h.size) <- key;
    h.vals.(h.size) <- v;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) < h.keys.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let is_empty h = h.size = 0

  (** Pop the maximum; raises [Invalid_argument] when empty. *)
  let pop h =
    if h.size = 0 then invalid_arg "Fheap.pop: empty";
    let key = h.keys.(0) and v = h.vals.(0) in
    h.size <- h.size - 1;
    h.keys.(0) <- h.keys.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.size && h.keys.(l) > h.keys.(!m) then m := l;
      if r < h.size && h.keys.(r) > h.keys.(!m) then m := r;
      if !m <> !i then begin
        swap h !i !m;
        i := !m
      end
      else continue := false
    done;
    (key, v)
end

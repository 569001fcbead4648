(* Hierarchical structured spans. See span.mli for the model. *)

module J = Wario_support.Json

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  sp_name : string;
  sp_t0 : float;
  sp_dur : float;
  sp_track : int;
  sp_attrs : (string * value) list;
  sp_counters : (string * int) list;
  sp_children : span list;
}

(* An in-flight span: attrs/counters/children accumulate in reverse and are
   reversed once at close so first-set order is preserved cheaply. *)
type open_span = {
  o_name : string;
  o_t0 : float;
  mutable o_attrs_rev : (string * value) list;
  mutable o_counters_rev : (string * int) list;
  mutable o_children_rev : span list;
}

type t = {
  live : bool;
  track : int;
  mutable stack : open_span list; (* innermost first *)
  mutable roots_rev : span list;
}

let now_ms () = Unix.gettimeofday () *. 1000.

let create ?(track = 0) () =
  { live = true; track; stack = []; roots_rev = [] }

let disabled = { live = false; track = 0; stack = []; roots_rev = [] }
let is_enabled t = t.live

let close t (o : open_span) =
  let sp =
    {
      sp_name = o.o_name;
      sp_t0 = o.o_t0;
      sp_dur = Float.max 0. (now_ms () -. o.o_t0);
      sp_track = t.track;
      sp_attrs = List.rev o.o_attrs_rev;
      sp_counters = List.rev o.o_counters_rev;
      sp_children = List.rev o.o_children_rev;
    }
  in
  match t.stack with
  | [] -> t.roots_rev <- sp :: t.roots_rev
  | parent :: _ -> parent.o_children_rev <- sp :: parent.o_children_rev

let with_span ?(attrs = []) t name f =
  if not t.live then f ()
  else begin
    let o =
      {
        o_name = name;
        o_t0 = now_ms ();
        o_attrs_rev = List.rev attrs;
        o_counters_rev = [];
        o_children_rev = [];
      }
    in
    t.stack <- o :: t.stack;
    let finish () =
      (match t.stack with
      | top :: rest when top == o -> t.stack <- rest
      | _ ->
          (* unbalanced nesting can only happen if [f] tampered with the
             recorder; recover by popping down to [o] *)
          let rec pop () =
            match t.stack with
            | top :: rest ->
                t.stack <- rest;
                if top != o then (
                  close t top;
                  pop ())
            | [] -> ()
          in
          pop ());
      close t o
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let set_attr t key v =
  if t.live then
    match t.stack with
    | [] -> ()
    | o :: _ ->
        if List.mem_assoc key o.o_attrs_rev then
          o.o_attrs_rev <-
            List.map
              (fun (k, old) -> if k = key then (k, v) else (k, old))
              o.o_attrs_rev
        else o.o_attrs_rev <- (key, v) :: o.o_attrs_rev

let add_counter ?(by = 1) t key =
  if t.live then
    match t.stack with
    | [] -> ()
    | o :: _ -> (
        match List.assoc_opt key o.o_counters_rev with
        | Some _ ->
            o.o_counters_rev <-
              List.map
                (fun (k, old) -> if k = key then (k, old + by) else (k, old))
                o.o_counters_rev
        | None -> o.o_counters_rev <- (key, by) :: o.o_counters_rev)

let graft t spans =
  if t.live then
    match t.stack with
    | [] -> t.roots_rev <- List.rev_append spans t.roots_rev
    | o :: _ -> o.o_children_rev <- List.rev_append spans o.o_children_rev

let roots t = List.rev t.roots_rev

(* --- self-check ---------------------------------------------------- *)

(* Clock-granularity slack: gettimeofday ticks in microseconds, and every
   child start/stop pair can round against the parent by one tick. *)
let eps_window = 0.01 (* ms *)
let eps_sum nchildren = 0.01 +. (0.002 *. float_of_int nchildren)

exception Check_failed of string

let check (spans : span list) : (unit, string) result =
  let rec walk path sp =
    let path = path ^ "/" ^ sp.sp_name in
    if sp.sp_dur < 0. then
      raise (Check_failed (Printf.sprintf "%s: negative duration" path));
    let t1 = sp.sp_t0 +. sp.sp_dur in
    List.iter
      (fun c ->
        if
          c.sp_t0 < sp.sp_t0 -. eps_window
          || c.sp_t0 +. c.sp_dur > t1 +. eps_window
        then
          raise
            (Check_failed
               (Printf.sprintf
                  "%s: child %s [%.3f..%.3f] escapes parent window \
                   [%.3f..%.3f]"
                  path c.sp_name c.sp_t0
                  (c.sp_t0 +. c.sp_dur)
                  sp.sp_t0 t1)))
      sp.sp_children;
    (* per-track sums: same-track children ran sequentially on one domain,
       so their durations must fit inside the parent *)
    let by_track = Hashtbl.create 4 in
    List.iter
      (fun c ->
        let sum, count =
          Option.value ~default:(0., 0) (Hashtbl.find_opt by_track c.sp_track)
        in
        Hashtbl.replace by_track c.sp_track (sum +. c.sp_dur, count + 1))
      sp.sp_children;
    Hashtbl.iter
      (fun track (sum, count) ->
        if sum > sp.sp_dur +. eps_sum count then
          raise
            (Check_failed
               (Printf.sprintf
                  "%s: track %d children sum to %.3fms > parent %.3fms" path
                  track sum sp.sp_dur)))
      by_track;
    List.iter (walk path) sp.sp_children
  in
  try
    List.iter (walk "") spans;
    Ok ()
  with Check_failed msg -> Error msg

(* --- rendering ----------------------------------------------------- *)

let value_json = function
  | Int n -> string_of_int n
  | Float f -> J.float_repr f
  | Str s -> "\"" ^ J.escape s ^ "\""
  | Bool b -> if b then "true" else "false"

let args_json attrs counters =
  let fields =
    List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (J.escape k) (value_json v)) attrs
    @ List.map
        (fun (k, n) -> Printf.sprintf "\"%s\":%d" (J.escape k) n)
        counters
  in
  "{" ^ String.concat "," fields ^ "}"

let rec min_t0 acc sp =
  let acc = Float.min acc sp.sp_t0 in
  List.fold_left min_t0 acc sp.sp_children

let to_chrome_json ?(process_name = "wario") (spans : span list) : string =
  let base = List.fold_left min_t0 Float.max_float spans in
  let base = if base = Float.max_float then 0. else base in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
       (J.escape process_name));
  let rec emit sp =
    Buffer.add_string b ",";
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":%d,\"args\":%s}"
         (J.escape sp.sp_name)
         ((sp.sp_t0 -. base) *. 1000.)
         (sp.sp_dur *. 1000.) sp.sp_track
         (args_json sp.sp_attrs sp.sp_counters));
    List.iter emit sp.sp_children
  in
  List.iter emit spans;
  Buffer.add_string b "]}";
  Buffer.contents b

let to_jsonl (spans : span list) : string =
  let b = Buffer.create 4096 in
  let next_id = ref 0 in
  let rec emit parent sp =
    let id = !next_id in
    incr next_id;
    let parent_s =
      match parent with None -> "null" | Some p -> string_of_int p
    in
    Buffer.add_string b
      (Printf.sprintf
         "{\"span\":\"%s\",\"id\":%d,\"parent\":%s,\"track\":%d,\"t0_ms\":%s,\"dur_ms\":%s,\"attrs\":%s,\"counters\":%s}\n"
         (J.escape sp.sp_name) id parent_s sp.sp_track
         (J.float_repr sp.sp_t0) (J.float_repr sp.sp_dur)
         (args_json sp.sp_attrs [])
         ("{"
         ^ String.concat ","
             (List.map
                (fun (k, n) -> Printf.sprintf "\"%s\":%d" (J.escape k) n)
                sp.sp_counters)
         ^ "}"));
    List.iter (emit (Some id)) sp.sp_children
  in
  List.iter (emit None) spans;
  Buffer.contents b

(* The [--metrics] projection: every span named N folds into the timer
   [N.ms] and one counter [N.C] per counter C it carries. *)
type metric = Time_ms of float | Count of int

let to_metrics_jsonl (spans : span list) : string =
  let tbl = Hashtbl.create 64 and order = ref [] in
  let bump key v =
    match (Hashtbl.find_opt tbl key, v) with
    | None, _ ->
        Hashtbl.replace tbl key v;
        order := key :: !order
    | Some (Time_ms a), Time_ms b -> Hashtbl.replace tbl key (Time_ms (a +. b))
    | Some (Count a), Count b -> Hashtbl.replace tbl key (Count (a + b))
    | Some _, _ -> invalid_arg ("Span.to_metrics_jsonl: kind mismatch on " ^ key)
  in
  let rec walk sp =
    bump (sp.sp_name ^ ".ms") (Time_ms sp.sp_dur);
    List.iter (fun (c, n) -> bump (sp.sp_name ^ "." ^ c) (Count n)) sp.sp_counters;
    List.iter walk sp.sp_children
  in
  List.iter walk spans;
  let b = Buffer.create 4096 in
  List.iter
    (fun key ->
      let kind, value =
        match Hashtbl.find tbl key with
        | Count n -> ("count", string_of_int n)
        | Time_ms x -> ("time_ms", Printf.sprintf "%.3f" x)
      in
      Buffer.add_string b
        (Printf.sprintf "{\"metric\":\"%s\",\"kind\":\"%s\",\"value\":%s}\n"
           (J.escape key) kind value))
    (List.rev !order);
  Buffer.contents b

let of_jsonl (text : string) : (span list, string) result =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  let exception Bad of string in
  try
    let rows =
      List.mapi
        (fun i line ->
          match J.parse line with
          | Error e -> raise (Bad (Printf.sprintf "line %d: %s" (i + 1) e))
          | Ok doc ->
              let req name extract =
                match Option.bind (J.member name doc) extract with
                | Some v -> v
                | None ->
                    raise
                      (Bad
                         (Printf.sprintf "line %d: missing field %S" (i + 1)
                            name))
              in
              let attrs =
                match Option.bind (J.member "attrs" doc) J.obj_fields with
                | None -> []
                | Some fields ->
                    List.map
                      (fun (k, v) ->
                        ( k,
                          match v with
                          | J.Num f when Float.is_integer f ->
                              Int (int_of_float f)
                          | J.Num f -> Float f
                          | J.Str s -> Str s
                          | J.Bool b -> Bool b
                          | _ ->
                              raise
                                (Bad
                                   (Printf.sprintf
                                      "line %d: bad attr %S" (i + 1) k)) ))
                      fields
              in
              let counters =
                match Option.bind (J.member "counters" doc) J.obj_fields with
                | None -> []
                | Some fields ->
                    List.map
                      (fun (k, v) ->
                        match J.to_int v with
                        | Some n -> (k, n)
                        | None ->
                            raise
                              (Bad
                                 (Printf.sprintf "line %d: bad counter %S"
                                    (i + 1) k)))
                      fields
              in
              let parent =
                match J.member "parent" doc with
                | Some J.Null | None -> None
                | Some v -> (
                    match J.to_int v with
                    | Some p -> Some p
                    | None ->
                        raise (Bad (Printf.sprintf "line %d: bad parent" (i + 1))))
              in
              ( req "id" J.to_int,
                parent,
                {
                  sp_name = req "span" J.to_string;
                  sp_t0 = req "t0_ms" J.to_float;
                  sp_dur = req "dur_ms" J.to_float;
                  sp_track = req "track" J.to_int;
                  sp_attrs = attrs;
                  sp_counters = counters;
                  sp_children = [];
                } ))
        lines
    in
    (* preorder emission guarantees parents precede children, so a single
       reverse pass can build each subtree bottom-up *)
    let children : (int, span list) Hashtbl.t = Hashtbl.create 64 in
    let roots = ref [] in
    List.iter
      (fun (id, parent, sp) ->
        let sp =
          {
            sp with
            sp_children =
              Option.value ~default:[] (Hashtbl.find_opt children id);
          }
        in
        match parent with
        | None -> roots := sp :: !roots
        | Some p ->
            let siblings =
              Option.value ~default:[] (Hashtbl.find_opt children p)
            in
            Hashtbl.replace children p (sp :: siblings))
      (List.rev rows);
    (* every parent id must resolve to a seen row *)
    let ids = Hashtbl.create 64 in
    List.iter (fun (id, _, _) -> Hashtbl.replace ids id ()) rows;
    List.iter
      (fun (_, parent, _) ->
        match parent with
        | Some p when not (Hashtbl.mem ids p) ->
            raise (Bad (Printf.sprintf "dangling parent id %d" p))
        | _ -> ())
      rows;
    Ok !roots
  with Bad msg -> Error msg

(* Emulator execution tracing: typed events, sinks, and the Chrome
   trace-event renderer.  See trace.mli for the event schema. *)

module J = Wario_support.Json

type cause = Entry | Exit | Middle | Backend | Console

let string_of_cause = function
  | Entry -> "function-entry"
  | Exit -> "function-exit"
  | Middle -> "middle-end-war"
  | Backend -> "back-end-war"
  | Console -> "console"

let counted_cause = function Console -> false | _ -> true

type event =
  | Boot of {
      seq : int;
      restored : bool;
      boot_cost : int;
      restore_cost : int;
      func : string;
    }
  | Checkpoint of {
      cause : cause;
      pc : int;
      func : string;
      mask : int;
      bytes : int;
      cost : int;
    }
  | Power_failure of { lost_cycles : int }
  | Irq of { pc : int; func : string }
  | Func_transition of { from_func : string; to_func : string }
  | Halt of { exit_code : int32 }

type timed = { at : int; ev : event }

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)
(* ------------------------------------------------------------------ *)

(* The recording sink keeps events newest-first; a positive capacity is
   enforced lazily (truncate once the list doubles past it), so emission
   stays amortized O(1). *)
type recorder = {
  capacity : int;  (* 0 = unbounded *)
  mutable rev : timed list;  (* newest first *)
  mutable n : int;
  mutable lost : int;
}

type sink = Null | Rec of recorder

let null = Null

let ring ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Trace.ring: negative capacity";
  Rec { capacity; rev = []; n = 0; lost = 0 }

let enabled = function Null -> false | Rec _ -> true

let emit sink at ev =
  match sink with
  | Null -> ()
  | Rec r ->
      r.rev <- { at; ev } :: r.rev;
      r.n <- r.n + 1;
      if r.capacity > 0 && r.n >= 2 * r.capacity then begin
        r.rev <- Wario_support.Util.take r.capacity r.rev;
        r.lost <- r.lost + (r.n - r.capacity);
        r.n <- r.capacity
      end

let events = function
  | Null -> []
  | Rec r ->
      let evs = List.rev r.rev in
      if r.capacity > 0 && r.n > r.capacity then
        Wario_support.Util.drop (r.n - r.capacity) evs
      else evs

let length = function
  | Null -> 0
  | Rec r -> if r.capacity > 0 then min r.n r.capacity else r.n

let dropped = function
  | Null -> 0
  | Rec r ->
      if r.capacity > 0 && r.n > r.capacity then r.lost + (r.n - r.capacity)
      else r.lost

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                              *)
(* ------------------------------------------------------------------ *)

(* One trace-event object.  [ts]/[dur] are cycles rendered as µs. *)
let obj b ~first ~name ~cat ~ph ~ts ?dur ?(tid = 0) ?(extra = []) () =
  if not first then Buffer.add_string b ",\n";
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%d"
       (J.escape name) cat ph ts);
  (match dur with
  | Some d -> Buffer.add_string b (Printf.sprintf ",\"dur\":%d" d)
  | None -> ());
  Buffer.add_string b (Printf.sprintf ",\"pid\":1,\"tid\":%d" tid);
  if ph = "i" then Buffer.add_string b ",\"s\":\"g\"";
  (match extra with
  | [] -> ()
  | kvs ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v))
        kvs;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let json_str s = "\"" ^ J.escape s ^ "\""

let to_chrome_json ?(process_name = "wario-tm2") (evs : timed list) : string =
  let b = Buffer.create 65536 in
  Buffer.add_string b "[\n";
  let first = ref true in
  let put ~name ~cat ~ph ~ts ?dur ?tid ?extra () =
    obj b ~first:!first ~name ~cat ~ph ~ts ?dur ?tid ?extra ();
    first := false
  in
  (* metadata: process and the two tracks (0 = events, 1 = functions) *)
  if not !first then Buffer.add_string b ",\n";
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":%s}}"
       (json_str process_name));
  first := false;
  Buffer.add_string b
    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"events\"}}";
  Buffer.add_string b
    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"functions\"}}";
  (* the function track: slices between transitions/boots/halt *)
  let seg_start = ref 0 in
  let seg_func = ref None in
  let close_segment upto =
    (match !seg_func with
    | Some f when upto > !seg_start ->
        put ~name:f ~cat:"func" ~ph:"X" ~ts:!seg_start ~dur:(upto - !seg_start)
          ~tid:1 ()
    | _ -> ());
    seg_start := upto
  in
  List.iter
    (fun { at; ev } ->
      match ev with
      | Boot { seq; restored; boot_cost; restore_cost; func } ->
          close_segment (at - boot_cost - restore_cost);
          put ~name:"boot" ~cat:"power" ~ph:"X"
            ~ts:(at - boot_cost - restore_cost)
            ~dur:(boot_cost + restore_cost)
            ~extra:
              [
                ("seq", string_of_int seq);
                ("restored", if restored then "true" else "false");
                ("restore_cost", string_of_int restore_cost);
              ]
            ();
          seg_start := at;
          seg_func := Some func
      | Checkpoint { cause; pc; func; mask; bytes; cost } ->
          put ~name:"checkpoint" ~cat:"ckpt" ~ph:"X" ~ts:(at - cost) ~dur:cost
            ~extra:
              [
                ("cause", json_str (string_of_cause cause));
                ("pc", string_of_int pc);
                ("func", json_str func);
                ("mask", string_of_int mask);
                ("bytes", string_of_int bytes);
              ]
            ()
      | Power_failure { lost_cycles } ->
          close_segment at;
          seg_func := None;
          put ~name:"power-failure" ~cat:"power" ~ph:"i" ~ts:at
            ~extra:[ ("lost_cycles", string_of_int lost_cycles) ]
            ()
      | Irq { pc; func } ->
          put ~name:"irq" ~cat:"irq" ~ph:"i" ~ts:at
            ~extra:[ ("pc", string_of_int pc); ("func", json_str func) ]
            ()
      | Func_transition { from_func = _; to_func } ->
          close_segment at;
          seg_func := Some to_func
      | Halt { exit_code } ->
          close_segment at;
          seg_func := None;
          put ~name:"halt" ~cat:"power" ~ph:"i" ~ts:at
            ~extra:[ ("exit_code", Int32.to_string exit_code) ]
            ())
    evs;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

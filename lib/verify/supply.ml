(* Harvester-style power-supply models for the verification campaign.

   The random-fill schedules (Schedule.random_schedules) explore cut
   *positions*; they say nothing about the temporal texture of a real
   energy-harvesting source.  This module closes that gap: every model
   synthesizes a finite sequence of on-durations — an RF-style bursty
   profile, an indoor-solar profile, a two-state Markov (bursty) process,
   or a replayed trace file — scaled so the periods actually land inside
   the program under test, and reproducible byte-for-byte from an [int64]
   seed.

   Composition with the existing injection machinery is by construction:
   [supply] wraps the durations in [Power.Schedule], so power stays on once
   the synthesized window is exhausted and every injected run terminates —
   exactly the contract the crash-consistency oracle already relies on.
   (To model a *depleting* source instead, feed [durations] to
   [Power.Trace_once].) *)

module E = Wario_emulator

type model =
  | Rf  (** bursty RF-harvester profile (many short periods, rare long) *)
  | Solar  (** steadier indoor-solar profile (long, slowly varying) *)
  | Markov of int
      (** two-state bursty process; the payload is the percent chance of
          switching from the short-burst state to the long-window state
          after each period (the long state falls back with 50%) *)
  | File of string  (** on-durations replayed from a trace file *)

let name = function
  | Rf -> "rf"
  | Solar -> "solar"
  | Markov p -> Printf.sprintf "markov:%d" p
  | File path -> "file:" ^ path

let of_name (s : string) : (model, string) result =
  match String.split_on_char ':' s with
  | [ "rf" ] -> Ok Rf
  | [ "solar" ] -> Ok Solar
  | [ "markov" ] -> Ok (Markov 10)
  | [ "markov"; p ] -> (
      match int_of_string_opt p with
      | Some p when p >= 0 && p <= 100 -> Ok (Markov p)
      | _ -> Error (Printf.sprintf "markov: bad percentage %S" p))
  | "file" :: rest when rest <> [] ->
      (* the path may itself contain ':' *)
      Ok (File (String.concat ":" rest))
  | _ ->
      Error
        (Printf.sprintf
           "unknown supply model %S (rf | solar | markov[:PCT] | file:PATH)" s)

let builtin = [ Rf; Solar; Markov 10; Markov 40 ]

(* ------------------------------------------------------------------ *)
(* Trace files                                                          *)
(* ------------------------------------------------------------------ *)

(* One on-duration (in cycles) per line; blank lines and '#' comments are
   skipped.  This is the interchange format for measured harvester
   recordings (e.g. Mementos-style traces reduced to on-durations). *)

let load_file (path : string) : (int array, string) result =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let out = ref [] and lineno = ref 0 and err = ref None in
      (try
         while !err = None do
           let line = input_line ic in
           incr lineno;
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           let line = String.trim line in
           if line <> "" then
             match int_of_string_opt line with
             | Some d when d > 0 -> out := d :: !out
             | Some d ->
                 err :=
                   Some
                     (Printf.sprintf "%s:%d: non-positive on-duration %d" path
                        !lineno d)
             | None ->
                 err :=
                   Some
                     (Printf.sprintf "%s:%d: not an integer: %S" path !lineno
                        line)
         done
       with End_of_file -> ());
      close_in ic;
      (match !err with
      | Some e -> Error e
      | None -> (
          match !out with
          | [] -> Error (path ^ ": empty trace")
          | ds -> Ok (Array.of_list (List.rev ds))))

let save_file (path : string) (durations : int array) : unit =
  let oc = open_out path in
  output_string oc "# on-durations in active cycles, one per line\n";
  Array.iter (fun d -> Printf.fprintf oc "%d\n" d) durations;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Synthesis                                                            *)
(* ------------------------------------------------------------------ *)

(* Hard cap on synthesized periods: a pathological (mean_on, total) pair
   must not allocate without bound.  Past the cap the schedule simply
   ends — under [Power.Schedule] that means continuous power, so the run
   still terminates. *)
let max_periods = 16_384

(* Rescale a raw profile so its mean on-duration becomes [mean_on] (every
   period stays >= 1): harvester recordings are measured in real cycles of
   real benchmarks, while the program under test may be a thousand-cycle
   micro — only the *shape* of the distribution transfers. *)
let scale_to ~mean_on (raw : int array) : int array =
  let n = Array.length raw in
  let sum = Array.fold_left ( + ) 0 raw in
  let m = max 1 (sum / max 1 n) in
  Array.map (fun d -> max 1 (d * mean_on / m)) raw

(* Periods drawn from [next] until the cumulative on-time exceeds [total]
   (so the window spans the whole golden run) or the cap is hit. *)
let cover ~total (next : unit -> int) : int array =
  let out = ref [] and sum = ref 0 and k = ref 0 in
  while !sum <= total && !k < max_periods do
    let d = max 1 (next ()) in
    out := d :: !out;
    sum := !sum + d;
    incr k
  done;
  Array.of_list (List.rev !out)

let wrap_profile ~total (profile : int array) : int array =
  let n = Array.length profile in
  let i = ref 0 in
  cover ~total (fun () ->
      let d = profile.(!i mod n) in
      incr i;
      d)

(* Derive a 30-bit Lcg seed for the synthetic trace generators from the
   model's 64-bit seed, through the splitmix stream so that nearby seeds
   do not produce nearby profiles. *)
let lcg_seed (seed : int64) : int =
  Int64.to_int (Schedule.next_int64 (Schedule.of_seed seed)) land 0x3fffffff

let markov_durations ~p_long g ~mean_on ~total : int array =
  (* Two states sized around [mean_on]: short bursts a quarter of the
     target mean, long windows four times it — the RF regime's "device
     near the reader" alternation as a Markov chain. *)
  let on_short = max 1 (mean_on / 4) and on_long = max 2 (mean_on * 4) in
  let long = ref false in
  cover ~total (fun () ->
      let d =
        if !long then (on_long / 2) + 1 + Schedule.int g ~bound:on_long
        else 1 + Schedule.int g ~bound:(2 * on_short)
      in
      (if !long then begin
         if Schedule.int g ~bound:100 < 50 then long := false
       end
       else if Schedule.int g ~bound:100 < p_long then long := true);
      d)

let durations (model : model) ~seed ~mean_on ~total : int array =
  if mean_on < 1 then
    invalid_arg (Printf.sprintf "Supply.durations: mean_on %d < 1" mean_on);
  if total < 0 then
    invalid_arg (Printf.sprintf "Supply.durations: negative total %d" total);
  match model with
  | Rf ->
      wrap_profile ~total
        (scale_to ~mean_on (E.Traces.rf_trace ~seed:(lcg_seed seed) ~n:1024 ()))
  | Solar ->
      wrap_profile ~total
        (scale_to ~mean_on
           (E.Traces.solar_trace ~seed:(lcg_seed seed) ~n:512 ()))
  | Markov p_long ->
      markov_durations ~p_long (Schedule.of_seed seed) ~mean_on ~total
  | File path -> (
      match load_file path with
      | Error e -> invalid_arg ("Supply.durations: " ^ e)
      | Ok raw -> wrap_profile ~total (scale_to ~mean_on raw))

let supply (model : model) ~seed ~mean_on ~total : E.Power.supply =
  E.Power.Schedule (durations model ~seed ~mean_on ~total)

(* Deterministic parallel map over a pool of OCaml 5 domains.

   Work distribution is a single atomic cursor over an array of the input
   items: domains race to fetch-and-add the next index, so scheduling is
   dynamic (long items do not convoy short ones behind a static split),
   but every result lands in its input slot and the caller observes input
   order only.  Exceptions are captured per item and the lowest-indexed
   one is re-raised after the pool drains, which keeps failure behaviour
   independent of domain timing.

   Observability: with a live [?spans] recorder, the whole map is wrapped
   in a pool span and each worker contributes a child span on its own
   track (busy/idle milliseconds, item count) grafted at the join — the
   recorder itself is only ever touched by the calling domain. *)

module Span = Wario_obs.Span

let default_jobs () = Domain.recommended_domain_count ()
let now_ms () = Unix.gettimeofday () *. 1000.

(* A completed worker window: start/stop, items handled, busy milliseconds
   (sum of per-item wall time; idle = window - busy is pool ramp/drain). *)
let worker_span k (wt0, wt1, count, busy) : Span.span =
  let dur = Float.max 0. (wt1 -. wt0) in
  {
    Span.sp_name = "worker";
    sp_t0 = wt0;
    sp_dur = dur;
    sp_track = k + 1;
    sp_attrs =
      [
        ("worker", Span.Int k);
        ("busy_ms", Span.Float busy);
        ("idle_ms", Span.Float (Float.max 0. (dur -. busy)));
      ];
    sp_counters = [ ("items", count) ];
    sp_children = [];
  }

let map ?(jobs = 0) ?(spans = Span.disabled) ?(label = "exec.map")
    (f : 'a -> 'b) (items : 'a list) : 'b list =
  if jobs < 0 then
    invalid_arg (Printf.sprintf "Exec.map: jobs must be >= 0 (got %d)" jobs);
  (* jobs = 0: size the pool to the host.  On a single-core host this
     resolves to 1, i.e. the plain sequential path — a domain pool with
     no parallelism to buy only adds spawn/join overhead (a parallel
     harness sweep once clocked 0.87x on one CPU). *)
  let jobs = if jobs = 0 then default_jobs () else jobs in
  let instrument = Span.is_enabled spans in
  let run () =
    match items with
    | [] -> []
    | _ when jobs = 1 ->
        if instrument then begin
          let wt0 = now_ms () in
          let r = List.map f items in
          let wt1 = now_ms () in
          (* sequential: the whole window is busy *)
          Span.graft spans
            [ worker_span 0 (wt0, wt1, List.length items, wt1 -. wt0) ];
          r
        end
        else List.map f items
    | _ ->
        let arr = Array.of_list items in
        let n = Array.length arr in
        let results = Array.make n None in
        let cursor = Atomic.make 0 in
        let nworkers = min jobs n in
        let stats = Array.make nworkers None in
        let step i =
          let r =
            try Ok (f arr.(i))
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r
        in
        let worker k () =
          if instrument then begin
            let wt0 = now_ms () in
            let busy = ref 0. in
            let count = ref 0 in
            let rec loop () =
              let i = Atomic.fetch_and_add cursor 1 in
              if i < n then begin
                let s = now_ms () in
                step i;
                busy := !busy +. (now_ms () -. s);
                incr count;
                loop ()
              end
            in
            loop ();
            stats.(k) <- Some (wt0, now_ms (), !count, !busy)
          end
          else
            let rec loop () =
              let i = Atomic.fetch_and_add cursor 1 in
              if i < n then begin
                step i;
                loop ()
              end
            in
            loop ()
        in
        let spawned =
          List.init (nworkers - 1) (fun k -> Domain.spawn (worker (k + 1)))
        in
        (* the calling domain is a full pool member, not a passive joiner *)
        worker 0 ();
        List.iter Domain.join spawned;
        if instrument then
          Span.graft spans
            (Array.to_list stats
            |> List.mapi (fun k s -> Option.map (worker_span k) s)
            |> List.filter_map Fun.id);
        Array.to_list
          (Array.map
             (function
               | Some (Ok v) -> v
               | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
               | None ->
                   (* unreachable: the cursor hands every index to exactly one
                      worker, and joins above guarantee completion *)
                   assert false)
             results)
  in
  if instrument then
    Span.with_span spans
      ~attrs:
        [
          ("jobs", Span.Int jobs); ("items", Span.Int (List.length items));
        ]
      label run
  else run ()

let serialized (sink : 'a -> unit) : 'a -> unit =
  let m = Mutex.create () in
  fun x ->
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> sink x)

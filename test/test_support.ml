(* Tests for the support utilities: list helpers, statistics, the
   deterministic LCG and the float-keyed max-heap. *)

module U = Wario_support.Util

let test_list_helpers () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (U.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take beyond" [ 1 ] (U.take 5 [ 1 ]);
  Alcotest.(check (list int)) "take zero" [] (U.take 0 [ 1; 2 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (U.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop beyond" [] (U.drop 5 [ 1 ]);
  let pre, rest = U.span (fun x -> x < 3) [ 1; 2; 3; 1 ] in
  Alcotest.(check (list int)) "span pre" [ 1; 2 ] pre;
  Alcotest.(check (list int)) "span rest" [ 3; 1 ] rest;
  Alcotest.(check (list int)) "dedup keeps first" [ 3; 1; 2 ]
    (U.dedup_stable [ 3; 1; 3; 2; 1 ]);
  Alcotest.(check (option int)) "index_of" (Some 1)
    (U.list_index_of (fun x -> x = 5) [ 4; 5; 6 ]);
  Alcotest.(check (option int)) "index_of missing" None
    (U.list_index_of (fun x -> x = 9) [ 4; 5; 6 ])

let test_align_up () =
  Alcotest.(check int) "already aligned" 8 (U.align_up 8 4);
  Alcotest.(check int) "rounds up" 12 (U.align_up 9 4);
  Alcotest.(check int) "align 1" 9 (U.align_up 9 1);
  Alcotest.(check int) "align 0" 9 (U.align_up 9 0)

let test_stats () =
  let xs = [ 5; 1; 4; 2; 3 ] in
  Alcotest.(check int) "median" 3 (U.percentile 50. xs);
  Alcotest.(check int) "p100" 5 (U.percentile 100. xs);
  Alcotest.(check int) "p1" 1 (U.percentile 1. xs);
  Alcotest.(check (float 0.001)) "mean" 3.0 (U.mean xs);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Util.percentile: empty") (fun () ->
      ignore (U.percentile 50. []))

let test_lcg () =
  let a = U.Lcg.create 7 and b = U.Lcg.create 7 in
  let xs = List.init 20 (fun _ -> U.Lcg.int a 1000) in
  let ys = List.init 20 (fun _ -> U.Lcg.int b 1000) in
  Alcotest.(check (list int)) "deterministic" xs ys;
  Alcotest.(check bool) "in range" true (List.for_all (fun x -> x >= 0 && x < 1000) xs);
  let c = U.Lcg.create 8 in
  let zs = List.init 20 (fun _ -> U.Lcg.int c 1000) in
  Alcotest.(check bool) "different seeds differ" true (xs <> zs);
  let f = U.Lcg.float (U.Lcg.create 1) in
  Alcotest.(check bool) "float in [0,1)" true (f >= 0. && f < 1.)

let test_fheap () =
  let h = U.Fheap.create () in
  Alcotest.(check bool) "empty" true (U.Fheap.is_empty h);
  List.iteri (fun i k -> U.Fheap.push h k i) [ 3.; 1.; 4.; 1.5; 9.; 2.6 ];
  let order = ref [] in
  while not (U.Fheap.is_empty h) do
    let k, _ = U.Fheap.pop h in
    order := k :: !order
  done;
  Alcotest.(check (list (float 0.0))) "pops in descending order"
    [ 1.; 1.5; 2.6; 3.; 4.; 9. ]
    !order;
  Alcotest.check_raises "pop empty" (Invalid_argument "Fheap.pop: empty")
    (fun () -> ignore (U.Fheap.pop h))

let test_fheap_growth () =
  let h = U.Fheap.create () in
  (* force several growth cycles and verify the heap property end to end *)
  let rng = U.Lcg.create 99 in
  let n = 1000 in
  for _ = 1 to n do
    U.Fheap.push h (float_of_int (U.Lcg.int rng 10000)) 0
  done;
  let last = ref infinity in
  let count = ref 0 in
  while not (U.Fheap.is_empty h) do
    let k, _ = U.Fheap.pop h in
    Alcotest.(check bool) "monotone" true (k <= !last);
    last := k;
    incr count
  done;
  Alcotest.(check int) "all popped" n !count

let test_fold_range () =
  Alcotest.(check int) "sum 0..9" 45 (U.fold_range (fun a i -> a + i) 0 0 10);
  Alcotest.(check int) "empty range" 7 (U.fold_range (fun a i -> a + i) 7 5 5)

(* The standard FNV-1a 64-bit test vectors, and the left-fold identity
   that cache keys and corpus fingerprints rely on. *)
let test_fnv1a64 () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check string)
        (Printf.sprintf "fnv1a64 %S" s)
        want
        (Printf.sprintf "%016Lx" (U.fnv1a64 s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8") ];
  Alcotest.(check string)
    "continuing a digest = digesting the concatenation" "7df7e94bfdde9aee"
    (Printf.sprintf "%016Lx" (U.fnv1a64_from (U.fnv1a64 "xyz") "\x02wario-key"))

let suite =
  [
    Alcotest.test_case "fnv1a64 vectors" `Quick test_fnv1a64;
    Alcotest.test_case "list helpers" `Quick test_list_helpers;
    Alcotest.test_case "align_up" `Quick test_align_up;
    Alcotest.test_case "percentile/mean" `Quick test_stats;
    Alcotest.test_case "lcg determinism" `Quick test_lcg;
    Alcotest.test_case "fheap ordering" `Quick test_fheap;
    Alcotest.test_case "fheap growth" `Quick test_fheap_growth;
    Alcotest.test_case "fold_range" `Quick test_fold_range;
  ]

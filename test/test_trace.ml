open Colayout_trace
module U = Colayout_util

let check = Alcotest.check

let test_trace_basics () =
  let t = Trace.of_list ~num_symbols:5 [ 0; 1; 1; 2; 4 ] in
  check Alcotest.int "length" 5 (Trace.length t);
  check Alcotest.int "get" 2 (Trace.get t 3);
  check Alcotest.int "distinct" 4 (Trace.distinct_count t);
  check (Alcotest.array Alcotest.int) "occurrences" [| 1; 2; 1; 0; 1 |] (Trace.occurrences t);
  check (Alcotest.array Alcotest.int) "first occ" [| 0; 1; 3; -1; 4 |] (Trace.first_occurrence t);
  Alcotest.check_raises "push oob" (Invalid_argument "Trace.push: symbol 5 out of [0,5)")
    (fun () -> Trace.push t 5)

let test_distinct_count_incremental () =
  (* The cached count must stay exact as pushes interleave with queries:
     query materializes the occurrence cache, then push maintains it
     incrementally (a stale cache would undercount new symbols or keep
     counting repeats). *)
  let t = Trace.create ~num_symbols:6 () in
  check Alcotest.int "empty" 0 (Trace.distinct_count t);
  Trace.push t 2;
  Trace.push t 2;
  check Alcotest.int "one distinct after repeats" 1 (Trace.distinct_count t);
  Trace.push t 0;
  check Alcotest.int "push after query is counted" 2 (Trace.distinct_count t);
  Trace.push t 0;
  Trace.push t 5;
  check Alcotest.int "repeat not double-counted" 3 (Trace.distinct_count t);
  check (Alcotest.array Alcotest.int) "occurrences track pushes" [| 2; 0; 2; 0; 0; 1 |]
    (Trace.occurrences t);
  (* The cross-check the seed computed from scratch every call. *)
  let reference = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 (Trace.occurrences t) in
  check Alcotest.int "agrees with full recount" reference (Trace.distinct_count t);
  (* Queries never freeze the trace: a never-queried trace and a
     queried-then-extended trace agree. *)
  let fresh = Trace.of_list ~num_symbols:6 (Trace.to_list t) in
  check Alcotest.int "matches never-queried trace" (Trace.distinct_count fresh)
    (Trace.distinct_count t)

let test_trim () =
  let t = Trace.of_list ~num_symbols:4 [ 0; 0; 1; 1; 1; 2; 1; 1; 0 ] in
  let trimmed = Trim.trim t in
  check (Alcotest.list Alcotest.int) "trimmed" [ 0; 1; 2; 1; 0 ] (Trace.to_list trimmed);
  check Alcotest.bool "is_trimmed" true (Trim.is_trimmed trimmed);
  check Alcotest.bool "original not trimmed" false (Trim.is_trimmed t);
  (* Idempotent. *)
  check Alcotest.bool "idempotent" true (Trace.equal trimmed (Trim.trim trimmed))

let trim_prop =
  QCheck.Test.make ~name:"trim removes exactly consecutive duplicates" ~count:200
    QCheck.(list (int_bound 5))
    (fun xs ->
      let t = Trace.of_list ~num_symbols:6 xs in
      let trimmed = Trim.trim t in
      Trim.is_trimmed trimmed
      &&
      (* Re-expanding: trimmed is the subsequence of xs with runs collapsed. *)
      let rec collapse = function
        | [] -> []
        | [ x ] -> [ x ]
        | x :: (y :: _ as rest) -> if x = y then collapse rest else x :: collapse rest
      in
      Trace.to_list trimmed = collapse xs)

let test_prune () =
  let t = Trace.of_list ~num_symbols:5 [ 0; 1; 0; 2; 0; 1; 3; 0; 1 ] in
  let pruned, report = Prune.prune t ~top:2 in
  (* Hot: 0 (4 times), 1 (3 times). *)
  check (Alcotest.list Alcotest.int) "pruned" [ 0; 1; 0; 0; 1; 0; 1 ] (Trace.to_list pruned);
  check Alcotest.int "kept symbols" 2 report.Prune.kept_symbols;
  check Alcotest.int "total symbols" 4 report.Prune.total_symbols;
  check Alcotest.int "kept events" 7 report.Prune.kept_events;
  check (Alcotest.float 1e-9) "coverage" (7.0 /. 9.0) report.Prune.coverage

let test_prune_hot_symbols_deterministic_ties () =
  let t = Trace.of_list ~num_symbols:4 [ 3; 2; 1; 0 ] in
  (* All counts equal: ties break toward smaller id. *)
  check (Alcotest.array Alcotest.int) "ties" [| 0; 1 |] (Prune.hot_symbols t ~top:2)

let test_prune_top_larger_than_universe () =
  let t = Trace.of_list ~num_symbols:3 [ 0; 1 ] in
  let pruned, report = Prune.prune t ~top:100 in
  check Alcotest.bool "identity" true (Trace.equal t pruned);
  check (Alcotest.float 1e-9) "full coverage" 1.0 report.Prune.coverage

let test_lru_stack () =
  let s = Lru_stack.create () in
  check (Alcotest.option Alcotest.int) "first access" None (Lru_stack.access s 1);
  check (Alcotest.option Alcotest.int) "second symbol" None (Lru_stack.access s 2);
  (* Depth of 1 is now 2 (2 is on top). *)
  check (Alcotest.option Alcotest.int) "reaccess 1" (Some 2) (Lru_stack.access s 1);
  check (Alcotest.list Alcotest.int) "contents MRU first" [ 1; 2 ] (Lru_stack.contents s);
  check (Alcotest.option Alcotest.int) "immediate reuse" (Some 1) (Lru_stack.access s 1);
  check Alcotest.int "depth" 2 (Lru_stack.depth s);
  check (Alcotest.list Alcotest.int) "top_k" [ 1 ] (Lru_stack.top_k s ~k:1);
  check (Alcotest.option Alcotest.int) "position" (Some 1) (Lru_stack.position s 2)

let lru_stack_matches_naive =
  QCheck.Test.make ~name:"lru stack distance matches naive distinct count" ~count:100
    QCheck.(list (int_bound 8))
    (fun xs ->
      let s = Lru_stack.create () in
      let seen = ref [] in
      List.for_all
        (fun x ->
          let expected =
            match List.find_index (fun y -> y = x) !seen with
            | None -> None
            | Some _ ->
              (* distinct symbols at positions before first occurrence of x in
                 the recency list, plus one for x itself *)
              let rec depth acc = function
                | [] -> None
                | y :: rest -> if y = x then Some (acc + 1) else depth (acc + 1) rest
              in
              depth 0 !seen
          in
          let got = Lru_stack.access s x in
          seen := x :: List.filter (fun y -> y <> x) !seen;
          got = expected)
        xs)

let test_histogram () =
  let h = Histogram.create () in
  Histogram.add h 3;
  Histogram.add h 3;
  Histogram.add_many h 1 5;
  Histogram.add_infinite h;
  check Alcotest.int "count" 2 (Histogram.count h 3);
  check Alcotest.int "total" 8 (Histogram.total h);
  check Alcotest.int "finite" 7 (Histogram.finite_total h);
  check Alcotest.int "infinite" 1 (Histogram.infinite h);
  check Alcotest.int "max bin" 3 (Histogram.max_bin h);
  check Alcotest.int "cumulative" 5 (Histogram.cumulative_at h 2);
  check (Alcotest.float 1e-9) "mean" ((5.0 +. 6.0) /. 7.0) (Histogram.mean h);
  check Alcotest.int "median bin" 1 (Histogram.quantile h ~q:0.5);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "sorted" [ (1, 5); (3, 2) ]
    (Histogram.to_sorted_list h)

let test_stack_dist_small () =
  let t = Trace.of_list ~num_symbols:3 [ 0; 1; 0; 2; 0 ] in
  let r = Stack_dist.run t in
  check Alcotest.int "accesses" 5 r.Stack_dist.accesses;
  check Alcotest.int "distinct" 3 r.Stack_dist.distinct;
  check Alcotest.int "cold accesses" 3 (Histogram.infinite r.Stack_dist.distances);
  (* 0 reused over {1} then over {2}: distances 1 and 1. *)
  check Alcotest.int "distance-1 count" 2 (Histogram.count r.Stack_dist.distances 1);
  (* Reuse times: positions 2-0=2 and 4-2=2. *)
  check Alcotest.int "reuse time 2" 2 (Histogram.count r.Stack_dist.reuse_times 2)

let stack_dist_matches_naive =
  QCheck.Test.make ~name:"tree stack distances match quadratic reference" ~count:60
    QCheck.(list (int_bound 10))
    (fun xs ->
      let t = Trace.of_list ~num_symbols:11 xs in
      let r = Stack_dist.run t in
      let naive = Stack_dist.distances_naive t in
      let h = Histogram.create () in
      Array.iter
        (function None -> Histogram.add_infinite h | Some d -> Histogram.add h d)
        naive;
      Histogram.to_sorted_list h = Histogram.to_sorted_list r.Stack_dist.distances
      && Histogram.infinite h = Histogram.infinite r.Stack_dist.distances)

let miss_ratio_matches_cache_sim =
  QCheck.Test.make
    ~name:"stack-distance miss ratio equals fully-associative LRU simulation" ~count:60
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(return 200) (int_bound 12)))
    (fun (capacity, xs) ->
      QCheck.assume (xs <> []);
      let t = Trace.of_list ~num_symbols:13 xs in
      let r = Stack_dist.run t in
      let cache = Colayout_cache.Fully_assoc.create ~capacity in
      let misses = ref 0 in
      List.iter (fun x -> if not (Colayout_cache.Fully_assoc.access_line cache x) then incr misses) xs;
      let expected = float_of_int !misses /. float_of_int (List.length xs) in
      abs_float (Stack_dist.miss_ratio_at r ~capacity -. expected) < 1e-9)

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "distinct_count cache stays exact" `Quick
            test_distinct_count_incremental;
        ] );
      ( "trim",
        [
          Alcotest.test_case "trim" `Quick test_trim;
          QCheck_alcotest.to_alcotest trim_prop;
        ] );
      ( "prune",
        [
          Alcotest.test_case "prune" `Quick test_prune;
          Alcotest.test_case "tie break" `Quick test_prune_hot_symbols_deterministic_ties;
          Alcotest.test_case "top > universe" `Quick test_prune_top_larger_than_universe;
        ] );
      ( "lru_stack",
        [
          Alcotest.test_case "basics" `Quick test_lru_stack;
          QCheck_alcotest.to_alcotest lru_stack_matches_naive;
        ] );
      ("histogram", [ Alcotest.test_case "basics" `Quick test_histogram ]);
      ( "stack_dist",
        [
          Alcotest.test_case "small" `Quick test_stack_dist_small;
          QCheck_alcotest.to_alcotest stack_dist_matches_naive;
          QCheck_alcotest.to_alcotest miss_ratio_matches_cache_sim;
        ] );
    ]

(* silence unused-module warning for U *)
let _ = U.Stats.mean

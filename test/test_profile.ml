(* The profiling subsystem end to end: differential attribution (a sink
   wired through a whole simulation must agree exactly with Cache_stats,
   solo and co-run, at any jobs count), decision tracing (pay-as-you-go,
   every optimizer placement accounted for, JSONL export), and the
   colayout/profile/v1 artifact builder. *)

open Colayout_cache
module Core = Colayout
module H = Colayout_harness
module U = Colayout_util
module T = Colayout_trace

let check = Alcotest.check

let prog = "429.mcf"

let classification_sums sink =
  check Alcotest.int "cold + capacity + conflict = misses" (Profile_sink.misses sink)
    (Profile_sink.cold_misses sink + Profile_sink.capacity_misses sink
   + Profile_sink.conflict_misses sink)

let block_sums sink =
  let rows = Profile_sink.block_rows sink in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  check Alcotest.int "per-block accesses sum to total" (Profile_sink.accesses sink)
    (sum (fun r -> r.Profile_sink.b_accesses));
  check Alcotest.int "per-block misses sum to total" (Profile_sink.misses sink)
    (sum (fun r -> r.Profile_sink.b_misses));
  check Alcotest.int "per-block evictions sum to total" (Profile_sink.evictions sink)
    (sum (fun r -> r.Profile_sink.b_evictions))

let test_solo_differential () =
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let stats, sink = H.Ctx.profiled_solo ctx ~hw:false prog Core.Optimizer.Original in
  check Alcotest.int "accesses" (Cache_stats.accesses stats) (Profile_sink.accesses sink);
  check Alcotest.int "misses" (Cache_stats.misses stats) (Profile_sink.misses sink);
  check Alcotest.int "evictions" (Cache_stats.evictions stats) (Profile_sink.evictions sink);
  check Alcotest.bool "some misses happened" true (Profile_sink.misses sink > 0);
  classification_sums sink;
  block_sums sink;
  (* ctx.profile.* counters published. *)
  let counters = U.Metrics.counters (H.Ctx.metrics ctx) in
  check (Alcotest.option Alcotest.int) "ctx.profile.runs" (Some 1)
    (List.assoc_opt "ctx.profile.runs" counters);
  check (Alcotest.option Alcotest.int) "ctx.profile.misses"
    (Some (Profile_sink.misses sink))
    (List.assoc_opt "ctx.profile.misses" counters)

let test_corun_differential () =
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let stats, sink =
    H.Ctx.profiled_corun ctx ~hw:false
      ~self:(prog, Core.Optimizer.Original)
      ~peer:(prog, Core.Optimizer.Original)
  in
  check Alcotest.int "accesses" (Cache_stats.accesses stats) (Profile_sink.accesses sink);
  check Alcotest.int "misses" (Cache_stats.misses stats) (Profile_sink.misses sink);
  check Alcotest.int "evictions" (Cache_stats.evictions stats) (Profile_sink.evictions sink);
  classification_sums sink;
  block_sums sink;
  (* Per-thread attribution matches the per-thread stats exactly. *)
  let rows = Profile_sink.block_rows sink in
  let thread_sum th f =
    List.fold_left
      (fun acc r -> if r.Profile_sink.thread = th then acc + f r else acc)
      0 rows
  in
  List.iter
    (fun th ->
      check Alcotest.int
        (Printf.sprintf "thread %d accesses" th)
        (Cache_stats.thread_accesses stats th)
        (thread_sum th (fun r -> r.Profile_sink.b_accesses));
      check Alcotest.int
        (Printf.sprintf "thread %d misses" th)
        (Cache_stats.thread_misses stats th)
        (thread_sum th (fun r -> r.Profile_sink.b_misses)))
    [ 0; 1 ]

let test_jobs_invariance () =
  (* The attribution is a pure function of the simulation inputs: a pooled
     context (jobs=4) must produce row-for-row identical attribution to a
     sequential one. *)
  let run jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let ctx = H.Ctx.create ~scale:H.Ctx.Fast ~pool () in
        let stats, sink = H.Ctx.profiled_solo ctx ~hw:false prog Core.Optimizer.Bb_affinity in
        check Alcotest.int "accesses agree" (Cache_stats.accesses stats)
          (Profile_sink.accesses sink);
        check Alcotest.int "misses agree" (Cache_stats.misses stats)
          (Profile_sink.misses sink);
        Profile_sink.block_rows sink)
  in
  let r1 = run 1 and r4 = run 4 in
  check Alcotest.bool "attribution identical at jobs 1 and 4" true (r1 = r4)

let test_decision_trace_unit () =
  (* None sink: a no-op, by contract. *)
  Core.Decision_trace.emit None ~stage:"s" ~action:"a" ();
  let d = Core.Decision_trace.create () in
  check Alcotest.int "empty" 0 (Core.Decision_trace.count d);
  Core.Decision_trace.emit (Some d) ~stage:"s" ~action:"a" ~x:1 ~weight:3 ();
  Core.Decision_trace.emit (Some d) ~stage:"s" ~action:"b" ();
  Core.Decision_trace.emit (Some d) ~stage:"t" ~action:"a" ~x:2 ~y:1 ~group:0 ~size:2 ();
  check Alcotest.int "count" 3 (Core.Decision_trace.count d);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counts by action"
    [ ("s.a", 1); ("s.b", 1); ("t.a", 1) ]
    (Core.Decision_trace.counts_by_action d);
  let steps = List.map (fun e -> e.Core.Decision_trace.step) (Core.Decision_trace.events d) in
  check (Alcotest.list Alcotest.int) "steps sequential" [ 0; 1; 2 ] steps;
  let lines =
    String.split_on_char '\n' (Core.Decision_trace.to_jsonl d)
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per event" 3 (List.length lines);
  let first = U.Json.parse (List.hd lines) in
  check
    (Alcotest.option Alcotest.string)
    "schema on first line" (Some "colayout/decisions/v1")
    (Option.bind (U.Json.member "schema" first) U.Json.to_str);
  (* Absent (-1) fields are omitted from the JSON, present ones kept. *)
  check (Alcotest.option Alcotest.int) "x kept" (Some 1)
    (Option.bind (U.Json.member "x" first) U.Json.to_int);
  check Alcotest.bool "y omitted" true (U.Json.member "y" first = None)

let test_pettis_hansen_decisions () =
  let g =
    Core.Pettis_hansen.graph_of_edges ~num_funcs:4 [ (0, 1, 10); (1, 2, 5); (2, 3, 2) ]
  in
  let d = Core.Decision_trace.create () in
  let order = Core.Pettis_hansen.order ~decisions:d g in
  check Alcotest.int "three chain merges" 3 (Core.Decision_trace.count d);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "all chain-merge"
    [ ("pettis-hansen.chain-merge", 3) ]
    (Core.Decision_trace.counts_by_action d);
  (* Tracing must not perturb the result. *)
  check (Alcotest.list Alcotest.int) "order unchanged" (Core.Pettis_hansen.order g) order;
  (* The heaviest edge drives the first merge. *)
  match Core.Decision_trace.events d with
  | e :: _ -> check Alcotest.int "first merge weight" 10 e.Core.Decision_trace.weight
  | [] -> Alcotest.fail "no events"

let test_trg_reduce_decisions () =
  let tr = T.Trim.trim (T.Trace.of_list ~num_symbols:4 [ 0; 1; 0; 1; 2; 3; 2; 3 ]) in
  let trg = Core.Trg.build ~window:4 tr in
  let d = Core.Decision_trace.create () in
  let r = Core.Trg_reduce.reduce ~decisions:d trg ~slots:2 in
  (* Exactly one place/merge event per placed block. *)
  check Alcotest.int "one event per placement"
    (List.length r.Core.Trg_reduce.order)
    (Core.Decision_trace.count d);
  let undecided = Core.Trg_reduce.reduce trg ~slots:2 in
  check Alcotest.bool "order unchanged by tracing" true
    (r.Core.Trg_reduce.order = undecided.Core.Trg_reduce.order)

let test_affinity_decisions () =
  (* The paper's worked example trace. *)
  let tr = T.Trim.trim (T.Trace.of_list ~num_symbols:5 [ 0; 3; 1; 3; 1; 2; 4; 0; 3 ]) in
  let d = Core.Decision_trace.create () in
  let h = Core.Affinity_hierarchy.build ~decisions:d tr in
  check Alcotest.bool "some decisions" true (Core.Decision_trace.count d > 0);
  List.iter
    (fun e -> check Alcotest.string "stage" "affinity" e.Core.Decision_trace.stage)
    (Core.Decision_trace.events d);
  check
    (Alcotest.list Alcotest.int)
    "order unchanged by tracing"
    (Core.Affinity_hierarchy.order (Core.Affinity_hierarchy.build tr))
    (Core.Affinity_hierarchy.order h)

(* --- interference attribution ---------------------------------------- *)

(* A 2-set direct-mapped cache driven by hand, so every matrix cell is
   predictable: lines 0/2 collide in set 0 across threads, lines 1/3
   collide in set 1 within thread 0. *)
let interference_toy () =
  let p = Params.make ~size_bytes:128 ~assoc:1 ~line_bytes:64 in
  let c = Set_assoc.create p in
  let stats = Cache_stats.create ~threads:2 () in
  let sink = Profile_sink.create ~threads:2 ~params:p () in
  List.iter
    (fun (th, l) -> ignore (Icache.access ~sink c stats ~thread:th ~block:l l))
    [ (0, 0); (1, 2); (0, 0); (1, 2); (0, 1); (0, 3); (0, 1) ];
  sink

let test_interference_toy () =
  let sink = interference_toy () in
  check (Alcotest.list Alcotest.int) "first misses" [ 3; 1 ]
    (Array.to_list (Profile_sink.first_misses sink));
  let rows m = List.map Array.to_list (Array.to_list m) in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "eviction matrix (evictor x owner)"
    [ [ 2; 1 ]; [ 2; 0 ] ]
    (rows (Profile_sink.ev_matrix sink));
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "miss matrix (misser x last evictor)"
    [ [ 1; 1 ]; [ 1; 0 ] ]
    (rows (Profile_sink.miss_matrix sink));
  check Alcotest.int "suffered 0" 1 (Profile_sink.suffered_misses sink ~thread:0);
  check Alcotest.int "inflicted 0" 1 (Profile_sink.inflicted_misses sink ~thread:0);
  check (Alcotest.float 1e-9) "defensiveness 0" 0.8
    (Profile_sink.defensiveness sink ~thread:0);
  check (Alcotest.float 1e-9) "politeness 0" 0.5 (Profile_sink.politeness sink ~thread:0);
  check (Alcotest.float 1e-9) "defensiveness 1" 0.5
    (Profile_sink.defensiveness sink ~thread:1);
  check (Alcotest.float 1e-9) "politeness 1" 0.8 (Profile_sink.politeness sink ~thread:1);
  (* Set 0 saw only cross-thread evictions, set 1 only self-evictions. *)
  check Alcotest.int "set 0 cross evictions" 3
    (Profile_sink.set_cross_evictions sink ~set:0);
  check Alcotest.int "set 1 cross evictions" 0
    (Profile_sink.set_cross_evictions sink ~set:1)

let test_interference_conservation () =
  (* A real co-run: the matrices must partition the simulator's totals —
     interference_json enforces this and must not raise. *)
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let stats, sink =
    H.Ctx.profiled_corun ctx ~hw:false
      ~self:(prog, Core.Optimizer.Bb_affinity)
      ~peer:("445.gobmk", Core.Optimizer.Original)
  in
  let ev = Profile_sink.ev_matrix sink in
  let sum2 = Array.fold_left (fun a r -> Array.fold_left ( + ) a r) 0 in
  check Alcotest.int "ev matrix sums to evictions" (Cache_stats.evictions stats) (sum2 ev);
  Array.iteri
    (fun th row ->
      check Alcotest.int
        (Printf.sprintf "thread %d eviction row" th)
        (Profile_sink.thread_evictions sink th)
        (Array.fold_left ( + ) 0 row))
    ev;
  let ms = Profile_sink.miss_matrix sink and first = Profile_sink.first_misses sink in
  List.iter
    (fun th ->
      check Alcotest.int
        (Printf.sprintf "thread %d miss partition" th)
        (Cache_stats.thread_misses stats th)
        (Array.fold_left ( + ) first.(th) ms.(th)))
    [ 0; 1 ];
  let json = Profile.interference_json ~label:"t" ~sink ~stats in
  ignore (U.Json.parse (U.Json.to_string json))

let test_interference_conservation_hw () =
  (* Hardware-like mode: next-line prefetch fills evict lines too. Each
     fill's victim reaches the sink as an eviction by the prefetching
     thread, so the matrices still partition the simulator's totals, and
     the sink still leaves the simulation untouched. *)
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let self = (prog, Core.Optimizer.Original) and peer = ("403.gcc", Core.Optimizer.Original) in
  let stats, sink = H.Ctx.profiled_corun ctx ~hw:true ~self ~peer in
  check Alcotest.bool "prefetches issued" true (Cache_stats.prefetches stats > 0);
  ignore (Profile.interference_json ~label:"hw" ~sink ~stats);
  check Alcotest.int "sink evictions" (Cache_stats.evictions stats) (Profile_sink.evictions sink);
  let bare = H.Ctx.corun_stats ctx ~hw:true ~self ~peer in
  let key s =
    Cache_stats.
      ( accesses s,
        misses s,
        evictions s,
        prefetches s,
        (thread_accesses s 0, thread_misses s 0, thread_accesses s 1, thread_misses s 1) )
  in
  check Alcotest.bool "stats equal the sink-free run" true (key bare = key stats)

let test_interference_json_mismatch () =
  let sink = interference_toy () in
  match Profile.interference_json ~label:"bad" ~sink ~stats:(Cache_stats.create ~threads:2 ()) with
  | _ -> Alcotest.fail "expected Invalid_argument on conservation mismatch"
  | exception Invalid_argument _ -> ()

let test_sink_transparent () =
  (* Attaching the observatory must not perturb the simulation: the
     profiled and unprofiled twins agree on every counter. *)
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let self = (prog, Core.Optimizer.Bb_affinity)
  and peer = ("445.gobmk", Core.Optimizer.Original) in
  let stats, _ = H.Ctx.profiled_corun ctx ~hw:false ~self ~peer in
  let bare = H.Ctx.corun_stats ctx ~hw:false ~self ~peer in
  check Alcotest.int "accesses" (Cache_stats.accesses bare) (Cache_stats.accesses stats);
  check Alcotest.int "misses" (Cache_stats.misses bare) (Cache_stats.misses stats);
  check Alcotest.int "evictions" (Cache_stats.evictions bare) (Cache_stats.evictions stats);
  List.iter
    (fun th ->
      check Alcotest.int
        (Printf.sprintf "thread %d accesses" th)
        (Cache_stats.thread_accesses bare th)
        (Cache_stats.thread_accesses stats th);
      check Alcotest.int
        (Printf.sprintf "thread %d misses" th)
        (Cache_stats.thread_misses bare th)
        (Cache_stats.thread_misses stats th))
    [ 0; 1 ]

(* A Cache_stats whose totals agree with the sink, for artifact tests. *)
let stats_matching sink =
  let s = Cache_stats.create () in
  for _ = 1 to Profile_sink.misses sink do
    Cache_stats.record s ~thread:0 ~hit:false
  done;
  for _ = 1 to Profile_sink.accesses sink - Profile_sink.misses sink do
    Cache_stats.record s ~thread:0 ~hit:true
  done;
  s

let toy_sink () =
  let p = Params.make ~size_bytes:256 ~assoc:2 ~line_bytes:64 in
  let c = Set_assoc.create p in
  let stats = Cache_stats.create () in
  let sink = Profile_sink.create ~params:p () in
  List.iter
    (fun l -> ignore (Icache.access ~sink c stats ~thread:0 ~block:l l))
    [ 0; 2; 4; 0; 1; 1 ];
  (p, sink)

let test_profile_artifact () =
  let p, sink = toy_sink () in
  let lp = { Profile.label = "original"; sink; stats = stats_matching sink } in
  let json =
    Profile.to_json ~top:3
      ~block_name:(Printf.sprintf "blk%d")
      ~decisions:[ ("affinity.join", 2) ]
      ~program:"toy" ~params:p
      ~layouts:[ lp; { lp with Profile.label = "optimized" } ]
      ()
  in
  let get k j = U.Json.member k j in
  check (Alcotest.option Alcotest.string) "schema" (Some Profile.schema)
    (Option.bind (get "schema" json) U.Json.to_str);
  (match Option.bind (get "layouts" json) U.Json.to_list with
  | Some [ _; _ ] -> ()
  | _ -> Alcotest.fail "expected two layout sections");
  (match Option.bind (get "delta" json) U.Json.to_list with
  | Some [ d ] ->
    check (Alcotest.option Alcotest.int) "self-delta is zero" (Some 0)
      (Option.bind (get "conflict_reduction" d) U.Json.to_int)
  | _ -> Alcotest.fail "expected one delta entry");
  (match Option.bind (get "decisions" json) (get "total") with
  | Some (U.Json.Int 2) -> ()
  | _ -> Alcotest.fail "decision total not embedded");
  (* Round-trip through the serializer. *)
  ignore (U.Json.parse (U.Json.to_string ~pretty:true json))

let test_profile_artifact_mismatch () =
  let _, sink = toy_sink () in
  let bad = { Profile.label = "bad"; sink; stats = Cache_stats.create () } in
  match Profile.layout_json bad with
  | _ -> Alcotest.fail "expected Invalid_argument on attribution mismatch"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "profile"
    [
      ( "differential",
        [
          Alcotest.test_case "solo sink = stats" `Quick test_solo_differential;
          Alcotest.test_case "corun sink = stats" `Quick test_corun_differential;
          Alcotest.test_case "jobs invariance" `Slow test_jobs_invariance;
        ] );
      ( "interference",
        [
          Alcotest.test_case "toy matrices" `Quick test_interference_toy;
          Alcotest.test_case "corun conservation" `Quick test_interference_conservation;
          Alcotest.test_case "hw corun conservation" `Quick test_interference_conservation_hw;
          Alcotest.test_case "mismatch rejected" `Quick test_interference_json_mismatch;
          Alcotest.test_case "sink transparent" `Quick test_sink_transparent;
        ] );
      ( "decisions",
        [
          Alcotest.test_case "event sink" `Quick test_decision_trace_unit;
          Alcotest.test_case "pettis-hansen" `Quick test_pettis_hansen_decisions;
          Alcotest.test_case "trg-reduce" `Quick test_trg_reduce_decisions;
          Alcotest.test_case "affinity" `Quick test_affinity_decisions;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "to_json" `Quick test_profile_artifact;
          Alcotest.test_case "mismatch rejected" `Quick test_profile_artifact_mismatch;
        ] );
    ]

(* The bench gates ([Gates]) against the committed manifests: every
   committed BENCH_*.json and the obs stream pass; one targeted mutation
   per gate makes exactly that gate fail; and no truncated, bit-flipped or
   spliced copy of a manifest makes [Json.parse] raise anything but
   [Parse_error] or makes a gate raise at all. *)

module J = Colayout_util.Json

let read name = In_channel.with_open_bin (Filename.concat ".." name) In_channel.input_all

let load name = J.parse (read name)

let committed =
  [
    "BENCH_kernels.json";
    "BENCH_parallel.json";
    "BENCH_profile.json";
    "BENCH_layout_eval.json";
    "BENCH_layout_eval_delta.json";
    "BENCH_scaling.json";
    "BENCH_serve.json";
    "BENCH_ingest_par.json";
    "BENCH_obs.json";
  ]

(* ------------------------------------------------ manifest surgery *)

(* A path step: an object key, an array index, or the array element
   whose integer fields match. *)
type step = K of string | I of int | Sel of (string * int) list

let matches fields v =
  List.for_all (fun (k, n) -> Option.bind (J.member k v) J.to_int = Some n) fields

let rec update path f j =
  match (path, j) with
  | [], _ -> f j
  | K k :: rest, J.Obj kvs ->
    if not (List.mem_assoc k kvs) then invalid_arg ("update: no key " ^ k);
    J.Obj (List.map (fun (k', v) -> if k' = k then (k', update rest f v) else (k', v)) kvs)
  | I i :: rest, J.Arr l -> J.Arr (List.mapi (fun i' v -> if i' = i then update rest f v else v) l)
  | Sel fields :: rest, J.Arr l ->
    J.Arr (List.map (fun v -> if matches fields v then update rest f v else v) l)
  | _ -> invalid_arg "update: path does not fit"

let set path v j = update path (fun _ -> v) j

let drop path i j =
  update path
    (function J.Arr l -> J.Arr (List.filteri (fun i' _ -> i' <> i) l) | _ -> invalid_arg "drop")
    j

let rec at path j =
  match (path, j) with
  | [], v -> v
  | K k :: rest, v -> at rest (Option.get (J.member k v))
  | I i :: rest, J.Arr l -> at rest (List.nth l i)
  | _ -> invalid_arg "at"

let int_at path j = Option.get (J.to_int (at path j))

let float_at path j = Option.get (J.to_float (at path j))

let bump path d j = set path (J.Int (int_at path j + d)) j

let ( >> ) f g x = g (f x)

(* ------------------------------------------------------- assertions *)

let expect_ok what = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s should pass its gates, got %s" what e

let expect_gate what id = function
  | Ok s -> Alcotest.failf "%s: expected gate %s to fail, but it passed (%s)" what id s
  | Error e ->
    if not (String.starts_with ~prefix:(id ^ ":") e) then
      Alcotest.failf "%s: expected gate %s, got %s" what id e

let test_committed_pass () =
  List.iter (fun name -> expect_ok name (Gates.check (load name))) committed;
  expect_ok "BENCH_obs.jsonl" (Gates.check_stream (read "BENCH_obs.jsonl"))

(* (file, gate id, what the mutation breaks, mutation) *)
let mutations =
  [
    ("BENCH_kernels.json", "kernels.timings", "zero ns_per_op",
     set [ K "kernels"; I 0; K "ns_per_op" ] (J.Float 0.0));
    ("BENCH_kernels.json", "kernels.speedup", "stored speedup off the ns ratio",
     set [ K "speedup"; K "trg-build" ] (J.Float 5.0));
    ("BENCH_kernels.json", "kernels.memory-half", "packed TRG above half of legacy",
     fun j ->
       let legacy = int_at [ K "memory_words"; K "trg_tuple_hashtbl" ] j in
       j
       |> set [ K "memory_words"; K "trg_packed_csr" ] (J.Int ((legacy / 2) + 1))
       |> set [ K "memory_words"; K "ratio" ] (J.Float 0.5));
    ("BENCH_kernels.json", "kernels.memory-half", "stored memory ratio off",
     set [ K "memory_words"; K "ratio" ] (J.Float 0.25));
    ("BENCH_kernels.json", "kernels.shape", "memory_words not an object",
     set [ K "memory_words" ] (J.Int 1));
    ("BENCH_kernels.json", "kernels.shape", "unknown mode", set [ K "mode" ] (J.Str "fast"));
    ("BENCH_parallel.json", "parallel.runs", "jobs=4 run dropped", drop [ K "runs" ] 2);
    ("BENCH_parallel.json", "parallel.runs", "zero wall",
     set [ K "runs"; I 1; K "wall_ns" ] (J.Int 0));
    ("BENCH_parallel.json", "parallel.identical", "one digest differs",
     set [ K "runs"; I 1; K "digest" ] (J.Str "0000"));
    ("BENCH_parallel.json", "parallel.identical", "identical_tables flipped",
     set [ K "identical_tables" ] (J.Bool false));
    ("BENCH_parallel.json", "parallel.speedup", "stored speedup off the walls",
     set [ K "speedup"; K "jobs2" ] (J.Float 2.0));
    ("BENCH_parallel.json", "parallel.speedup", "2 cores, best speedup below 1.0",
     set [ K "cores_available" ] (J.Int 2));
    ("BENCH_profile.json", "profile.classification", "3C split no longer sums",
     bump [ K "workloads"; I 0; K "baseline"; K "cold" ] 1);
    ("BENCH_profile.json", "profile.conflict-drop", "conflict_drop inconsistent",
     bump [ K "workloads"; I 1; K "conflict_drop" ] 1);
    ("BENCH_profile.json", "profile.conflict-drop", "no workload drops conflict misses",
     (fun j ->
       List.fold_left
         (fun j i ->
           let base = int_at [ K "workloads"; I i; K "baseline"; K "conflict" ] j in
           let opt = int_at [ K "workloads"; I i; K "optimized"; K "conflict" ] j in
           (* Give the optimized layout back the conflict misses it dropped. *)
           j
           |> set [ K "workloads"; I i; K "optimized"; K "conflict" ] (J.Int base)
           |> bump [ K "workloads"; I i; K "optimized"; K "misses" ] (base - opt)
           |> bump [ K "workloads"; I i; K "optimized"; K "accesses" ] (base - opt)
           |> set [ K "workloads"; I i; K "conflict_drop" ] (J.Int 0))
         j [ 0; 1 ]));
    ("BENCH_layout_eval.json", "layout-eval.timing", "zero engine timing",
     set [ K "single_thread"; K "engine_ns_per_eval" ] (J.Float 0.0));
    ("BENCH_layout_eval.json", "layout-eval.speedup", "stored speedup off the ns",
     set [ K "single_thread"; K "speedup" ] (J.Float 9.0));
    ("BENCH_layout_eval.json", "layout-eval.speedup", "full mode, engine at 4x (< 5x)",
     fun j ->
       let engine = float_at [ K "single_thread"; K "engine_ns_per_eval" ] j in
       j
       |> set [ K "single_thread"; K "seed_ns_per_eval" ] (J.Float (4.0 *. engine))
       |> set [ K "single_thread"; K "speedup" ] (J.Float 4.0));
    ("BENCH_layout_eval.json", "layout-eval.speedup", "2 cores, engine slower than seed",
     fun j ->
       let engine = float_at [ K "single_thread"; K "engine_ns_per_eval" ] j in
       j
       |> set [ K "mode" ] (J.Str "quick")
       |> set [ K "single_thread"; K "seed_ns_per_eval" ] (J.Float (0.5 *. engine))
       |> set [ K "single_thread"; K "speedup" ] (J.Float 0.5));
    ("BENCH_layout_eval.json", "layout-eval.batch", "batch digest differs",
     set [ K "batch"; I 2; K "digest" ] (J.Str "0000"));
    ("BENCH_layout_eval.json", "layout-eval.batch", "jobs=2 batch run dropped",
     drop [ K "batch" ] 1);
    ("BENCH_layout_eval_delta.json", "layout-eval-delta.scenario", "delta/full digests diverged",
     set [ K "scenarios"; I 0; K "digests_equal" ] (J.Bool false));
    ("BENCH_layout_eval_delta.json", "layout-eval-delta.scenario", "stored speedup off the walls",
     set [ K "scenarios"; I 0; K "speedup" ] (J.Float 1.0));
    ("BENCH_layout_eval_delta.json", "layout-eval-delta.full-dirty", "2x at 100% dirty",
     fun j ->
       let delta = int_at [ K "scenarios"; I 3; K "delta_wall_ns" ] j in
       j
       |> set [ K "scenarios"; I 3; K "full_wall_ns" ] (J.Int (2 * delta))
       |> set [ K "scenarios"; I 3; K "speedup" ] (J.Float 2.0));
    ("BENCH_layout_eval_delta.json", "layout-eval-delta.monotone", "5% dirty beats 1% dirty",
     fun j ->
       let delta = int_at [ K "scenarios"; I 1; K "delta_wall_ns" ] j in
       j
       |> set [ K "scenarios"; I 1; K "full_wall_ns" ] (J.Int (20 * delta))
       |> set [ K "scenarios"; I 1; K "speedup" ] (J.Float 20.0));
    ("BENCH_layout_eval_delta.json", "layout-eval-delta.anneal", "anneal results differ",
     set [ K "anneal"; K "identical_results" ] (J.Bool false));
    ("BENCH_layout_eval_delta.json", "layout-eval-delta.speedup", "full mode, anneal at 2x (< 3x)",
     fun j ->
       let delta = int_at [ K "anneal"; K "delta_wall_ns" ] j in
       j
       |> set [ K "anneal"; K "full_wall_ns" ] (J.Int (2 * delta))
       |> set [ K "anneal"; K "speedup" ] (J.Float 2.0));
    ("BENCH_scaling.json", "scaling.params", "gate_jobs not min(cores, jobs_max)",
     set [ K "gate_jobs" ] (J.Int 3));
    ("BENCH_scaling.json", "scaling.identical", "identical_results flipped",
     set [ K "identical_results" ] (J.Bool false));
    ("BENCH_scaling.json", "scaling.strong", "strong run dropped",
     drop [ K "strong"; I 1; K "runs" ] 2);
    ("BENCH_scaling.json", "scaling.strong", "stored steal_vs_fixed off the walls",
     set [ K "strong"; I 0; K "runs"; I 1; K "steal_vs_fixed" ] (J.Float 9.0));
    ("BENCH_scaling.json", "scaling.weak", "weak run diverged",
     set [ K "weak"; I 0; K "runs"; I 2; K "digest_ok" ] (J.Bool false));
    ("BENCH_scaling.json", "scaling.skew", "2 cores, skewed ratio below 1.3x at gate_jobs",
     fun j ->
       let s = int_at [ K "strong"; I 1; K "runs"; I 1; K "steal_wall_ns" ] j in
       let f = int_at [ K "strong"; I 1; K "runs"; I 1; K "fixed_wall_ns" ] j in
       j
       |> set [ K "cores_available" ] (J.Int 2)
       |> set [ K "gate_jobs" ] (J.Int 2)
       |> set [ K "skewed_steal_vs_fixed_at_gate_jobs" ]
            (J.Float (float_of_int f /. float_of_int s)));
    ("BENCH_scaling.json", "scaling.uniform", "stored best uniform speedup off the walls",
     set [ K "best_uniform_strong_speedup" ] (J.Float 3.0));
    ("BENCH_serve.json", "serve.digests", "grid cell diverged",
     set [ K "grid"; I 4; K "digests_match" ] (J.Bool false));
    ("BENCH_serve.json", "serve.grid", "grid cell dropped", drop [ K "grid" ] 8);
    ("BENCH_serve.json", "serve.bounded", "cap exceeded",
     set [ K "bounded"; K "runs"; I 0; K "trg_peak_shard" ] (J.Int 10_000));
    ("BENCH_serve.json", "serve.bounded", "no decay drops",
     set [ K "bounded"; K "runs"; I 1; K "decay_dropped" ] (J.Int 0));
    ("BENCH_serve.json", "serve.summary", "latency percentiles out of order",
     set [ K "serve"; K "trace_p95_ns" ] (J.Float 1.0));
    ("BENCH_serve.json", "serve.parallel", "stored best_parallel_vs_serial off the walls",
     set [ K "best_parallel_vs_serial" ] (J.Float 0.9));
    ("BENCH_serve.json", "serve.parallel", "full mode, 2 cores, pooled ingest below 0.8x",
     set [ K "cores_available" ] (J.Int 2));
    ("BENCH_ingest_par.json", "ingest-par.digests", "cell digest differs from batch",
     set [ K "grid"; I 3; K "affine_digest" ] (J.Str "0000"));
    ("BENCH_ingest_par.json", "ingest-par.grid", "grid cell dropped", drop [ K "grid" ] 5);
    ("BENCH_ingest_par.json", "ingest-par.grid", "serial_ingest_ns off the serial cell",
     bump [ K "serial_ingest_ns" ] 1);
    ("BENCH_ingest_par.json", "ingest-par.bounded", "caps_respected flipped",
     set [ K "bounded"; K "caps_respected" ] (J.Bool false));
    ("BENCH_ingest_par.json", "ingest-par.histograms", "histograms miss a trace",
     bump [ K "walker_hist"; K "total_observations" ] (-1));
    ("BENCH_ingest_par.json", "ingest-par.gate-speedup", "gate cell not at machine width",
     set [ K "cores_available" ] (J.Int 2));
    ("BENCH_obs.json", "obs.conservation", "eviction matrix no longer sums",
     bump [ K "cells"; I 0; K "baseline"; K "interference"; K "evictions" ] 1);
    ("BENCH_obs.json", "obs.conservation", "suffered off the miss matrix",
     bump [ K "cells"; I 2; K "optimized"; K "interference"; K "suffered"; I 1 ] 1);
    ("BENCH_obs.json", "obs.improved", "improved_both flag flipped",
     set [ K "cells"; I 0; K "improved_both" ] (J.Bool false));
    ("BENCH_obs.json", "obs.improved", "only one co-run cell",
     drop [ K "cells" ] 2 >> drop [ K "cells" ] 1);
    ("BENCH_obs.json", "obs.improved", "only one of three cells improves both scores",
     fun j ->
       List.fold_left
         (fun j i ->
           let base = at [ K "cells"; I i; K "baseline"; K "defensiveness" ] j in
           j
           |> set [ K "cells"; I i; K "optimized"; K "defensiveness" ] base
           |> set [ K "cells"; I i; K "improved_both" ] (J.Bool false))
         (set [ K "cells_improved_both" ] (J.Int 1) j)
         [ 1; 2 ]);
    ("BENCH_obs.json", "obs.transparent", "sink perturbs the co-run",
     set [ K "sink_transparent" ] (J.Bool false));
    ("BENCH_obs.json", "obs.jobs-invariant", "attribution differs across jobs",
     set [ K "jobs_invariant" ] (J.Bool false));
    ("BENCH_obs.json", "obs.recorded", "obs_recorded off the cell count",
     set [ K "obs_recorded" ] (J.Int 2));
  ]

let test_mutations () =
  List.iter
    (fun (file, id, what, mutate) ->
      expect_gate (Printf.sprintf "%s (%s)" file what) id (Gates.check (mutate (load file))))
    mutations

let harness_manifest stages =
  J.Obj
    [
      ("schema", J.Str "colayout/bench-harness/v1");
      ("mode", J.Str "quick");
      ( "stages",
        J.Arr
          (List.map
             (fun ns -> J.Obj [ ("name", J.Str "stage"); ("total_ns", J.Int ns) ])
             stages) );
    ]

let test_harness () =
  expect_ok "harness" (Gates.check (harness_manifest [ 5; 0 ]));
  expect_gate "harness negative stage" "harness.stages" (Gates.check (harness_manifest [ 5; -1 ]));
  expect_gate "harness no stages" "harness.stages" (Gates.check (harness_manifest []))

let test_schema_dispatch () =
  expect_gate "no schema" "schema" (Gates.check (J.Obj []));
  expect_gate "unknown schema" "schema"
    (Gates.check (J.Obj [ ("schema", J.Str "colayout/bench-nope/v1") ]))

(* The machine-width gate is recomputed from the walls: a manifest that
   stores a passing 2.0x over cells whose walls give 1.25x is rejected,
   whether or not its stored copy was forged consistently. *)
let cell_wall n = [ K "grid"; Sel [ ("walkers", n); ("shards", n); ("jobs", n) ]; K "ingest_wall_ns" ]

let forged_ingest_par ~stored =
  load "BENCH_ingest_par.json"
  |> set [ K "cores_available" ] (J.Int 2)
  |> set [ K "mode" ] (J.Str "full")
  |> set [ K "gate" ]
       (J.Obj
          [
            ("walkers", J.Int 2);
            ("shards", J.Int 2);
            ("jobs", J.Int 2);
            ("speedup_vs_serial", J.Float stored);
          ])
  |> set [ K "serial_ingest_ns" ] (J.Int 100)
  |> set (cell_wall 1) (J.Int 100)
  |> set (cell_wall 2) (J.Int 80)

let test_forged_ingest_par () =
  expect_gate "stored 2.0x over 1.25x walls" "ingest-par.gate-speedup"
    (Gates.check (forged_ingest_par ~stored:2.0));
  expect_gate "consistent 1.25x" "ingest-par.gate-speedup"
    (Gates.check (forged_ingest_par ~stored:1.25));
  (* The same cells at 2.0x pass: the gate is the walls, not the forgery. *)
  let fast =
    forged_ingest_par ~stored:2.0
    |> set (cell_wall 2) (J.Int 50)
  in
  expect_ok "2.0x walls" (Gates.check fast)

let stream_lines () = List.filter (( <> ) "") (String.split_on_char '\n' (read "BENCH_obs.jsonl"))

let with_line i f =
  String.concat "\n"
    (List.mapi (fun i' l -> if i' = i then J.to_string (f (J.parse l)) else l) (stream_lines ()))

let test_stream () =
  expect_gate "seq gap" "obs-stream.order"
    (Gates.check_stream (with_line 1 (bump [ K "seq" ] 5)));
  expect_gate "timestamp backwards" "obs-stream.order"
    (Gates.check_stream (with_line 2 (set [ K "ts_ns" ] (J.Int 0))));
  expect_gate "broken eviction matrix" "obs.conservation"
    (Gates.check_stream (with_line 0 (bump [ K "baseline"; K "ev_matrix"; I 0; I 0 ] 1)));
  expect_gate "truncated line" "obs-stream.lines"
    (Gates.check_stream (String.sub (read "BENCH_obs.jsonl") 0 200));
  expect_gate "empty stream" "obs-stream.lines" (Gates.check_stream "")

(* ------------------------------------------------ parse robustness *)

let corpus = lazy (Array.of_list (List.map read ("BENCH_obs.jsonl" :: committed)))

(* A hostile copy of a committed manifest: truncated, bit-flipped, or a
   prefix of one spliced onto a suffix of another. *)
let hostile =
  let open QCheck.Gen in
  let pick = map (fun i -> (Lazy.force corpus).(i)) (int_bound 9) in
  let truncated = pick >>= fun s -> map (fun n -> String.sub s 0 n) (int_bound (String.length s)) in
  let flipped =
    pick >>= fun s ->
    pair (int_bound (String.length s - 1)) (int_bound 7) >|= fun (i, b) ->
    let bytes = Bytes.of_string s in
    Bytes.set bytes i (Char.chr (Char.code s.[i] lxor (1 lsl b)));
    Bytes.to_string bytes
  in
  let spliced =
    pair pick pick >>= fun (a, b) ->
    pair (int_bound (String.length a)) (int_bound (String.length b)) >|= fun (i, k) ->
    String.sub a 0 i ^ String.sub b k (String.length b - k)
  in
  oneof [ truncated; flipped; spliced ]

let robust =
  QCheck.Test.make ~name:"hostile manifests: parse raises only Parse_error, gates never raise"
    ~count:600
    (QCheck.make ~print:(fun s -> String.escaped (String.sub s 0 (min 200 (String.length s))))
       hostile)
    (fun text ->
      ignore (Gates.check_stream text);
      match J.parse text with
      | json ->
        ignore (Gates.check json);
        true
      | exception J.Parse_error _ -> true)

let () =
  Alcotest.run "gates"
    [
      ( "gates",
        [
          Alcotest.test_case "committed manifests pass" `Quick test_committed_pass;
          Alcotest.test_case "one mutation per gate" `Quick test_mutations;
          Alcotest.test_case "harness stages" `Quick test_harness;
          Alcotest.test_case "schema dispatch" `Quick test_schema_dispatch;
          Alcotest.test_case "forged ingest-par speedup" `Quick test_forged_ingest_par;
          Alcotest.test_case "obs stream" `Quick test_stream;
          QCheck_alcotest.to_alcotest robust;
        ] );
    ]

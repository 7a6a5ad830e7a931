module J = Colayout_util.Json

(* A failing gate: its id and a message. Field accessors raise with an
   empty id, which [check] turns into "<short>.shape". *)
exception Gate of string * string

let fail id fmt = Printf.ksprintf (fun msg -> raise (Gate (id, msg))) fmt

let require id cond fmt = Printf.ksprintf (fun msg -> if not cond then raise (Gate (id, msg))) fmt

(* ------------------------------------------------------------ fields *)

let field key j =
  match J.member key j with Some v -> v | None -> fail "" "missing field %S" key

let typed what conv key j =
  match conv (field key j) with Some v -> v | None -> fail "" "field %S is not %s" key what

let int = typed "an integer" J.to_int

let num = typed "a number" J.to_float

let str = typed "a string" J.to_str

let bool = typed "a boolean" J.to_bool

let list = typed "an array" J.to_list

let obj key j =
  match field key j with J.Obj _ as o -> o | _ -> fail "" "field %S is not an object" key

let elems what conv key j =
  List.map
    (fun v -> match conv v with Some x -> x | None -> fail "" "%S holds a non-%s" key what)
    (list key j)

let ints = elems "integer" J.to_int

let nums = elems "number" J.to_float

let matrix key j =
  List.map
    (fun row ->
      match Option.map (List.map J.to_int) (J.to_list row) with
      | Some cells when List.for_all Option.is_some cells -> List.map Option.get cells
      | _ -> fail "" "%S holds a row that is not an integer array" key)
    (list key j)

(* --------------------------------------------------- preconditions *)

let mode j =
  match str "mode" j with
  | ("quick" | "full") as m -> m
  | m -> fail "" "unknown mode %S" m

let full j = mode j = "full"

(* The recorded host width; the kernels manifest keeps it only in its
   runtime block. Magnitude floors bite only at >= 2 cores: one core can
   show correctness, not parallel gain. *)
let cores j =
  match J.member "cores_available" j with
  | Some _ -> int "cores_available" j
  | None -> int "cores_available" (obj "runtime" j)

let multicore j = cores j >= 2

(* ------------------------------------------------------- vocabulary *)

(* A derived ratio: the stored copy must equal the value recomputed from
   the raw measurements to the precision it was printed with ([tol] is
   half its last printed digit; full-precision floats get 1e-9 relative). *)
let agrees id ~what ?(tol = 0.0) ~stored derived =
  require id
    (Float.abs (stored -. derived) <= tol +. (1e-9 *. Float.abs derived))
    "stored %s %.6g disagrees with %.6g recomputed from the walls" what stored derived

(* A floor on a derived ratio, enforced on the recomputed and the stored
   value alike. *)
let at_least id ~what ?(active = true) ~floor values =
  if active then
    List.iter (fun v -> require id (v >= floor) "%s is %.2fx (< %.2fx)" what v floor) values

let positive id ~what v = require id (v > 0.0) "non-positive %s (%g)" what v

let positive_int id ~what v = require id (v > 0) "non-positive %s (%d)" what v

let nonempty id ~what l = require id (l <> []) "no %s" what

(* Runs at jobs 1, 2 and 4 with positive walls ([id]), sharing one
   digest with the stored [flag] agreeing ([same_id]). Returns the wall
   at a jobs count. *)
let jobs_runs ~id ~same_id ~flag key j =
  let runs = List.map (fun r -> (int "jobs" r, int "wall_ns" r, str "digest" r)) (list key j) in
  let wall jobs = List.find_map (fun (j', w, _) -> if j' = jobs then Some w else None) runs in
  List.iter
    (fun jobs -> require id (wall jobs <> None) "no %s run for jobs=%d" key jobs)
    [ 1; 2; 4 ];
  List.iter
    (fun (jobs, w, _) -> positive_int id ~what:(Printf.sprintf "%s wall at jobs=%d" key jobs) w)
    runs;
  require same_id (bool flag j) "%s is not true — results differ across jobs counts" flag;
  let _, _, d0 = List.hd runs in
  List.iter
    (fun (jobs, _, d) ->
      require same_id (d <> "" && d = d0) "%s digest at jobs=%d differs" key jobs)
    runs;
  fun jobs -> Option.get (wall jobs)

let ratio_of a b = float_of_int a /. float_of_int b

(* --------------------------------------------------------- kernels *)

let kernel_pairs =
  [
    ("trg-build", "trg-build/packed-csr", "trg-build/tuple-hashtbl-baseline");
    ("affine-pairs", "affine-pairs/packed", "affine-pairs/tuple-hashtbl-baseline");
    ("affinity-hierarchy", "affinity-hierarchy/one-walk", "affinity-hierarchy/per-window-baseline");
    ("trg-reduce", "trg-reduce/csr-heap", "trg-reduce/seed-baseline");
  ]

let kernels j =
  let m = mode j in
  let ns = List.map (fun k -> (str "name" k, num "ns_per_op" k)) (list "kernels" j) in
  nonempty "kernels.timings" ~what:"kernel timings" ns;
  List.iter (fun (name, v) -> positive "kernels.timings" ~what:(name ^ " ns_per_op") v) ns;
  let time name =
    match List.assoc_opt name ns with
    | Some v -> v
    | None -> fail "kernels.timings" "no timing for %s" name
  in
  let stored = obj "speedup" j in
  let speedups =
    List.map
      (fun (key, fast, slow) ->
        let derived = time slow /. time fast in
        agrees "kernels.speedup" ~what:("speedup." ^ key) ~tol:5e-4 ~stored:(num key stored)
          derived;
        Printf.sprintf "%s %.2fx" key derived)
      kernel_pairs
  in
  let mem = obj "memory_words" j in
  let packed = int "trg_packed_csr" mem and legacy = int "trg_tuple_hashtbl" mem in
  positive_int "kernels.memory-half" ~what:"packed TRG words" packed;
  positive_int "kernels.memory-half" ~what:"tuple-hashtbl TRG words" legacy;
  require "kernels.memory-half" (packed <= legacy / 2)
    "CSR finalization no longer halves TRG resident memory (%d vs %d words)" packed legacy;
  agrees "kernels.memory-half" ~what:"memory_words.ratio" ~tol:5e-4 ~stored:(num "ratio" mem)
    (ratio_of packed legacy);
  Printf.sprintf "%s, %s, memory %.3f" m (String.concat ", " speedups) (ratio_of packed legacy)

(* --------------------------------------------------------- harness *)

let harness j =
  let m = mode j in
  let stages = list "stages" j in
  nonempty "harness.stages" ~what:"stages" stages;
  List.iter
    (fun s ->
      let ns = int "total_ns" s in
      require "harness.stages" (ns >= 0) "stage %s has negative duration %d" (str "name" s) ns)
    stages;
  Printf.sprintf "%s, %d stages" m (List.length stages)

(* -------------------------------------------------------- parallel *)

let parallel j =
  let m = mode j in
  let wall =
    jobs_runs ~id:"parallel.runs" ~same_id:"parallel.identical" ~flag:"identical_tables" "runs" j
  in
  let stored = obj "speedup" j in
  let speedups =
    List.map
      (fun jobs ->
        let key = Printf.sprintf "jobs%d" jobs in
        let s = num key stored and derived = ratio_of (wall 1) (wall jobs) in
        agrees "parallel.speedup" ~what:("speedup." ^ key) ~stored:s derived;
        (s, derived))
      [ 2; 4 ]
  in
  let best_stored = List.fold_left (fun a (s, _) -> Float.max a s) 0.0 speedups in
  let best = List.fold_left (fun a (_, d) -> Float.max a d) 0.0 speedups in
  at_least "parallel.speedup" ~what:"best multi-job speedup" ~active:(multicore j) ~floor:1.0
    [ best; best_stored ];
  Printf.sprintf "%s, %d cores, best speedup %.2fx" m (cores j) best

(* --------------------------------------------------------- profile *)

let classification_gate id ~label c =
  let misses = int "misses" c in
  let cold = int "cold" c and cap = int "capacity" c and conf = int "conflict" c in
  require id (cold >= 0 && cap >= 0 && conf >= 0) "%s has a negative classification count" label;
  require id (cold + cap + conf = misses)
    "%s classification %d + %d + %d does not sum to %d misses" label cold cap conf misses;
  require id (int "accesses" c >= misses) "%s has more misses than accesses" label

let profile j =
  let m = mode j in
  let workloads = list "workloads" j in
  nonempty "profile.classification" ~what:"workloads" workloads;
  let drops =
    List.map
      (fun w ->
        let prog = str "program" w in
        let base = obj "baseline" w and opt = obj "optimized" w in
        classification_gate "profile.classification" ~label:(prog ^ " baseline") base;
        classification_gate "profile.classification" ~label:(prog ^ " optimized") opt;
        let drop = int "conflict_drop" w in
        require "profile.conflict-drop"
          (drop = int "conflict" base - int "conflict" opt)
          "%s conflict_drop is inconsistent with the classifications" prog;
        drop)
      workloads
  in
  require "profile.conflict-drop" (bool "any_conflict_drop" j) "any_conflict_drop is not true";
  require "profile.conflict-drop"
    (List.exists (fun d -> d > 0) drops)
    "no workload showed a conflict-miss reduction — the layouts no longer kill conflict misses";
  Printf.sprintf "%s, %d workloads, best conflict drop %d" m (List.length workloads)
    (List.fold_left max 0 drops)

(* ----------------------------------------------------- layout-eval *)

let layout_eval j =
  let m = mode j in
  let st = obj "single_thread" j in
  let engine_ns = num "engine_ns_per_eval" st and seed_ns = num "seed_ns_per_eval" st in
  positive "layout-eval.timing" ~what:"engine ns per eval" engine_ns;
  positive "layout-eval.timing" ~what:"seed ns per eval" seed_ns;
  let speedup = seed_ns /. engine_ns and stored = num "speedup" st in
  agrees "layout-eval.speedup" ~what:"single_thread.speedup" ~stored speedup;
  let anneal = obj "anneal" j in
  let seed_wall = int "seed_wall_ns" anneal and engine_wall = int "engine_wall_ns" anneal in
  positive_int "layout-eval.timing" ~what:"seed anneal wall" seed_wall;
  positive_int "layout-eval.timing" ~what:"engine anneal wall" engine_wall;
  agrees "layout-eval.speedup" ~what:"anneal.speedup" ~stored:(num "speedup" anneal)
    (ratio_of seed_wall engine_wall);
  let (_ : int -> int) =
    jobs_runs ~id:"layout-eval.batch" ~same_id:"layout-eval.batch" ~flag:"identical_batches"
      "batch" j
  in
  at_least "layout-eval.speedup" ~what:"single-thread engine speedup" ~active:(multicore j)
    ~floor:1.0 [ speedup; stored ];
  at_least "layout-eval.speedup" ~what:"single-thread engine speedup (full mode)"
    ~active:(full j) ~floor:5.0 [ speedup; stored ];
  Printf.sprintf "%s, %d cores, single-thread %.2fx" m (cores j) speedup

(* ----------------------------------------------- layout-eval-delta *)

let layout_eval_delta j =
  let m = mode j in
  let rows =
    List.map
      (fun sc ->
        let label = str "label" sc in
        let id = "layout-eval-delta.scenario" in
        require id (bool "digests_equal" sc)
          "scenario %s: delta ratios diverge from the full recompute" label;
        require id (str "digest" sc <> "") "scenario %s: empty digest" label;
        let full_ns = int "full_wall_ns" sc and delta_ns = int "delta_wall_ns" sc in
        positive_int id ~what:(label ^ " full wall") full_ns;
        positive_int id ~what:(label ^ " delta wall") delta_ns;
        let speedup = ratio_of full_ns delta_ns in
        agrees id ~what:(label ^ " speedup") ~stored:(num "speedup" sc) speedup;
        require id
          (int "resyncs" sc >= 0 && int "full_walks" sc >= 0)
          "scenario %s: negative work counters" label;
        let pct v = v >= 0.0 && v <= 100.0 in
        require id
          (pct (num "measured_dirty_pct" sc) && pct (num "replayed_events_pct" sc))
          "scenario %s: dirty/replayed fractions out of [0, 100]" label;
        (label, int "nominal_dirty_pct" sc, speedup))
      (list "scenarios" j)
  in
  nonempty "layout-eval-delta.scenario" ~what:"scenarios" rows;
  (* At 100% dirty the delta path replays the whole trace; a large win
     there means the "full replay" skips work. *)
  (match List.find_opt (fun (_, nominal, _) -> nominal >= 100) rows with
  | None -> fail "layout-eval-delta.full-dirty" "no 100%%-dirty scenario"
  | Some (label, _, s) ->
    require "layout-eval-delta.full-dirty" (s <= 1.5)
      "scenario %s claims %.2fx at 100%% dirty — a full replay cannot beat a full recompute"
      label s);
  (* Less-dirty scenarios must not be slower than more-dirty ones, within
     timing slack (wider for short quick-mode runs). *)
  let slack = if m = "quick" then 1.35 else 1.10 in
  let sorted = List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b) rows in
  let rec monotone = function
    | (la, na, sa) :: ((lb, nb, sb) :: _ as rest) ->
      require "layout-eval-delta.monotone" (sb <= sa *. slack)
        "speedup is not monotone non-increasing in dirty-%%: %s (%d%%) %.2fx < %s (%d%%) %.2fx"
        la na sa lb nb sb;
      monotone rest
    | _ -> ()
  in
  monotone sorted;
  let anneal = obj "anneal" j in
  require "layout-eval-delta.anneal" (bool "identical_results" anneal)
    "anneal results differ across evaluation modes — delta path is wrong";
  positive_int "layout-eval-delta.anneal" ~what:"anneal steps" (int "steps" anneal);
  let full_ns = int "full_wall_ns" anneal and delta_ns = int "delta_wall_ns" anneal in
  positive_int "layout-eval-delta.anneal" ~what:"anneal full wall" full_ns;
  positive_int "layout-eval-delta.anneal" ~what:"anneal delta wall" delta_ns;
  let anneal_speedup = ratio_of full_ns delta_ns and stored = num "speedup" anneal in
  agrees "layout-eval-delta.anneal" ~what:"anneal.speedup" ~stored anneal_speedup;
  (match sorted with
  | (label, nominal, s) :: _ ->
    at_least "layout-eval-delta.speedup"
      ~what:(Printf.sprintf "%s (%d%% dirty) speedup" label nominal)
      ~active:(multicore j) ~floor:1.0 [ s ]
  | [] -> ());
  at_least "layout-eval-delta.speedup" ~what:"anneal speedup" ~active:(multicore j) ~floor:1.0
    [ anneal_speedup; stored ];
  at_least "layout-eval-delta.speedup" ~what:"delta anneal speedup (full mode)" ~active:(full j)
    ~floor:3.0 [ anneal_speedup; stored ];
  Printf.sprintf "%s, %d cores, %d scenarios, anneal %.2fx" m (cores j) (List.length rows)
    anneal_speedup

(* --------------------------------------------------------- scaling *)

(* Rows of one shape in a curve, keyed by jobs, covering 1..jobs_max
   exactly (checked without allocating jobs_max). *)
let shape_rows id curve ~jobs_max ~shape =
  match List.find_opt (fun row -> str "shape" row = shape) curve with
  | None -> fail id "no %S shape" shape
  | Some row ->
    let runs = List.map (fun r -> (int "jobs" r, r)) (list "runs" row) in
    let jobs = List.sort_uniq compare (List.map fst runs) in
    require id
      (List.length jobs = jobs_max && List.for_all (fun x -> x >= 1 && x <= jobs_max) jobs)
      "%s runs do not cover jobs 1..%d" shape jobs_max;
    (row, runs)

let scaling j =
  let m = mode j in
  let jobs_max = int "jobs_max" j and gate_jobs = int "gate_jobs" j in
  require "scaling.params" (jobs_max >= 1) "jobs_max %d < 1" jobs_max;
  require "scaling.params"
    (gate_jobs = max 1 (min (cores j) jobs_max))
    "gate_jobs %d is not min(cores_available %d, jobs_max %d)" gate_jobs (cores j) jobs_max;
  require "scaling.identical" (bool "identical_results" j)
    "identical_results is not true — a pooled run diverged from jobs=1";
  let strong = list "strong" j and weak = list "weak" j in
  let strong_shape shape =
    let id = "scaling.strong" in
    let row, runs = shape_rows id strong ~jobs_max ~shape in
    positive_int id ~what:(shape ^ " total_evals") (int "total_evals" row);
    require id (str "digest" row <> "") "strong %s has an empty digest" shape;
    let walls =
      List.map
        (fun (jobs, r) ->
          let s = int "steal_wall_ns" r and f = int "fixed_wall_ns" r in
          positive_int id ~what:(Printf.sprintf "%s steal wall at jobs=%d" shape jobs) s;
          positive_int id ~what:(Printf.sprintf "%s fixed wall at jobs=%d" shape jobs) f;
          (jobs, (s, f, r)))
        runs
    in
    let s1, _, _ = List.assoc 1 walls in
    List.iter
      (fun (jobs, (s, f, r)) ->
        let what k = Printf.sprintf "%s jobs=%d %s" shape jobs k in
        agrees id ~what:(what "steal_vs_fixed") ~stored:(num "steal_vs_fixed" r) (ratio_of f s);
        agrees id ~what:(what "steal_speedup") ~stored:(num "steal_speedup" r) (ratio_of s1 s);
        agrees id ~what:(what "fixed_speedup") ~stored:(num "fixed_speedup" r) (ratio_of s1 f))
      walls;
    (fun jobs -> let s, f, _ = List.assoc jobs walls in (s, f)), s1, List.map fst walls
  in
  let uniform, u1, u_jobs = strong_shape "uniform" in
  let skewed, _, _ = strong_shape "skewed" in
  List.iter
    (fun shape ->
      let id = "scaling.weak" in
      let _, runs = shape_rows id weak ~jobs_max ~shape in
      let w1 = int "wall_ns" (List.assoc 1 runs) in
      List.iter
        (fun (jobs, r) ->
          let w = int "wall_ns" r in
          positive_int id ~what:(Printf.sprintf "%s wall at jobs=%d" shape jobs) w;
          positive_int id ~what:(Printf.sprintf "%s evals at jobs=%d" shape jobs) (int "evals" r);
          require id (bool "digest_ok" r) "weak %s jobs=%d diverged from jobs=1" shape jobs;
          agrees id
            ~what:(Printf.sprintf "weak %s jobs=%d efficiency" shape jobs)
            ~stored:(num "efficiency" r) (ratio_of w1 w))
        runs)
    [ "uniform"; "skewed" ];
  let skew_at jobs = let s, f = skewed jobs in ratio_of f s in
  let skew_gate = skew_at gate_jobs and stored_gate = num "skewed_steal_vs_fixed_at_gate_jobs" j in
  agrees "scaling.skew" ~what:"skewed_steal_vs_fixed_at_gate_jobs" ~stored:stored_gate skew_gate;
  agrees "scaling.skew" ~what:"skewed_steal_vs_fixed_at_max_jobs"
    ~stored:(num "skewed_steal_vs_fixed_at_max_jobs" j) (skew_at jobs_max);
  let best =
    List.fold_left (fun a jobs -> Float.max a (ratio_of u1 (fst (uniform jobs)))) 0.0 u_jobs
  in
  let stored_best = num "best_uniform_strong_speedup" j in
  agrees "scaling.uniform" ~what:"best_uniform_strong_speedup" ~stored:stored_best best;
  at_least "scaling.skew"
    ~what:(Printf.sprintf "skewed steal-vs-fixed ratio at gate_jobs=%d" gate_jobs)
    ~active:(multicore j) ~floor:1.3 [ skew_gate; stored_gate ];
  at_least "scaling.uniform" ~what:"best uniform strong speedup" ~active:(multicore j)
    ~floor:1.0 [ best; stored_best ];
  Printf.sprintf "%s, jobs 1..%d, %d cores, skew %.2fx @ jobs=%d, best uniform %.2fx" m jobs_max
    (cores j) skew_gate gate_jobs best

(* ----------------------------------------------- serve / ingest-par *)

let batch_digests id j =
  let batch = obj "batch" j in
  let trg = str "trg_digest" batch and aff = str "affine_digest" batch in
  require id (trg <> "" && aff <> "") "empty batch digests";
  (trg, aff)

(* Positive walls and throughputs on one grid cell. *)
let cell_rates id ~label cell =
  List.iter
    (fun key -> positive_int id ~what:(label ^ " " ^ key) (int key cell))
    [ "ingest_wall_ns"; "merge_ns"; "flushes" ];
  List.iter
    (fun key -> positive id ~what:(label ^ " " ^ key) (num key cell))
    [ "events_per_sec"; "traces_per_sec"; "edge_ops_per_sec" ]

(* Bounded-memory runs: caps held at flush boundaries on every run. *)
let bounded_runs id ~key bounded =
  let trg_cap = int "trg_cap" bounded and wits_cap = int "wits_cap" bounded in
  require id (trg_cap > 0 && wits_cap > 0) "non-positive caps (%d, %d)" trg_cap wits_cap;
  let runs = list "runs" bounded in
  nonempty id ~what:"bounded runs" runs;
  List.iter
    (fun r ->
      let label = Printf.sprintf "bounded %s=%d" key (int key r) in
      require id (int "trg_peak_shard" r <= trg_cap) "%s trg peak %d exceeds cap %d" label
        (int "trg_peak_shard" r) trg_cap;
      require id (int "wits_peak_shard" r <= wits_cap) "%s wits peak %d exceeds cap %d" label
        (int "wits_peak_shard" r) wits_cap)
    runs;
  runs

let serve j =
  let m = mode j in
  require "serve.digests" (bool "digests_identical" j)
    "digests_identical is not true — a grid cell diverged from the batch kernels";
  ignore (batch_digests "serve.digests" j);
  let grid =
    List.map
      (fun c ->
        let shards = int "shards" c and jobs = int "jobs" c in
        let label = Printf.sprintf "shards=%d jobs=%d" shards jobs in
        require "serve.digests" (bool "digests_match" c)
          "online digests diverge from the batch kernels at %s" label;
        cell_rates "serve.grid" ~label c;
        ((shards, jobs), int "ingest_wall_ns" c))
      (list "grid" j)
  in
  List.iter
    (fun shards ->
      List.iter
        (fun jobs ->
          require "serve.grid" (List.mem_assoc (shards, jobs) grid)
            "grid has no cell for shards=%d jobs=%d" shards jobs)
        [ 1; 2; 4 ])
    [ 1; 2; 4 ];
  let bounded = obj "bounded" j in
  List.iter
    (fun key -> require "serve.bounded" (bool key bounded) "bounded.%s is not true" key)
    [ "deterministic"; "caps_respected"; "evictions_fired" ];
  List.iter
    (fun r ->
      let jobs = int "jobs" r in
      require "serve.bounded"
        (int "trg_evicted" r > 0 && int "wits_evicted" r > 0)
        "bounded jobs=%d: pressure knobs did not fire (no evictions)" jobs;
      require "serve.bounded" (int "decay_dropped" r > 0)
        "bounded jobs=%d: pressure knobs did not fire (no decay drops)" jobs)
    (bounded_runs "serve.bounded" ~key:"jobs" bounded);
  let sv = obj "serve" j in
  require "serve.summary"
    (str "schema" sv = "colayout/serve/v1")
    "serve summary schema is not colayout/serve/v1";
  require "serve.summary"
    (bool "digests_match" (obj "verify" sv))
    "end-to-end Serve.run digests diverge from the batch kernels";
  let tps = num "traces_per_sec" sv in
  positive "serve.summary" ~what:"service throughput" tps;
  let p50 = num "trace_p50_ns" sv and p95 = num "trace_p95_ns" sv and p99 = num "trace_p99_ns" sv in
  require "serve.summary"
    (p50 > 0.0 && p50 <= p95 && p95 <= p99)
    "latency percentiles are not ordered (%.0f/%.0f/%.0f)" p50 p95 p99;
  nonempty "serve.summary" ~what:"serve epoch rows" (list "epochs" sv);
  let serial = List.assoc (1, 1) grid in
  let best =
    List.fold_left
      (fun a ((_, jobs), ns) -> if jobs > 1 then Float.max a (ratio_of serial ns) else a)
      0.0 grid
  in
  let stored = num "best_parallel_vs_serial" j in
  agrees "serve.parallel" ~what:"best_parallel_vs_serial" ~stored best;
  positive "serve.parallel" ~what:"best_parallel_vs_serial" best;
  at_least "serve.parallel" ~what:"best pooled ingest vs serial"
    ~active:(full j && multicore j) ~floor:0.8 [ best; stored ];
  Printf.sprintf "%s, %d grid cells, %d cores, best pooled %.2fx, serve %.1f traces/s" m
    (List.length grid) (cores j) best tps

let ingest_par j =
  let m = mode j in
  let c = cores j in
  require "ingest-par.digests" (bool "digests_identical" j)
    "digests_identical is not true — a grid cell diverged from the batch kernels";
  let params = obj "params" j in
  let users = int "users" params in
  let walkers_list = ints "walkers_list" params
  and shards_list = ints "shards_list" params
  and jobs_list = ints "jobs_list" params in
  require "ingest-par.grid"
    (walkers_list <> [] && shards_list <> [] && jobs_list <> [])
    "empty params grid lists";
  let batch_trg, batch_aff = batch_digests "ingest-par.digests" j in
  let grid =
    List.map
      (fun cell ->
        let walkers = int "walkers" cell and shards = int "shards" cell in
        let jobs = int "jobs" cell in
        let label = Printf.sprintf "walkers=%d shards=%d jobs=%d" walkers shards jobs in
        require "ingest-par.digests"
          (bool "digests_match" cell
          && str "trg_digest" cell = batch_trg
          && str "affine_digest" cell = batch_aff)
          "multi-walker digests diverge from the batch kernels at %s" label;
        cell_rates "ingest-par.grid" ~label cell;
        (* Staged dispatch only exists on the multi-walker path. *)
        if walkers > 1 then
          positive_int "ingest-par.grid" ~what:(label ^ " dispatches") (int "dispatches" cell);
        ((walkers, shards, jobs), int "ingest_wall_ns" cell))
      (list "grid" j)
  in
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          List.iter
            (fun jb ->
              require "ingest-par.grid" (List.mem_assoc (w, s, jb) grid)
                "grid has no cell for walkers=%d shards=%d jobs=%d" w s jb)
            jobs_list)
        shards_list)
    walkers_list;
  let serial =
    match List.assoc_opt (1, 1, 1) grid with
    | Some ns -> ns
    | None -> fail "ingest-par.grid" "grid has no serial cell (walkers=1 shards=1 jobs=1)"
  in
  require "ingest-par.grid"
    (int "serial_ingest_ns" j = serial)
    "serial_ingest_ns %d is not the serial cell's wall %d" (int "serial_ingest_ns" j) serial;
  let bounded = obj "bounded" j in
  List.iter
    (fun key -> require "ingest-par.bounded" (bool key bounded) "bounded.%s is not true" key)
    [ "deterministic"; "caps_respected" ];
  List.iter
    (fun r ->
      require "ingest-par.bounded"
        (str "trg_digest" r <> "" && str "affine_digest" r <> "")
        "bounded walkers=%d has an empty digest" (int "walkers" r))
    (bounded_runs "ingest-par.bounded" ~key:"walkers" bounded);
  let hist = obj "walker_hist" j in
  let total = int "total_observations" hist in
  require "ingest-par.histograms" (total = users)
    "per-walker latency histograms cover %d traces, expected %d" total users;
  let per_walker = list "per_walker" hist in
  require "ingest-par.histograms"
    (List.length per_walker = int "walkers" hist)
    "walker_hist.per_walker has %d rows for %d walkers" (List.length per_walker)
    (int "walkers" hist);
  let sum = List.fold_left (fun a r -> a + int "observations" r) 0 per_walker in
  require "ingest-par.histograms" (sum = total) "per-walker observations sum to %d, total says %d"
    sum total;
  (* The machine-width cell: walkers = jobs = cores on a multicore host. *)
  let gate = obj "gate" j in
  let width = if c > 1 then c else 1 in
  require "ingest-par.gate-speedup"
    (int "walkers" gate = width && int "shards" gate = 2 && int "jobs" gate = width)
    "gate cell is walkers=%d shards=%d jobs=%d, expected walkers=%d shards=2 jobs=%d"
    (int "walkers" gate) (int "shards" gate) (int "jobs" gate) width width;
  let gate_ns =
    match List.assoc_opt (width, 2, width) grid with
    | Some ns -> ns
    | None ->
      fail "ingest-par.gate-speedup" "grid has no gate cell walkers=%d shards=2 jobs=%d" width
        width
  in
  let speedup = ratio_of serial gate_ns and stored = num "speedup_vs_serial" gate in
  agrees "ingest-par.gate-speedup" ~what:"gate.speedup_vs_serial" ~stored speedup;
  at_least "ingest-par.gate-speedup"
    ~what:(Printf.sprintf "walkers=%d ingest vs serial" width)
    ~active:(full j && c >= 2) ~floor:1.5 [ speedup; stored ];
  Printf.sprintf "%s, %d grid cells, %d cores, gate walkers=%d %.2fx" m (List.length grid) c
    width speedup

(* ------------------------------------------------------------- obs *)

(* The conservation laws of one interference section, re-verified from
   the serialized artifact: the eviction matrix sums to the eviction
   total; per thread, first-touch misses plus the miss-provenance row
   reproduce the miss total; suffered/inflicted and defensiveness follow
   from the matrix; scores lie in [0, 1]. *)
let interference ~label s =
  let id = "obs.conservation" in
  let threads = int "threads" s in
  require id (threads >= 2) "%s has %d threads (co-run needs >= 2)" label threads;
  let arr key =
    let a = Array.of_list (ints key s) in
    require id (Array.length a = threads) "%s.%s has %d entries for %d threads" label key
      (Array.length a) threads;
    a
  in
  let farr key =
    let a = Array.of_list (nums key s) in
    require id (Array.length a = threads) "%s.%s has %d entries for %d threads" label key
      (Array.length a) threads;
    a
  in
  let mat key =
    let m = Array.of_list (List.map Array.of_list (matrix key s)) in
    require id
      (Array.length m = threads && Array.for_all (fun r -> Array.length r = threads) m)
      "%s %s is not %dx%d" label key threads threads;
    m
  in
  let accesses = arr "accesses" and misses = arr "misses" and first = arr "first_misses" in
  let suffered = arr "suffered" and inflicted = arr "inflicted" in
  let def = farr "defensiveness" and pol = farr "politeness" in
  let ev = mat "ev_matrix" and ms = mat "miss_matrix" in
  let evictions = int "evictions" s in
  let total = Array.fold_left (Array.fold_left ( + )) 0 ev in
  require id (total = evictions) "%s eviction matrix sums to %d, total says %d" label total
    evictions;
  for t = 0 to threads - 1 do
    let row = Array.fold_left ( + ) first.(t) ms.(t) in
    require id (row = misses.(t)) "%s thread %d first+row sums to %d, misses say %d" label t row
      misses.(t);
    let suff = ref 0 and infl = ref 0 in
    for o = 0 to threads - 1 do
      if o <> t then begin
        suff := !suff + ms.(t).(o);
        infl := !infl + ms.(o).(t)
      end
    done;
    require id (!suff = suffered.(t)) "%s thread %d suffered %d but matrix says %d" label t
      suffered.(t) !suff;
    require id (!infl = inflicted.(t)) "%s thread %d inflicted %d but matrix says %d" label t
      inflicted.(t) !infl;
    List.iter
      (fun (key, v) ->
        require id (v >= 0.0 && v <= 1.0) "%s thread %d %s %.4f outside [0,1]" label t key v)
      [ ("defensiveness", def.(t)); ("politeness", pol.(t)) ];
    if accesses.(t) > 0 then begin
      let want = 1.0 -. ratio_of !suff accesses.(t) in
      require id
        (Float.abs (def.(t) -. want) <= 1e-9)
        "%s thread %d defensiveness %.6f != 1 - suffered/accesses = %.6f" label t def.(t) want
    end
  done

let obs j =
  let m = mode j in
  let cells = list "cells" j in
  require "obs.improved" (List.length cells >= 2) "only %d co-run cells (need >= 2)"
    (List.length cells);
  let side cell ~label name =
    let s = obj name cell in
    interference ~label:(label ^ "." ^ name) (obj "interference" s);
    (num "defensiveness" s, num "politeness" s)
  in
  let improved =
    List.filter
      (fun cell ->
        let label = Printf.sprintf "cell %s|%s" (str "self" cell) (str "peer" cell) in
        let bdef, bpol = side cell ~label "baseline" in
        let odef, opol = side cell ~label "optimized" in
        let improved = odef > bdef && opol > bpol in
        require "obs.improved"
          (improved = bool "improved_both" cell)
          "%s improved_both flag disagrees with the scores" label;
        improved)
      cells
  in
  let n = List.length improved in
  require "obs.improved"
    (n = int "cells_improved_both" j)
    "cells_improved_both says %d, recount finds %d" (int "cells_improved_both" j) n;
  require "obs.improved" (n >= 2)
    "optimized layout improved both scores in only %d/%d co-run cells (need >= 2)" n
    (List.length cells);
  require "obs.transparent" (bool "sink_transparent" j)
    "sink_transparent is not true — the profiling sink perturbs the co-run";
  require "obs.jobs-invariant" (bool "jobs_invariant" j)
    "jobs_invariant is not true — attribution differs between jobs=1 and jobs=2";
  require "obs.recorded"
    (int "obs_recorded" j = List.length cells)
    "obs_recorded %d != %d cells" (int "obs_recorded" j) (List.length cells);
  let runtime = obj "runtime" j in
  positive_int "obs.recorded" ~what:"runtime.wall_ns" (int "wall_ns" runtime);
  ignore (int "cores_available" runtime);
  Printf.sprintf "%s, %d cells, %d improved both scores, conservation held" m
    (List.length cells) n

(* -------------------------------------------------------- dispatch *)

let schemas =
  [
    ("colayout/bench-kernels/v1", ("kernels", kernels));
    ("colayout/bench-harness/v1", ("harness", harness));
    ("colayout/bench-parallel/v1", ("parallel", parallel));
    ("colayout/bench-profile/v1", ("profile", profile));
    ("colayout/bench-layout-eval/v1", ("layout-eval", layout_eval));
    ("colayout/bench-layout-eval-delta/v1", ("layout-eval-delta", layout_eval_delta));
    ("colayout/bench-scaling/v1", ("scaling", scaling));
    ("colayout/bench-serve/v1", ("serve", serve));
    ("colayout/bench-ingest-par/v1", ("ingest-par", ingest_par));
    ("colayout/bench-obs/v1", ("obs", obs));
  ]

let run short f x =
  match f x with
  | v -> Ok v
  | exception Gate ("", msg) -> Error (Printf.sprintf "%s.shape: %s" short msg)
  | exception Gate (id, msg) -> Error (Printf.sprintf "%s: %s" id msg)

let check json =
  match Option.bind (J.member "schema" json) J.to_str with
  | None -> Error "schema: missing schema"
  | Some s -> (
    match List.assoc_opt s schemas with
    | None -> Error (Printf.sprintf "schema: unknown schema %S" s)
    | Some (short, f) -> Result.map (fun summary -> s ^ ": " ^ summary) (run short f json))

let check_stream text =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let stream () =
    nonempty "obs-stream.lines" ~what:"snapshots in the stream" lines;
    let checked = ref 0 and first_seq = ref 0 and last_ts = ref min_int in
    List.iteri
      (fun i line ->
        let label = Printf.sprintf "line %d" (i + 1) in
        let j =
          match J.parse line with
          | v -> v
          | exception J.Parse_error (pos, msg) ->
            fail "obs-stream.lines" "%s does not parse: %s at byte %d" label msg pos
        in
        require "obs-stream.lines" (str "schema" j = "colayout/obs/v1")
          "%s schema is not colayout/obs/v1" label;
        require "obs-stream.lines" (str "label" j <> "") "%s has an empty label" label;
        let seq = int "seq" j and ts = int "ts_ns" j in
        if i = 0 then first_seq := seq;
        require "obs-stream.order" (seq = !first_seq + i) "%s seq %d breaks density (expected %d)"
          label seq (!first_seq + i);
        require "obs-stream.order" (ts >= !last_ts) "%s timestamp went backwards" label;
        last_ts := ts;
        let section ~label s = interference ~label s; incr checked in
        Option.iter (section ~label) (J.member "interference" j);
        List.iter
          (fun name ->
            (* A cell snapshot holds the section itself; a serve epoch
               wraps one. *)
            let label = label ^ "." ^ name in
            match J.member name j with
            | Some s when J.member "ev_matrix" s <> None -> section ~label s
            | Some s -> Option.iter (section ~label) (J.member "interference" s)
            | None -> ())
          [ "baseline"; "optimized" ])
      lines;
    require "obs-stream.conservation" (!checked > 0) "stream carried no interference sections";
    Printf.sprintf "colayout/obs/v1 stream: %d snapshots, %d interference sections conserve"
      (List.length lines) !checked
  in
  run "obs-stream" stream ()

let classification ~label c = run "classification" (classification_gate "classification" ~label) c

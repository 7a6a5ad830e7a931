(* Tests for the streaming ingest service core ([Ingest]): the sharded
   multi-walker online TRG/affinity accumulators must be bit-identical
   to the batch kernels merged per trace
   ([Ingest.batch_digests_parts]) at every walker count, shard count
   and jobs count, regardless of feed granularity (whole traces,
   odd-sized chunks, or trace files, which feed all or nothing). Each trace
   is an independent stream — the LRU stack and trim state reset at
   trace boundaries — so the merged profile is a pure function of the
   trace multiset and the round-robin walker partition cannot change
   it. Bounded-memory mode (caps + decay) is approximate by design but
   must be deterministic given the config (walker count included, pool
   schedule excluded), keep every walker-shard table under its cap at
   flush boundaries, actually evict under pressure, and compute the
   pinned approximation of one fixed config. The service
   driver's spool watcher must ingest files that land after the watch
   starts and exit cleanly on its deadline. *)

open Colayout
open Colayout_trace
module U = Colayout_util
module H = Colayout_harness

let check = Alcotest.check

let shard_counts = [ 1; 2; 4 ]

let jobs_counts = [ 1; 2; 4 ]

let walker_counts = [ 1; 2; 4 ]

(* Zipf-popularity user traces with deliberate consecutive repeats so the
   walker's inline trimming is exercised (the batch side trims each
   trace explicitly). *)
let user_traces ~seed ~users ~num_symbols ~len =
  let prng = U.Prng.create ~seed in
  List.init users (fun _ ->
      let t = Trace.create ~num_symbols () in
      for _ = 1 to len do
        let s = U.Prng.zipf prng ~n:num_symbols ~s:0.9 in
        Trace.push t s;
        if U.Prng.bool prng ~p:0.2 then Trace.push t s
      done;
      t)

let batch_of traces = Ingest.batch_digests_parts ~trg_window:12 ~affinity_w:6 traces

let ingest_all ?pool cfg traces =
  let ing = Ingest.create ?pool cfg in
  List.iter (fun t -> Ingest.ingest_trace ing t) traces;
  ing

(* Events surviving per-trace trimming: the first event plus every
   non-repeat. *)
let trimmed_len t =
  let kept = ref 0 and last = ref (-1) in
  Trace.iter
    (fun s ->
      if s <> !last then incr kept;
      last := s)
    t;
  !kept

(* Every [Ingest.stats] field, named, in declaration order. *)
let stats_fields (s : Ingest.stats) =
  [
    ("traces", s.traces);
    ("events", s.events);
    ("kept_events", s.kept_events);
    ("trg_ops", s.trg_ops);
    ("wit_ops", s.wit_ops);
    ("flushes", s.flushes);
    ("dispatches", s.dispatches);
    ("epochs", s.epochs);
    ("merges", s.merges);
    ("trg_live", s.trg_live);
    ("wits_live", s.wits_live);
    ("trg_peak_shard", s.trg_peak_shard);
    ("wits_peak_shard", s.wits_peak_shard);
    ("trg_evicted", s.trg_evicted);
    ("wits_evicted", s.wits_evicted);
    ("decay_dropped", s.decay_dropped);
    ("dead_pruned", s.dead_pruned);
  ]

(* ---------------------------------------- multi-walker online == batch *)

let test_walkers_equal_batch () =
  let num_symbols = 48 in
  List.iter
    (fun seed ->
      let traces = user_traces ~seed ~users:10 ~num_symbols ~len:300 in
      let batch = batch_of traces in
      List.iter
        (fun walkers ->
          List.iter
            (fun shards ->
              List.iter
                (fun jobs ->
                  U.Pool.with_pool ~jobs (fun pool ->
                      let cfg =
                        Ingest.config ~num_symbols ~walkers ~shards ~trg_window:12
                          ~affinity_w:6 ~flush_ops:512 ()
                      in
                      let ing = ingest_all ~pool cfg traces in
                      let online = Ingest.consensus_digests (Ingest.finalize ing) in
                      check
                        Alcotest.(pair string string)
                        (Printf.sprintf "digests (seed=%d walkers=%d shards=%d jobs=%d)"
                           seed walkers shards jobs)
                        batch online))
                jobs_counts)
            shard_counts)
        [ 1; 2 ])
    [ 1; 2; 42 ]

(* Property form: random trace sets, every walker x shard x jobs
   combination, checked against the per-trace batch merge via the
   shared digest renderings. *)
let prop_walker_partition =
  QCheck.Test.make ~count:10
    ~name:"ingest: walker-partitioned online == per-trace batch merge"
    QCheck.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, users) ->
      let num_symbols = 32 in
      let traces = user_traces ~seed ~users ~num_symbols ~len:120 in
      let batch = Ingest.batch_digests_parts ~trg_window:8 ~affinity_w:4 traces in
      List.for_all
        (fun walkers ->
          List.for_all
            (fun shards ->
              List.for_all
                (fun jobs ->
                  U.Pool.with_pool ~jobs (fun pool ->
                      let cfg =
                        Ingest.config ~num_symbols ~walkers ~shards ~trg_window:8
                          ~affinity_w:4 ~flush_ops:64 ()
                      in
                      let ing = ingest_all ~pool cfg traces in
                      Ingest.consensus_digests (Ingest.finalize ing) = batch))
                [ 1; 4 ])
            [ 1; 3 ])
        walker_counts)

(* Feeding granularity must not matter: whole traces, odd chunks, and
   trace files through the streaming reader all describe the same
   per-trace streams — at one walker and at several. *)
let test_chunked_and_file_feeds () =
  let num_symbols = 40 in
  let traces = user_traces ~seed:7 ~users:6 ~num_symbols ~len:250 in
  let cfg = Ingest.config ~num_symbols ~shards:2 ~trg_window:10 ~affinity_w:5 () in
  let whole = Ingest.consensus_digests (Ingest.finalize (ingest_all cfg traces)) in
  (* Odd-sized chunks, mid-trace boundaries. *)
  let chunked = Ingest.create cfg in
  List.iter
    (fun t ->
      let arr = U.Int_vec.to_array (Trace.events t) in
      let n = Array.length arr in
      let pos = ref 0 in
      while !pos < n do
        let len = min 7 (n - !pos) in
        Ingest.feed_chunk chunked (Array.sub arr !pos len) len;
        pos := !pos + len
      done;
      Ingest.end_trace chunked)
    traces;
  check
    Alcotest.(pair string string)
    "chunked == whole" whole
    (Ingest.consensus_digests (Ingest.finalize chunked));
  (* Through trace files and the chunked streaming reader, on the staged
     multi-walker path. *)
  let dir = Filename.temp_file "colayout_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let cfg2 =
        Ingest.config ~num_symbols ~walkers:2 ~shards:2 ~trg_window:10 ~affinity_w:5 ()
      in
      U.Pool.with_pool ~jobs:2 (fun pool ->
          let filed = Ingest.create ~pool cfg2 in
          List.iteri
            (fun i t ->
              let path = Filename.concat dir (Printf.sprintf "u%d.trace" i) in
              Trace_io.save ~path t;
              Ingest.feed_file filed ~path)
            traces;
          check
            Alcotest.(pair string string)
            "file-streamed at walkers=2 == whole" whole
            (Ingest.consensus_digests (Ingest.finalize filed))))

(* [feed_file] is all or nothing: a truncated file raises [Failure] with
   the accumulators untouched, so feeding the complete file afterwards —
   the spool watcher's retry — gives exactly the complete file alone.
   The trace spans more than one 65536-event read chunk, so a chunked
   feed would have walked (walkers = 1) or staged (walkers > 1) part of
   it before the failure. *)
let test_feed_file_all_or_nothing () =
  let num_symbols = 64 in
  let tr = List.hd (user_traces ~seed:41 ~users:1 ~num_symbols ~len:100_000) in
  let full = Filename.temp_file "colayout_full" ".trc" in
  let cut = Filename.temp_file "colayout_cut" ".trc" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ full; cut ])
    (fun () ->
      Trace_io.save ~path:full tr;
      let bytes = In_channel.with_open_bin full In_channel.input_all in
      Out_channel.with_open_bin cut (fun oc ->
          output_string oc (String.sub bytes 0 (3 * String.length bytes / 4)));
      List.iter
        (fun walkers ->
          let cfg =
            Ingest.config ~num_symbols ~walkers ~shards:2 ~trg_window:12 ~affinity_w:6 ()
          in
          let alone = Ingest.create cfg in
          Ingest.feed_file alone ~path:full;
          let retried = Ingest.create cfg in
          (match Ingest.feed_file retried ~path:cut with
          | exception Failure _ -> ()
          | () -> Alcotest.fail "truncated file fed without an error");
          Ingest.feed_file retried ~path:full;
          let label = Printf.sprintf "walkers=%d" walkers in
          check
            Alcotest.(pair string string)
            (label ^ " digests after a failed feed")
            (Ingest.consensus_digests (Ingest.finalize alone))
            (Ingest.consensus_digests (Ingest.finalize retried));
          check
            Alcotest.(list (pair string int))
            (label ^ " stats after a failed feed")
            (stats_fields (Ingest.stats alone))
            (stats_fields (Ingest.stats retried)))
        [ 1; 2 ])

(* Dead-witness pruning is exact: epochs with pruning on must not change
   the affine set (digests equal to batch), while actually pruning. *)
let test_prune_exactness () =
  let num_symbols = 36 in
  let traces = user_traces ~seed:11 ~users:12 ~num_symbols ~len:220 in
  let batch = Ingest.batch_digests_parts ~trg_window:10 ~affinity_w:5 traces in
  let mk prune =
    let cfg =
      Ingest.config ~num_symbols ~shards:2 ~trg_window:10 ~affinity_w:5 ~epoch_traces:3
        ~prune_dead:prune ()
    in
    ingest_all cfg traces
  in
  let pruned = mk true in
  let digests = Ingest.consensus_digests (Ingest.finalize pruned) in
  check Alcotest.(pair string string) "pruned == batch" batch digests;
  check Alcotest.(pair string string) "no-prune == batch" batch
    (Ingest.consensus_digests (Ingest.finalize (mk false)));
  let s = Ingest.stats pruned in
  Alcotest.(check bool) "pruning actually fired" true (s.dead_pruned > 0);
  Alcotest.(check bool)
    "pruned table smaller than unpruned"
    (s.wits_live < (Ingest.stats (mk false)).wits_live)
    true

(* Per-trace trimming: each trace trims independently; a repeat that
   opens one trace after another trace closed on the same symbol is
   still the new trace's first event (streams are independent). *)
let test_per_trace_trimming () =
  let num_symbols = 8 in
  let mk l =
    let t = Trace.create ~num_symbols () in
    List.iter (Trace.push t) l;
    t
  in
  let parts = [ mk [ 0; 1; 2; 2 ]; mk [ 2; 2; 3 ]; mk [ 3; 3; 3 ] ] in
  let batch = Ingest.batch_digests_parts ~trg_window:4 ~affinity_w:3 parts in
  let cfg = Ingest.config ~num_symbols ~trg_window:4 ~affinity_w:3 () in
  let ing = ingest_all cfg parts in
  check Alcotest.(pair string string) "trimmed per trace" batch
    (Ingest.consensus_digests (Ingest.finalize ing));
  let s = Ingest.stats ing in
  (* [0;1;2] + [2;3] + [3]: the leading 2 and 3 survive because their
     streams restart at the boundary. *)
  check Alcotest.int "kept events" 6 s.kept_events;
  check Alcotest.int "raw events" 10 s.events

(* ---------------------------------------- walker stats + histograms *)

(* Stats are sums over walkers and a pure function of the config: raw
   and trimmed event counts match a direct fold over the traces, and
   every field is identical across jobs counts and repeats. *)
let test_walker_stats_sum () =
  let num_symbols = 48 in
  let traces = user_traces ~seed:13 ~users:9 ~num_symbols ~len:200 in
  let raw = List.fold_left (fun a t -> a + Trace.length t) 0 traces in
  let kept = List.fold_left (fun a t -> a + trimmed_len t) 0 traces in
  let run ~walkers ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let cfg =
          Ingest.config ~num_symbols ~walkers ~shards:2 ~trg_window:12 ~affinity_w:6 ()
        in
        let ing = ingest_all ~pool cfg traces in
        ignore (Ingest.finalize ing);
        Ingest.stats ing)
  in
  List.iter
    (fun walkers ->
      let s = run ~walkers ~jobs:1 in
      check Alcotest.int
        (Printf.sprintf "raw events (walkers=%d)" walkers)
        raw s.Ingest.events;
      check Alcotest.int
        (Printf.sprintf "kept events (walkers=%d)" walkers)
        kept s.Ingest.kept_events;
      check Alcotest.int (Printf.sprintf "traces (walkers=%d)" walkers) 9 s.Ingest.traces;
      (* The whole record — peaks, ops, flushes — must not depend on the
         pool schedule. *)
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "stats identical (walkers=%d jobs=%d)" walkers jobs)
            true
            (run ~walkers ~jobs = s))
        [ 2; 4 ])
    walker_counts

(* Per-walker latency histograms: with W walkers, trace i lands on
   walker i mod W, each observation is folded from the walker's delta
   registry into the main one at the dispatch barrier, and the shared
   ingest.trace_ns histogram still covers every trace. *)
let test_walker_histograms () =
  let num_symbols = 32 in
  let traces = user_traces ~seed:17 ~users:5 ~num_symbols ~len:80 in
  let metrics = U.Metrics.create () in
  U.Pool.with_pool ~jobs:2 (fun pool ->
      let cfg =
        Ingest.config ~num_symbols ~walkers:2 ~shards:2 ~trg_window:8 ~affinity_w:4 ()
      in
      let ing = Ingest.create ~pool ~metrics cfg in
      List.iter (Ingest.ingest_trace ing) traces;
      ignore (Ingest.finalize ing));
  let obs name = U.Metrics.observations (U.Metrics.histogram metrics name) in
  (* Round-robin: traces 0,2,4 -> walker 0; traces 1,3 -> walker 1. *)
  check Alcotest.int "walker 0 observations" 3 (obs "ingest.walker.0.trace_ns");
  check Alcotest.int "walker 1 observations" 2 (obs "ingest.walker.1.trace_ns");
  check Alcotest.int "shared trace histogram covers all" 5 (obs "ingest.trace_ns");
  List.iter
    (fun name ->
      let h = U.Metrics.histogram metrics name in
      Alcotest.(check bool)
        (name ^ " has positive total")
        true
        (U.Metrics.hist_total h > 0))
    [ "ingest.walker.0.trace_ns"; "ingest.walker.1.trace_ns" ]

(* ---------------------------------------- bounded-memory mode *)

let bounded_cfg ~num_symbols ~walkers ~shards =
  Ingest.config ~num_symbols ~walkers ~shards ~trg_window:12 ~affinity_w:6 ~trg_cap:64
    ~wits_cap:96 ~decay_shift:1 ~epoch_traces:4 ~flush_ops:256 ()

let test_bounded_caps_and_determinism () =
  let num_symbols = 64 in
  let traces = user_traces ~seed:23 ~users:16 ~num_symbols ~len:400 in
  let run ~shards ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let ing = ingest_all ~pool (bounded_cfg ~num_symbols ~walkers:1 ~shards) traces in
        let d = Ingest.consensus_digests (Ingest.finalize ing) in
        (d, Ingest.stats ing))
  in
  let reference, s = run ~shards:2 ~jobs:1 in
  (* Under pressure the caps must bite and be respected at flush
     boundaries. *)
  Alcotest.(check bool) "trg evictions fired" true (s.trg_evicted > 0);
  Alcotest.(check bool) "wits evictions fired" true (s.wits_evicted > 0);
  Alcotest.(check bool) "decay fired" true (s.decay_dropped > 0);
  Alcotest.(check bool) "trg peak within cap" true (s.trg_peak_shard <= 64);
  Alcotest.(check bool) "wits peak within cap" true (s.wits_peak_shard <= 96);
  Alcotest.(check bool) "live within caps" true
    (s.trg_live <= 2 * 64 && s.wits_live <= 2 * 96);
  (* Same ingest order => same result: across repeated runs and across
     jobs counts (shard count is part of the config, so it may change the
     approximation — but jobs must not). *)
  List.iter
    (fun jobs ->
      let d, _ = run ~shards:2 ~jobs in
      check Alcotest.(pair string string) (Printf.sprintf "jobs=%d identical" jobs) reference d)
    jobs_counts;
  let again, _ = run ~shards:2 ~jobs:2 in
  check Alcotest.(pair string string) "repeated run identical" reference again

(* Bounded mode with several walkers: the walker count, like the shard
   count, is part of the config — each count gives its own
   approximation, but that approximation (digests AND the full stats
   record: evictions, prunes, peaks, flushes) is identical at every
   jobs count and across repeats. *)
let test_bounded_walker_determinism () =
  let num_symbols = 64 in
  let traces = user_traces ~seed:29 ~users:16 ~num_symbols ~len:400 in
  let run ~walkers ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let ing = ingest_all ~pool (bounded_cfg ~num_symbols ~walkers ~shards:2) traces in
        let d = Ingest.consensus_digests (Ingest.finalize ing) in
        (d, Ingest.stats ing))
  in
  List.iter
    (fun walkers ->
      let ref_d, ref_s = run ~walkers ~jobs:1 in
      Alcotest.(check bool)
        (Printf.sprintf "caps hold (walkers=%d)" walkers)
        true
        (ref_s.Ingest.trg_peak_shard <= 64 && ref_s.Ingest.wits_peak_shard <= 96);
      List.iter
        (fun jobs ->
          let d, s = run ~walkers ~jobs in
          check
            Alcotest.(pair string string)
            (Printf.sprintf "digests deterministic (walkers=%d jobs=%d)" walkers jobs)
            ref_d d;
          Alcotest.(check bool)
            (Printf.sprintf "stats deterministic (walkers=%d jobs=%d)" walkers jobs)
            true (s = ref_s))
        [ 2; 4 ];
      let again_d, again_s = run ~walkers ~jobs:2 in
      check
        Alcotest.(pair string string)
        (Printf.sprintf "repeat identical (walkers=%d)" walkers)
        ref_d again_d;
      Alcotest.(check bool)
        (Printf.sprintf "repeat stats identical (walkers=%d)" walkers)
        true
        (again_s = ref_s))
    [ 1; 2; 4 ]

(* The bounded-mode approximation itself, pinned: caps, decay, pruning
   and epochs all on, at walkers {1,2} x shards {1,3}. The determinism
   tests above only compare runs with each other, so a refactor that
   changed what bounded mode computes (which evictions fire, at which
   stream points) would pass them; it fails here. *)
(* Users replay a Zipf-popular choice of fixed four-block phrases, so
   the blocks of one phrase are affine and the pinned affine set is not
   empty. *)
let phrase_traces ~seed ~users ~len =
  let prng = U.Prng.create ~seed in
  List.init users (fun _ ->
      let t = Trace.create ~num_symbols:32 () in
      for _ = 1 to len do
        let p = U.Prng.zipf prng ~n:8 ~s:0.9 in
        for k = 0 to 3 do
          Trace.push t ((4 * p) + k)
        done
      done;
      t)

let pinned_bounded =
  (* ((walkers, shards), ((trg_digest, affine_digest), stats in
     [stats_fields] order)) *)
  [
    ( (1, 1),
      ( ("a0c8a7ce7e6622d05f168033cd0b0be6", "d0a8d2c0cd3b646c137a8e92d1665cf2"),
        [ 10; 2400; 2400; 8604; 23604; 124; 0; 2; 1; 64; 80; 64; 80; 3233; 12484; 48; 308 ] ) );
    ( (1, 3),
      ( ("493e9a75135ee26b946458a23e6fddf5", "28a790ff6bcda1b006d91925c5ebd8ac"),
        [ 10; 2400; 2400; 8604; 23604; 124; 0; 2; 1; 192; 240; 64; 80; 974; 7839; 21; 574 ] ) );
    ( (2, 1),
      ( ("2dbd2ad2c1d25df5abd1e22244cbeec6", "d41d8cd98f00b204e9800998ecf8427e"),
        [ 10; 2400; 2400; 8604; 23604; 126; 5; 2; 1; 128; 160; 64; 80; 3002; 12035; 92; 561 ] ) );
    ( (2, 3),
      ( ("fd31bbae66e5d499d61440c2d6ae30a5", "28a790ff6bcda1b006d91925c5ebd8ac"),
        [ 10; 2400; 2400; 8604; 23604; 126; 5; 2; 1; 384; 480; 64; 80; 867; 7065; 69; 1058 ] ) );
  ]

let test_bounded_pinned () =
  let traces = phrase_traces ~seed:37 ~users:10 ~len:60 in
  List.iter
    (fun ((walkers, shards), (digests, fields)) ->
      let cfg =
        Ingest.config ~num_symbols:32 ~walkers ~shards ~trg_window:12 ~affinity_w:6 ~trg_cap:64
          ~wits_cap:80 ~decay_shift:1 ~epoch_traces:4 ~flush_ops:256 ()
      in
      let ing = U.Pool.with_pool ~jobs:2 (fun pool -> ingest_all ~pool cfg traces) in
      let label = Printf.sprintf "walkers=%d shards=%d" walkers shards in
      check Alcotest.(pair string string) (label ^ " digests") digests
        (Ingest.consensus_digests (Ingest.finalize ing));
      check
        Alcotest.(list (pair string int))
        (label ^ " stats")
        (List.map2 (fun (name, _) v -> (name, v)) (stats_fields (Ingest.stats ing)) fields)
        (stats_fields (Ingest.stats ing)))
    pinned_bounded

(* Decay arithmetic on a hand-checked example: one epoch of shift-1 decay
   halves (floor) every TRG weight and forgets weight-1 edges. *)
let test_decay_example () =
  let num_symbols = 8 in
  let mk_trace l =
    let t = Trace.create ~num_symbols () in
    List.iter (Trace.push t) l;
    t
  in
  (* Trace [0;1;0;1;0]: each event from the third on recurs within
     window 4 with the other symbol in between, so TRG edge (0,1) ends
     at weight 3. *)
  let cfg_decay =
    Ingest.config ~num_symbols ~trg_window:4 ~affinity_w:4 ~decay_shift:1 ~epoch_traces:1 ()
  in
  let ing = Ingest.create cfg_decay in
  Ingest.ingest_trace ing (mk_trace [ 0; 1; 0; 1; 0 ]);
  (* All of this trace's ops flush at its end_trace epoch, so the full
     weight decays once: 3 lsr 1 = 1. *)
  let c = Ingest.finalize ing in
  check Alcotest.int "decayed weight" 1 (Trg.weight c.trg 0 1);
  (* A second epoch with no new evidence forgets the edge entirely. *)
  Ingest.ingest_trace ing (mk_trace [ 2; 3 ]);
  let c2 = Ingest.finalize ing in
  check Alcotest.int "edge forgotten" 0 (Trg.weight c2.trg 0 1)

(* ---------------------------------------- the service driver *)

(* Flush-on-exit: when users is not a multiple of epoch_traces, the tail
   traces still get an epoch row (marked partial) and an obs snapshot —
   ingested work is never silently absorbed. Each snapshot carries the
   conservation-checked interference probe. *)
let serve_run users =
  let cfg =
    H.Serve.config ~users ~seed:3 ~fuel:600 ~shards:2 ~epoch_traces:2 ~reopt_steps:10
      ~program:"429.mcf" ()
  in
  let obs = U.Obs.create () in
  (H.Serve.run ~obs cfg, obs)

let test_flush_on_exit () =
  let s, obs = serve_run 5 in
  let rows = s.H.Serve.epoch_rows in
  check Alcotest.int "two full epochs + one flushed tail" 3 (List.length rows);
  (match List.rev rows with
  | last :: earlier ->
    Alcotest.(check bool) "tail row is partial" true last.H.Serve.partial;
    check Alcotest.int "tail row covers all ingested traces" 5 last.H.Serve.at_trace;
    List.iter
      (fun r -> Alcotest.(check bool) "earlier rows are full epochs" false r.H.Serve.partial)
      earlier
  | [] -> Alcotest.fail "no epoch rows");
  check Alcotest.int "one obs snapshot per epoch row" (List.length rows)
    (U.Obs.recorded obs);
  List.iter
    (fun sn ->
      Alcotest.(check bool) "snapshot carries the interference probe" true
        (List.mem_assoc "interference" sn.U.Obs.fields);
      Alcotest.(check bool) "snapshot carries the partial flag" true
        (List.mem_assoc "partial" sn.U.Obs.fields))
    (U.Obs.snapshots obs);
  (* The summary JSON carries the flag too. *)
  let json = H.Serve.summary_to_json s in
  (match Option.bind (U.Json.member "epochs" json) U.Json.to_list with
  | Some rows_json ->
    let partials =
      List.filter_map
        (fun r -> Option.bind (U.Json.member "partial" r) U.Json.to_bool)
        rows_json
    in
    check (Alcotest.list Alcotest.bool) "partial flags serialized"
      [ false; false; true ] partials
  | None -> Alcotest.fail "no epochs array in summary json");
  (* Users aligned to the epoch size: no partial row appears. *)
  let s2, obs2 = serve_run 4 in
  Alcotest.(check bool) "no partial row when aligned" true
    (List.for_all (fun r -> not r.H.Serve.partial) s2.H.Serve.epoch_rows);
  check Alcotest.int "aligned run snapshots" (List.length s2.H.Serve.epoch_rows)
    (U.Obs.recorded obs2)

(* The multi-walker service end to end: at walkers=2 the driver's own
   batch verification must pass and the summary must equal the
   single-walker run's digests (exact mode is walker-invariant). *)
let test_serve_multi_walker () =
  let run walkers =
    let cfg =
      H.Serve.config ~users:6 ~seed:5 ~fuel:500 ~walkers ~shards:2 ~epoch_traces:3
        ~verify:true ~program:"429.mcf" ()
    in
    U.Pool.with_pool ~jobs:2 (fun pool -> H.Serve.run ~pool cfg)
  in
  let s1 = run 1 and s2 = run 2 in
  Alcotest.(check (option bool)) "walkers=1 verified" (Some true) s1.H.Serve.digests_match;
  Alcotest.(check (option bool)) "walkers=2 verified" (Some true) s2.H.Serve.digests_match;
  check Alcotest.string "trg digest walker-invariant" s1.H.Serve.trg_digest
    s2.H.Serve.trg_digest;
  check Alcotest.string "affine digest walker-invariant" s1.H.Serve.affine_digest
    s2.H.Serve.affine_digest

(* Spool watching: a file present before the watch and one landing
   mid-watch are both ingested after their stats stabilize; a file from
   a different symbol universe is skipped permanently; the loop returns
   cleanly at its deadline with the digests of a direct ingest. *)
let test_watch_spool () =
  let num_symbols = 32 in
  let traces = user_traces ~seed:31 ~users:2 ~num_symbols ~len:120 in
  let t0 = List.nth traces 0 and t1 = List.nth traces 1 in
  let dir = Filename.temp_file "colayout_spool" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Trace_io.save ~path:(Filename.concat dir "a.trc") t0;
      (* A trace from another universe: permanently skipped, not retried. *)
      let alien = Trace.create ~num_symbols:(num_symbols + 5) () in
      Trace.push alien 0;
      Trace_io.save ~path:(Filename.concat dir "alien.trc") alien;
      let cfg =
        Ingest.config ~num_symbols ~walkers:2 ~shards:2 ~trg_window:10 ~affinity_w:5 ()
      in
      let ing = Ingest.create cfg in
      let on_poll i =
        (* Lands mid-watch; needs two further stable sightings. *)
        if i = 2 then Trace_io.save ~path:(Filename.concat dir "b.trace") t1
      in
      let r = H.Serve.watch_spool ~ing ~dirs:[ dir ] ~poll_ms:20 ~on_poll ~timeout_s:0.5 () in
      check Alcotest.int "both trace files ingested" 2 r.H.Serve.sp_ingested;
      check Alcotest.int "alien universe skipped" 1 r.H.Serve.sp_skipped;
      check (Alcotest.list Alcotest.string) "nothing pending" [] r.H.Serve.sp_pending;
      Alcotest.(check bool) "polled at least twice" true (r.H.Serve.sp_polls >= 2);
      let watched = Ingest.consensus_digests (Ingest.finalize ing) in
      let direct =
        Ingest.consensus_digests (Ingest.finalize (ingest_all cfg [ t0; t1 ]))
      in
      check Alcotest.(pair string string) "watched == direct ingest" direct watched)

let () =
  Alcotest.run "serve"
    [
      ( "ingest",
        [
          Alcotest.test_case "multi-walker online == batch across walkers x shards x jobs"
            `Quick test_walkers_equal_batch;
          QCheck_alcotest.to_alcotest prop_walker_partition;
          Alcotest.test_case "chunked and file feeds equivalent" `Quick
            test_chunked_and_file_feeds;
          Alcotest.test_case "feed_file all or nothing" `Quick test_feed_file_all_or_nothing;
          Alcotest.test_case "dead-witness pruning exact" `Quick test_prune_exactness;
          Alcotest.test_case "per-trace trimming" `Quick test_per_trace_trimming;
          Alcotest.test_case "walker stats sum + schedule-invariance" `Quick
            test_walker_stats_sum;
          Alcotest.test_case "per-walker latency histograms fold" `Quick
            test_walker_histograms;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "caps + determinism under pressure" `Quick
            test_bounded_caps_and_determinism;
          Alcotest.test_case "per-walker-count determinism" `Quick
            test_bounded_walker_determinism;
          Alcotest.test_case "approximation pinned" `Quick test_bounded_pinned;
          Alcotest.test_case "decay example" `Quick test_decay_example;
        ] );
      ( "service",
        [
          Alcotest.test_case "flush-on-exit partial epoch" `Slow test_flush_on_exit;
          Alcotest.test_case "multi-walker serve verified" `Slow test_serve_multi_walker;
          Alcotest.test_case "spool watch loop" `Quick test_watch_spool;
        ] );
    ]

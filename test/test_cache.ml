open Colayout_cache

let check = Alcotest.check

let test_params () =
  let p = Params.default_l1i in
  check Alcotest.int "sets" 128 p.Params.num_sets;
  check Alcotest.int "lines" 512 (Params.lines_total p);
  check Alcotest.int "line_of_addr" 2 (Params.line_of_addr p 128);
  check Alcotest.int "set wraps" 0 (Params.set_of_line p 128);
  check Alcotest.int "set_of_addr" 1 (Params.set_of_addr p 64);
  check (Alcotest.pair Alcotest.int Alcotest.int) "lines spanned" (1, 2)
    (Params.lines_spanned p ~addr:100 ~bytes:64);
  check (Alcotest.pair Alcotest.int Alcotest.int) "single line" (0, 0)
    (Params.lines_spanned p ~addr:0 ~bytes:64);
  check Alcotest.string "to_string" "32KB/4-way/64B (128 sets)" (Params.to_string p);
  check Alcotest.string "small to_string" "512B/1-way/64B (8 sets)"
    (Params.to_string (Params.make ~size_bytes:512 ~assoc:1 ~line_bytes:64));
  Alcotest.check_raises "non pow2" (Invalid_argument "Params.make: size must be a power of two")
    (fun () -> ignore (Params.make ~size_bytes:1000 ~assoc:4 ~line_bytes:64))

let test_cache_stats () =
  let s = Cache_stats.create ~threads:2 () in
  Cache_stats.record s ~thread:0 ~hit:true;
  Cache_stats.record s ~thread:0 ~hit:false;
  Cache_stats.record s ~thread:1 ~hit:false;
  Cache_stats.record_prefetch s;
  check Alcotest.int "accesses" 3 (Cache_stats.accesses s);
  check Alcotest.int "misses" 2 (Cache_stats.misses s);
  check Alcotest.int "hits" 1 (Cache_stats.hits s);
  check Alcotest.int "prefetches" 1 (Cache_stats.prefetches s);
  check (Alcotest.float 1e-9) "thread 0 ratio" 0.5 (Cache_stats.thread_miss_ratio s 0);
  check (Alcotest.float 1e-9) "thread 1 ratio" 1.0 (Cache_stats.thread_miss_ratio s 1);
  let s2 = Cache_stats.create ~threads:2 () in
  Cache_stats.record s2 ~thread:0 ~hit:false;
  Cache_stats.merge_into ~dst:s s2;
  check Alcotest.int "merged accesses" 4 (Cache_stats.accesses s)

let test_cache_stats_merged_evictions () =
  (* set_evictions is an absolute sync from the stats' own simulator;
     merge_into adds another run's evictions. The two must commute: syncing
     again after a merge must not erase the merged contribution. *)
  let a = Cache_stats.create () and b = Cache_stats.create () in
  Cache_stats.set_evictions a 5;
  Cache_stats.set_evictions b 3;
  check Alcotest.int "own evictions" 5 (Cache_stats.evictions a);
  Cache_stats.merge_into ~dst:a b;
  check Alcotest.int "merged evictions" 8 (Cache_stats.evictions a);
  (* The owning simulator re-syncs its (absolute, now larger) count. *)
  Cache_stats.set_evictions a 7;
  check Alcotest.int "re-sync keeps merged" 10 (Cache_stats.evictions a);
  (* Idempotent: syncing the same absolute value changes nothing. *)
  Cache_stats.set_evictions a 7;
  check Alcotest.int "sync idempotent" 10 (Cache_stats.evictions a)

(* 256 B / 2-way / 64 B lines: 2 sets, 4 lines of capacity. Even lines map
   to set 0, odd to set 1 — small enough to classify every miss by hand. *)
let classify_params = Params.make ~size_bytes:256 ~assoc:2 ~line_bytes:64

let run_classified lines =
  let c = Set_assoc.create classify_params in
  let stats = Cache_stats.create () in
  let sink = Profile_sink.create ~params:classify_params () in
  List.iter (fun line -> ignore (Icache.access ~sink c stats ~thread:0 ~block:line line)) lines;
  sink

let test_classify_cold () =
  (* First-ever touches only: every miss is cold. *)
  let sink = run_classified [ 0; 1; 2; 3 ] in
  check Alcotest.int "accesses" 4 (Profile_sink.accesses sink);
  check Alcotest.int "misses" 4 (Profile_sink.misses sink);
  check Alcotest.int "cold" 4 (Profile_sink.cold_misses sink);
  check Alcotest.int "capacity" 0 (Profile_sink.capacity_misses sink);
  check Alcotest.int "conflict" 0 (Profile_sink.conflict_misses sink)

let test_classify_conflict () =
  (* Lines 0, 2, 4 all map to set 0 (2 ways): the third evicts line 0 even
     though the cache (capacity 4) could hold all three. Re-touching 0 is a
     miss here but a hit in the fully-associative shadow — a conflict miss,
     by construction. *)
  let sink = run_classified [ 0; 2; 4; 0 ] in
  check Alcotest.int "accesses" 4 (Profile_sink.accesses sink);
  check Alcotest.int "misses" 4 (Profile_sink.misses sink);
  check Alcotest.int "cold" 3 (Profile_sink.cold_misses sink);
  check Alcotest.int "capacity" 0 (Profile_sink.capacity_misses sink);
  check Alcotest.int "conflict" 1 (Profile_sink.conflict_misses sink);
  (* The conflict is attributed to the block that re-missed (block=line 0
     here), with its access/miss counts intact. *)
  let row =
    List.find (fun r -> r.Profile_sink.block = 0) (Profile_sink.block_rows sink)
  in
  check Alcotest.int "block 0 accesses" 2 row.Profile_sink.b_accesses;
  check Alcotest.int "block 0 misses" 2 row.Profile_sink.b_misses;
  check Alcotest.int "block 0 cold" 1 row.Profile_sink.b_cold;
  check Alcotest.int "block 0 conflict" 1 row.Profile_sink.b_conflict

let test_classify_capacity () =
  (* A cyclic sweep over 8 lines — double the 4-line capacity — misses on
     every access in the second pass, in the shadow cache too (reuse
     distance 8 > 4): pure capacity misses, zero conflict. *)
  let sweep = List.init 8 Fun.id in
  let sink = run_classified (sweep @ sweep) in
  check Alcotest.int "accesses" 16 (Profile_sink.accesses sink);
  check Alcotest.int "misses" 16 (Profile_sink.misses sink);
  check Alcotest.int "cold" 8 (Profile_sink.cold_misses sink);
  check Alcotest.int "capacity" 8 (Profile_sink.capacity_misses sink);
  check Alcotest.int "conflict" 0 (Profile_sink.conflict_misses sink)

let test_sink_per_set () =
  let sink = run_classified [ 0; 2; 4; 0; 1 ] in
  check Alcotest.int "num_sets" 2 (Profile_sink.num_sets sink);
  let a0, m0, e0 = Profile_sink.set_counters sink ~set:0 in
  let a1, m1, e1 = Profile_sink.set_counters sink ~set:1 in
  check Alcotest.int "set0 accesses" 4 a0;
  check Alcotest.int "set0 misses" 4 m0;
  (* Set 0 saw lines 0,2,4,0 through 2 ways: evictions on the 3rd and 4th
     fills. Set 1 saw one cold fill of an empty way. *)
  check Alcotest.int "set0 evictions" 2 e0;
  check Alcotest.int "set1" 1 a1;
  check Alcotest.int "set1 misses" 1 m1;
  check Alcotest.int "set1 evictions" 0 e1;
  check Alcotest.int "set sums = totals" (Profile_sink.accesses sink) (a0 + a1);
  check Alcotest.int "eviction total" (Profile_sink.evictions sink) (e0 + e1)

let test_set_assoc_lru () =
  (* 1 set, 2 ways: a tiny cache with observable LRU. *)
  let p = Params.make ~size_bytes:128 ~assoc:2 ~line_bytes:64 in
  let c = Set_assoc.create p in
  check Alcotest.bool "cold miss" false (Set_assoc.access_line c 1);
  check Alcotest.bool "hit" true (Set_assoc.access_line c 1);
  check Alcotest.bool "second line" false (Set_assoc.access_line c 2);
  check Alcotest.bool "1 still resident" true (Set_assoc.access_line c 1);
  (* Insert 3: evicts LRU = 2. *)
  check Alcotest.bool "3 misses" false (Set_assoc.access_line c 3);
  check Alcotest.bool "2 evicted" false (Set_assoc.probe_line c 2);
  check Alcotest.bool "1 survived" true (Set_assoc.probe_line c 1);
  check Alcotest.int "occupancy" 2 (Set_assoc.occupancy c);
  Set_assoc.invalidate_all c;
  check Alcotest.int "after invalidate" 0 (Set_assoc.occupancy c)

let test_set_mapping_isolation () =
  let p = Params.make ~size_bytes:512 ~assoc:1 ~line_bytes:64 in
  (* 8 sets, direct-mapped: lines 0 and 8 collide; 0 and 1 do not. *)
  let c = Set_assoc.create p in
  ignore (Set_assoc.access_line c 0);
  ignore (Set_assoc.access_line c 1);
  check Alcotest.bool "no conflict different sets" true (Set_assoc.probe_line c 0);
  ignore (Set_assoc.access_line c 8);
  check Alcotest.bool "conflict same set" false (Set_assoc.probe_line c 0);
  check Alcotest.bool "line 1 untouched" true (Set_assoc.probe_line c 1)

(* Random power-of-two geometries (assoc 1-8, 1-64 sets) driven by mixed
   access / fill / probe / invalidate streams, against a reference of one
   fully-associative LRU of capacity [assoc] per set. Every step must
   agree on the hit, the evicted victim and the eviction count, and the
   resident lines must match throughout. *)
type sa_op = Access of int | Fill of int | Probe of int | Invalidate

let sa_case =
  let open QCheck.Gen in
  let gen =
    int_range 0 3 >>= fun a ->
    int_range 0 6 >>= fun s ->
    let assoc = 1 lsl a and sets = 1 lsl s in
    let line = int_bound ((3 * assoc * sets) - 1) in
    list_size (int_bound 120)
      (frequency
         [
           (6, map (fun l -> Access l) line);
           (2, map (fun l -> Fill l) line);
           (2, map (fun l -> Probe l) line);
           (1, return Invalidate);
         ])
    >|= fun ops -> (assoc, sets, ops)
  in
  let print (assoc, sets, ops) =
    Printf.sprintf "assoc=%d sets=%d [%s]" assoc sets
      (String.concat "; "
         (List.map
            (function
              | Access l -> Printf.sprintf "A%d" l
              | Fill l -> Printf.sprintf "F%d" l
              | Probe l -> Printf.sprintf "P%d" l
              | Invalidate -> "I")
            ops))
  in
  QCheck.make ~print gen

let set_assoc_matches_fully_assoc =
  QCheck.Test.make ~name:"set-assoc equals per-set fully-associative LRU" ~count:300 sa_case
    (fun (assoc, sets, ops) ->
      let p = Params.make ~size_bytes:(assoc * sets * 64) ~assoc ~line_bytes:64 in
      let sa = Set_assoc.create p in
      let fresh () = Array.init sets (fun _ -> Fully_assoc.create ~capacity:assoc) in
      let model = ref (fresh ()) and dropped = ref 0 in
      let model_evictions () =
        Array.fold_left (fun n fa -> n + Fully_assoc.evictions fa) !dropped !model
      in
      (* The model's verdict for an insertion: hit, cold fill, or victim. *)
      let model_access l =
        let fa = !model.(Params.set_of_line p l) in
        let before = Fully_assoc.resident_lines fa in
        if Fully_assoc.access_line fa l then Set_assoc.hit
        else
          match List.filter (fun v -> not (Fully_assoc.probe_line fa v)) before with
          | [ v ] -> v
          | _ -> Set_assoc.cold
      in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Access l -> Set_assoc.access sa l = model_access l
            | Fill l -> Set_assoc.fill_line sa l = model_access l
            | Probe l ->
              Set_assoc.probe_line sa l = Fully_assoc.probe_line !model.(Params.set_of_line p l) l
            | Invalidate ->
              Set_assoc.invalidate_all sa;
              dropped := model_evictions ();
              model := fresh ();
              true
          in
          agree
          && Set_assoc.evictions sa = model_evictions ()
          && Set_assoc.resident_lines sa
             = List.sort compare
                 (List.concat_map Fully_assoc.resident_lines (Array.to_list !model)))
        ops)

let test_fully_assoc_eviction () =
  let c = Fully_assoc.create ~capacity:2 in
  ignore (Fully_assoc.access_line c 1);
  ignore (Fully_assoc.access_line c 2);
  ignore (Fully_assoc.access_line c 1);
  (* MRU order: 1, 2. Adding 3 evicts 2. *)
  ignore (Fully_assoc.access_line c 3);
  check Alcotest.bool "2 evicted" false (Fully_assoc.access_line c 2);
  check (Alcotest.list Alcotest.int) "resident" [ 2; 3 ]
    (Fully_assoc.resident_lines c |> List.filteri (fun i _ -> i < 2));
  check Alcotest.int "occupancy" 2 (Fully_assoc.occupancy c)

let test_prefetch () =
  let p = Params.default_l1i in
  let c = Set_assoc.create p in
  let s = Cache_stats.create () in
  let pf = Prefetch.create ~degree:2 () in
  check Alcotest.int "degree" 2 (Prefetch.degree pf);
  check Alcotest.bool "demand miss" false (Icache.access ~prefetch:pf c s ~thread:0 ~block:0 10);
  check Alcotest.int "prefetched" 2 (Cache_stats.prefetches s);
  check Alcotest.int "one demand access" 1 (Cache_stats.accesses s);
  check Alcotest.bool "line 11 filled" true (Set_assoc.probe_line c 11);
  check Alcotest.bool "line 12 filled" true (Set_assoc.probe_line c 12);
  check Alcotest.bool "line 13 NOT filled" false (Set_assoc.probe_line c 13);
  (* Hits prefetch nothing; a miss whose next lines are resident refills none. *)
  check Alcotest.bool "prefetched line hits" true
    (Icache.access ~prefetch:pf c s ~thread:0 ~block:0 11);
  check Alcotest.bool "line 9 misses" false (Icache.access ~prefetch:pf c s ~thread:0 ~block:0 9);
  check Alcotest.int "no double prefetch" 2 (Cache_stats.prefetches s)

let layout_of_blocks specs : Icache.layout =
  let addr = Array.map fst specs and bytes = Array.map snd specs in
  { Icache.addr; bytes }

let test_icache_solo () =
  let params = Params.default_l1i in
  (* Two blocks in the same line; one spanning two lines. *)
  let layout = layout_of_blocks [| (0, 32); (32, 32); (100, 64) |] in
  let trace = Colayout_util.Int_vec.of_list [ 0; 1; 2; 0; 1; 2 ] in
  let stats = Icache.solo ~params ~layout trace in
  (* Fetches: blk0 -> line 0 (miss); blk1 -> line 0 (hit); blk2 -> lines 1,2
     (2 misses); then all hits: 3 misses, 8 accesses. *)
  check Alcotest.int "accesses" 8 (Cache_stats.accesses stats);
  check Alcotest.int "misses" 3 (Cache_stats.misses stats)

let test_icache_lines_of_block () =
  let params = Params.default_l1i in
  let layout = layout_of_blocks [| (60, 10) |] in
  check (Alcotest.pair Alcotest.int Alcotest.int) "straddles" (0, 1)
    (Icache.lines_of_block ~params ~layout 0)

let test_icache_shared_threads_isolated_addresses () =
  let params = Params.default_l1i in
  let layout = layout_of_blocks [| (0, 64) |] in
  let t0 = Colayout_util.Int_vec.of_list [ 0; 0; 0; 0 ] in
  let t1 = Colayout_util.Int_vec.of_list [ 0; 0; 0; 0 ] in
  let stats = Icache.shared ~params ~layouts:(layout, layout) (t0, t1) in
  (* Same virtual line but different processes: each thread misses once. *)
  check Alcotest.int "thread0 misses" 1 (Cache_stats.thread_misses stats 0);
  check Alcotest.int "thread1 misses" 1 (Cache_stats.thread_misses stats 1);
  check Alcotest.bool "both ran" true
    (Cache_stats.thread_accesses stats 0 >= 4 && Cache_stats.thread_accesses stats 1 >= 4)

let test_icache_shared_rates () =
  let params = Params.default_l1i in
  let layout = layout_of_blocks [| (0, 64); (64, 64) |] in
  let mk () = Colayout_util.Int_vec.of_list (List.init 100 (fun i -> i mod 2)) in
  let stats = Icache.shared ~rates:(1.0, 0.25) ~params ~layouts:(layout, layout) (mk (), mk ()) in
  (* Both complete a pass regardless of rate. *)
  check Alcotest.bool "slow thread still completes" true (Cache_stats.thread_accesses stats 1 >= 100);
  Alcotest.check_raises "bad rate" (Invalid_argument "Icache.shared: rates must be positive")
    (fun () -> ignore (Icache.shared ~rates:(0.0, 1.0) ~params ~layouts:(layout, layout) (mk (), mk ())))

let test_icache_shared_contention () =
  let params = Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  (* Working set of each thread = 8 lines; cache holds 16: alone each fits,
     together they collide in sets. *)
  let layout = layout_of_blocks (Array.init 8 (fun i -> (i * 64, 64))) in
  let mk () = Colayout_util.Int_vec.of_list (List.init 400 (fun i -> i mod 8)) in
  let solo = Icache.solo ~params ~layout (mk ()) in
  let shared = Icache.shared ~params ~layouts:(layout, layout) (mk (), mk ()) in
  (* The shared run may execute a handful of extra (hit) accesses past its
     first pass while the peer drains, so allow a sliver of slack. *)
  check Alcotest.bool "corun miss ratio >= solo" true
    (Cache_stats.thread_miss_ratio shared 0 >= Cache_stats.miss_ratio solo -. 0.005)

let () =
  Alcotest.run "cache"
    [
      ("params", [ Alcotest.test_case "geometry" `Quick test_params ]);
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_cache_stats;
          Alcotest.test_case "merged evictions" `Quick test_cache_stats_merged_evictions;
        ] );
      ( "classify",
        [
          Alcotest.test_case "cold" `Quick test_classify_cold;
          Alcotest.test_case "conflict" `Quick test_classify_conflict;
          Alcotest.test_case "capacity" `Quick test_classify_capacity;
          Alcotest.test_case "per-set counters" `Quick test_sink_per_set;
        ] );
      ( "set_assoc",
        [
          Alcotest.test_case "lru" `Quick test_set_assoc_lru;
          Alcotest.test_case "set mapping" `Quick test_set_mapping_isolation;
          QCheck_alcotest.to_alcotest set_assoc_matches_fully_assoc;
        ] );
      ("fully_assoc", [ Alcotest.test_case "eviction" `Quick test_fully_assoc_eviction ]);
      ("prefetch", [ Alcotest.test_case "next line" `Quick test_prefetch ]);
      ( "icache",
        [
          Alcotest.test_case "solo" `Quick test_icache_solo;
          Alcotest.test_case "lines_of_block" `Quick test_icache_lines_of_block;
          Alcotest.test_case "shared isolation" `Quick test_icache_shared_threads_isolated_addresses;
          Alcotest.test_case "shared rates" `Quick test_icache_shared_rates;
          Alcotest.test_case "shared contention" `Quick test_icache_shared_contention;
        ] );
    ]

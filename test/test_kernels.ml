(* Differential tests for the PR-1 packed-int kernels: the rewritten
   [Trg.build] (flat packed table + CSR finalization) and
   [Affinity.affine_pairs] (packed witness payloads) must produce results
   identical to the seed tuple-Hashtbl implementations, which live on in
   [Kernel_baseline] as oracles. Traces are randomized but seeded ([Prng]),
   and the windows cover the paper-relevant range up to w ≈ 512
   (32 KB / 64 B line). Also covers [Int_pair_tbl] itself against a
   [Hashtbl] model, and the new bounded/no-depth LRU-stack entry points. *)

open Colayout
open Colayout_trace
module U = Colayout_util

let check = Alcotest.check

(* Zipf-popularity trace: skewed like real block traces but with enough
   deep reuse to exercise large windows. *)
let random_trace ~seed ~num_symbols ~len =
  let prng = U.Prng.create ~seed in
  let t = Trace.create ~num_symbols () in
  for _ = 1 to len do
    Trace.push t (U.Prng.zipf prng ~n:num_symbols ~s:0.9)
  done;
  Trim.trim t

let windows = [ 2; 8; 64; 512 ]

let edge_list = Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)

let pair_lst = Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)

(* ------------------------------------------------- TRG: packed vs seed *)

let test_trg_differential () =
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          let t = random_trace ~seed ~num_symbols:700 ~len:4_000 in
          let packed = Trg.build ~window:w t in
          let legacy = Kernel_baseline.trg_build ~window:w t in
          check edge_list
            (Printf.sprintf "edge sets identical (w=%d seed=%d)" w seed)
            (Kernel_baseline.trg_edges legacy) (Trg.edges packed);
          (* Point queries through the CSR binary search, both argument
             orders, plus degrees. *)
          let prng = U.Prng.create ~seed:(seed + 1) in
          for _ = 1 to 500 do
            let x = U.Prng.int prng 700 and y = U.Prng.int prng 700 in
            check Alcotest.int "weight" (Kernel_baseline.trg_weight legacy x y)
              (Trg.weight packed x y);
            check Alcotest.int "weight sym" (Trg.weight packed x y) (Trg.weight packed y x)
          done;
          for x = 0 to 699 do
            check Alcotest.int "degree" (Hashtbl.length legacy.Kernel_baseline.adj.(x))
              (Trg.degree packed x)
          done)
        [ 11; 42 ])
    windows

let test_trg_unbounded_differential () =
  let t = random_trace ~seed:7 ~num_symbols:200 ~len:2_000 in
  let packed = Trg.build t in
  let legacy = Kernel_baseline.trg_build t in
  check edge_list "unbounded edge sets identical" (Kernel_baseline.trg_edges legacy)
    (Trg.edges packed)

let test_trg_universe_guard () =
  let t = Trace.create ~num_symbols:(1 lsl 31) () in
  Alcotest.check_raises "2^31 symbols rejected"
    (Invalid_argument "Trg: num_symbols >= 2^31 exceeds the packed-key coordinate bound")
    (fun () -> ignore (Trg.build t))

(* -------------------------------------------- Affinity: packed vs seed *)

let test_affinity_differential () =
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          let t = random_trace ~seed ~num_symbols:700 ~len:4_000 in
          let packed = Affinity.affine_pairs t ~w in
          check pair_lst
            (Printf.sprintf "pair sets identical (w=%d seed=%d)" w seed)
            (Kernel_baseline.affine_pairs t ~w)
            (Affinity.pair_list packed))
        [ 11; 42 ])
    windows

let test_affinity_universe_guard () =
  let t = Trace.create ~num_symbols:(1 lsl 31) () in
  Alcotest.check_raises "2^31 symbols rejected"
    (Invalid_argument "Affinity: num_symbols >= 2^31 exceeds the packed-key coordinate bound")
    (fun () -> ignore (Affinity.affine_pairs t ~w:4))

(* The packed efficient algorithm must still agree with the naive oracle on
   small traces (the seed property, re-stated against the new kernels). *)
let packed_subset_of_naive =
  QCheck.Test.make ~name:"packed efficient affinity is a subset of Definition 3" ~count:100
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 2 40) (int_bound 6)))
    (fun (w, xs) ->
      let t = Trim.trim (Trace.of_list ~num_symbols:7 xs) in
      QCheck.assume (Trace.length t >= 2);
      let eff = Affinity.affine_pairs t ~w in
      let exact = Affinity.affine_pairs_naive t ~w in
      List.for_all (fun (x, y) -> Affinity.is_affine exact x y) (Affinity.pair_list eff))

(* ------------------------------------------- Int_pair_tbl vs a Hashtbl *)

let test_pack_roundtrip () =
  let m = U.Int_pair_tbl.max_coord in
  List.iter
    (fun (x, y) ->
      let k = U.Int_pair_tbl.pack x y in
      check Alcotest.int "fst" x (U.Int_pair_tbl.fst_of k);
      check Alcotest.int "snd" y (U.Int_pair_tbl.snd_of k);
      check Alcotest.bool "non-negative" true (k >= 0))
    [ (0, 0); (1, 2); (m, m); (m, 0); (0, m); (12345, 67890) ]

let tbl_matches_model =
  QCheck.Test.make ~name:"Int_pair_tbl matches a Hashtbl model under random ops" ~count:200
    QCheck.(list (triple (int_bound 3) (int_bound 40) (int_range (-5) 50)))
    (fun ops ->
      let t = U.Int_pair_tbl.create ~capacity:2 () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (op, key, v) ->
          match op with
          | 0 -> (
            U.Int_pair_tbl.replace t key v;
            Hashtbl.replace model key v)
          | 1 ->
            let got = U.Int_pair_tbl.add_to t key v in
            let cur = Option.value ~default:0 (Hashtbl.find_opt model key) in
            Hashtbl.replace model key (cur + v);
            assert (got = cur + v)
          | 2 -> (
            U.Int_pair_tbl.remove t key;
            Hashtbl.remove model key)
          | _ ->
            assert (
              U.Int_pair_tbl.find t key ~default:min_int
              = Option.value ~default:min_int (Hashtbl.find_opt model key)))
        ops;
      U.Int_pair_tbl.length t = Hashtbl.length model
      && U.Int_pair_tbl.fold
           (fun k v ok -> ok && Hashtbl.find_opt model k = Some v)
           t true)

let test_tbl_negative_key_rejected () =
  let t = U.Int_pair_tbl.create () in
  Alcotest.check_raises "negative key" (Invalid_argument "Int_pair_tbl: negative key")
    (fun () -> U.Int_pair_tbl.replace t (-3) 1);
  check Alcotest.bool "mem negative" false (U.Int_pair_tbl.mem t (-3));
  check Alcotest.int "find negative" 0 (U.Int_pair_tbl.find t (-3) ~default:0)

(* [replace] and [add_to] build no closure: once presized, 10k bumps leave
   the minor heap untouched (measured against an empty thunk, so the cost
   of reading the counter cancels out). *)
let test_tbl_no_alloc () =
  let t = U.Int_pair_tbl.create ~capacity:20_000 () in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let bumps () =
    for i = 0 to 4_999 do
      U.Int_pair_tbl.replace t (U.Int_pair_tbl.pack i (i + 1)) i;
      ignore (U.Int_pair_tbl.add_to t (U.Int_pair_tbl.pack (i + 1) i) 3)
    done
  in
  bumps ();
  check (Alcotest.float 0.0) "no minor words per replace/add_to" (minor_words ignore)
    (minor_words bumps);
  check Alcotest.int "bindings" 10_000 (U.Int_pair_tbl.length t)

(* --------------------------------------- Lru_stack bounded entry points *)

let test_access_bounded () =
  let s = Lru_stack.create () in
  List.iter (fun x -> ignore (Lru_stack.access s x)) [ 0; 1; 2; 3 ];
  (* Stack is now 3 2 1 0; symbol 0 sits at depth 4. *)
  check (Alcotest.option Alcotest.int) "too deep" None (Lru_stack.access_bounded s ~limit:3 0);
  (* The bounded miss still moved 0 to the top. *)
  check (Alcotest.option Alcotest.int) "moved to front" (Some 1)
    (Lru_stack.access_bounded s ~limit:8 0);
  check (Alcotest.option Alcotest.int) "within limit" (Some 4)
    (Lru_stack.access_bounded s ~limit:4 1);
  check (Alcotest.option Alcotest.int) "first access" None (Lru_stack.access_bounded s ~limit:8 9)

let test_touch () =
  let s = Lru_stack.create () in
  Lru_stack.touch s 5;
  Lru_stack.touch s 6;
  Lru_stack.touch s 5;
  check (Alcotest.list Alcotest.int) "touch orders like access" [ 5; 6 ] (Lru_stack.contents s);
  check Alcotest.int "depth" 2 (Lru_stack.depth s);
  check (Alcotest.option Alcotest.int) "access agrees" (Some 2) (Lru_stack.access s 6)

(* ------------------------------- Optimizer kernels: new vs seed oracle *)

(* Bb and fn traces of every Spec workload at a test fuel small enough
   that the seed oracles stay cheap. *)
let workload_traces =
  lazy
    (List.map
       (fun name ->
         let p = Colayout_workloads.Spec.build name in
         let a =
           Optimizer.analyze p (Colayout_exec.Interp.test_input ~seed:3 ~max_blocks:20_000 ())
         in
         (name, a))
       Colayout_workloads.Spec.names)

let config = Optimizer.default_config

let with_decisions f =
  let d = Decision_trace.create () in
  let r = f (Some d) in
  (r, Decision_trace.events d)

let check_reduce ~label trg ~slots =
  let r, ev = with_decisions (fun decisions -> Trg_reduce.reduce ?decisions trg ~slots) in
  let r0, ev0 =
    with_decisions (fun decisions -> Kernel_baseline.trg_reduce ?decisions trg ~slots)
  in
  r.Trg_reduce.order = r0.Trg_reduce.order
  && r.Trg_reduce.slot_lists = r0.Trg_reduce.slot_lists
  && (ev = ev0 || Alcotest.failf "%s: decision events differ" label)

let test_reduce_workloads () =
  List.iter
    (fun (name, (a : Optimizer.analysis)) ->
      List.iter
        (fun (kind, trace, block_bytes) ->
          let cache_multiplier = config.cache_multiplier and params = config.params in
          let window = Trg.recommended_window ~params ~block_bytes ~cache_multiplier in
          let slots = Trg_reduce.slots_for ~params ~block_bytes ~cache_multiplier in
          let label = Printf.sprintf "%s %s" name kind in
          check Alcotest.bool label true
            (check_reduce ~label (Trg.build ~window trace) ~slots))
        [ ("bb", a.bb, config.bb_block_bytes); ("fn", a.fn, config.func_block_bytes) ])
    (Lazy.force workload_traces)

(* Random weighted graphs: few distinct weights, so heap ties (and their
   (x, y) tie-break) decide most pops. *)
let reduce_matches_seed =
  QCheck.Test.make ~name:"reduce equals the seed on random weighted graphs" ~count:300
    QCheck.(
      triple (int_range 2 40) (oneofl [ 1; 2; 3; 256 ])
        (list_of_size Gen.(int_range 0 120) (triple (int_bound 39) (int_bound 39) (int_range 1 3))))
    (fun (n, slots, raw) ->
      let edges =
        List.filter_map (fun (x, y, w) -> if x mod n = y mod n then None else Some (x mod n, y mod n, w)) raw
      in
      check_reduce ~label:"random graph" (Trg.of_edges ~num_nodes:n edges) ~slots)

let pp_hierarchy h = Format.asprintf "%a" Affinity_hierarchy.pp h

let check_hierarchy ?(algo = Affinity_hierarchy.Efficient) ~label ~ws trace =
  let h, ev =
    with_decisions (fun decisions -> Affinity_hierarchy.build ?decisions ~algo ~ws trace)
  in
  let h0, ev0 =
    with_decisions (fun decisions ->
        Kernel_baseline.affinity_hierarchy ?decisions ~algo ~ws trace)
  in
  (pp_hierarchy h = pp_hierarchy h0 || Alcotest.failf "%s: dendrograms differ" label)
  && (Affinity_hierarchy.order h = Affinity_hierarchy.order h0
     || Alcotest.failf "%s: orders differ" label)
  && (ev = ev0 || Alcotest.failf "%s: decision events differ" label)

let test_hierarchy_workloads () =
  List.iter
    (fun (name, (a : Optimizer.analysis)) ->
      List.iter
        (fun (kind, trace) ->
          let label = Printf.sprintf "%s %s" name kind in
          check Alcotest.bool label true (check_hierarchy ~label ~ws:config.ws trace))
        [ ("bb", a.bb); ("fn", a.fn) ])
    (Lazy.force workload_traces)

(* Strictly ascending windows from positive gaps: covers [1], single
   windows and sparse lists. *)
let ws_gen =
  QCheck.Gen.(
    map
      (fun gaps ->
        List.rev (snd (List.fold_left (fun (w, acc) g -> (w + g, (w + g) :: acc)) (0, []) gaps)))
      (list_size (int_range 1 6) (int_range 1 5)))

let small_trace_gen ~syms = QCheck.Gen.(list_size (int_range 2 120) (int_bound (syms - 1)))

let hierarchy_matches_seed =
  QCheck.Test.make ~name:"one-walk hierarchy equals the per-window seed" ~count:300
    QCheck.(pair (make ws_gen) (make (small_trace_gen ~syms:12)))
    (fun (ws, xs) ->
      let t = Trim.trim (Trace.of_list ~num_symbols:12 xs) in
      check_hierarchy ~label:"random trace" ~ws t)

let exact_hierarchy_matches_seed =
  QCheck.Test.make ~name:"exact hierarchy equals the per-window seed" ~count:100
    QCheck.(pair (make ws_gen) (make (small_trace_gen ~syms:7)))
    (fun (ws, xs) ->
      let t = Trim.trim (Trace.of_list ~num_symbols:7 xs) in
      check_hierarchy ~algo:Affinity_hierarchy.Exact ~label:"random trace (exact)" ~ws t)

(* Every prefix level of the one walk is the per-window kernel's pair set. *)
let test_pair_levels_per_window () =
  let ws = [ 1; 2; 3; 5; 8; 13; 21; 64 ] in
  List.iter
    (fun seed ->
      let t = random_trace ~seed ~num_symbols:300 ~len:4_000 in
      let ls = Affinity.pair_levels t ~ws in
      List.iteri
        (fun i w ->
          let at_i = ref [] in
          Affinity.iter_levels (fun x y l -> if l <= i then at_i := (x, y) :: !at_i) ls;
          check pair_lst
            (Printf.sprintf "level <= %d is the w=%d pair set (seed=%d)" i w seed)
            (Affinity.pair_list (Affinity.affine_pairs t ~w))
            (List.sort compare !at_i))
        ws)
    [ 5; 6 ]

let test_pair_levels_guards () =
  let t = Trace.of_list ~num_symbols:3 [ 0; 1; 2 ] in
  let bad = Invalid_argument "Affinity.pair_levels: ws must be positive and strictly ascending" in
  Alcotest.check_raises "empty ws" bad (fun () -> ignore (Affinity.pair_levels t ~ws:[]));
  Alcotest.check_raises "not ascending" bad (fun () ->
      ignore (Affinity.pair_levels t ~ws:[ 2; 2 ]));
  Alcotest.check_raises "too many windows"
    (Invalid_argument "Affinity.pair_levels: more than max_windows windows") (fun () ->
      ignore (Affinity.pair_levels t ~ws:(List.init (Affinity.max_windows + 1) succ)))

let () =
  Alcotest.run "kernels"
    [
      ( "trg-differential",
        [
          Alcotest.test_case "packed = seed across w" `Slow test_trg_differential;
          Alcotest.test_case "packed = seed unbounded" `Quick test_trg_unbounded_differential;
          Alcotest.test_case "2^31 guard" `Quick test_trg_universe_guard;
        ] );
      ( "affinity-differential",
        [
          Alcotest.test_case "packed = seed across w" `Slow test_affinity_differential;
          Alcotest.test_case "2^31 guard" `Quick test_affinity_universe_guard;
          QCheck_alcotest.to_alcotest packed_subset_of_naive;
        ] );
      ( "optimizer-vs-seed",
        [
          Alcotest.test_case "reduce = seed on every workload" `Slow test_reduce_workloads;
          QCheck_alcotest.to_alcotest reduce_matches_seed;
          Alcotest.test_case "hierarchy = seed on every workload" `Slow test_hierarchy_workloads;
          QCheck_alcotest.to_alcotest hierarchy_matches_seed;
          QCheck_alcotest.to_alcotest exact_hierarchy_matches_seed;
          Alcotest.test_case "pair levels = per-window pair sets" `Quick test_pair_levels_per_window;
          Alcotest.test_case "pair levels guards" `Quick test_pair_levels_guards;
        ] );
      ( "int-pair-tbl",
        [
          Alcotest.test_case "replace/add_to allocate nothing" `Quick test_tbl_no_alloc;
          Alcotest.test_case "pack roundtrip" `Quick test_pack_roundtrip;
          QCheck_alcotest.to_alcotest tbl_matches_model;
          Alcotest.test_case "negative keys" `Quick test_tbl_negative_key_rejected;
        ] );
      ( "lru-stack",
        [
          Alcotest.test_case "access_bounded" `Quick test_access_bounded;
          Alcotest.test_case "touch" `Quick test_touch;
        ] );
    ]

(* optimize: the per-program pipeline behind `repro profile` —
   [Pipeline.evaluate_kinds] over all five kinds on the paper's deep
   eight, one pool task per program. No co-run simulation, SMT or
   ingest. *)

open Colayout
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache
module T = Colayout_trace
open Common

let name = "optimize"

let pooled = [ "pool" ]

let programs = W.Spec.deep_eight

let config = Optimizer.default_config

let params = config.Optimizer.params

type prep = (string * Colayout_ir.Program.t) list

(* Per program: the oracle's evaluation engine over its reference trace. *)
type oracle = Layout_eval.t list

type out = Pipeline.evaluated list list

let inputs env =
  ( E.Interp.test_input ~seed:(test_seed env) ~max_blocks:test_fuel (),
    E.Interp.ref_input ~seed:(ref_seed env) ~max_blocks:ref_fuel () )

let prepare ?rec_:_ _env : prep = build_largest_first programs

let oracle_prep env (prep : prep) : oracle =
  let _, ref_input = inputs env in
  U.Pool.map env.pool
    (fun (_, p) -> Layout_eval.create ~params p (Pipeline.reference_trace p ref_input))
    prep

let round env (prep : prep) : out =
  let test_input, ref_input = inputs env in
  U.Pool.map env.pool
    (fun (_, p) -> Pipeline.evaluate_kinds ~config p ~test_input ~ref_input)
    prep

(* The traced compositions: [Optimizer.analyze], [Optimizer.layout_for]
   and [Pipeline.evaluate_kinds] broken into their public parts. *)
let interp_traced r program input =
  Layer.call r "interp"
    ~units:(fun (res : E.Interp.result) -> res.block_execs)
    (fun () -> E.Interp.run program input)

let analyze_traced r program test_input =
  let test = interp_traced r program test_input in
  Layer.call r "trim_prune"
    ~units:(fun _ -> T.Trace.length test.bb_trace + T.Trace.length test.fn_trace)
    ~extras:(fun (a : Optimizer.analysis) -> [ ("kept_events", a.prune.T.Prune.kept_events) ])
    (fun () -> Optimizer.analysis_of_traces ~config ~bb:test.bb_trace ~fn:test.fn_trace ())

let layout_call r program f =
  Layer.call r "layout" ~units:(fun _ -> Colayout_ir.Program.num_blocks program) f

let original_traced r program = layout_call r program (fun () -> Layout.original program)

let layout_traced r program (analysis : Optimizer.analysis) kind =
  let layout = layout_call r program in
  let affinity_order trace =
    Layer.call r "affinity_hierarchy"
      ~units:(fun _ -> T.Trace.length trace * List.length config.ws)
      (fun () ->
        Affinity_hierarchy.order
          (Affinity_hierarchy.build ~algo:Affinity_hierarchy.Efficient ~ws:config.ws trace))
  in
  let trg_order ~block_bytes trace =
    let cache_multiplier = config.cache_multiplier in
    let edges = ref 0 in
    let trg =
      Layer.call r "trg"
        ~units:(fun _ -> T.Trace.length trace)
        ~extras:(fun g ->
          Trg.iter_edges (fun _ _ _ -> incr edges) g;
          [ ("edges", !edges) ])
        (fun () ->
          let window = Trg.recommended_window ~params ~block_bytes ~cache_multiplier in
          Trg.build ~window trace)
    in
    Layer.call r "trg_reduce"
      ~units:(fun _ -> !edges)
      (fun () ->
        let slots = Trg_reduce.slots_for ~params ~block_bytes ~cache_multiplier in
        (Trg_reduce.reduce trg ~slots).order)
  in
  let function_layout hot =
    layout (fun () ->
        Layout.of_function_order program (Layout.function_order_of_hot_list program ~hot))
  in
  let block_layout hot =
    layout (fun () ->
        Layout.of_block_order ~function_stubs:true program
          (Layout.block_order_of_hot_list program ~hot))
  in
  Layer.composite_span (Some r) (Optimizer.kind_name kind) (fun () ->
      match kind with
      | Optimizer.Original -> original_traced r program
      | Func_affinity -> function_layout (affinity_order analysis.fn)
      | Func_trg -> function_layout (trg_order ~block_bytes:config.func_block_bytes analysis.fn)
      | Bb_affinity -> block_layout (affinity_order analysis.bb)
      | Bb_trg -> block_layout (trg_order ~block_bytes:config.bb_block_bytes analysis.bb))

let evaluate_traced r program ~test_input ~ref_input =
  let analysis = analyze_traced r program test_input in
  let ref_trace = (interp_traced r program ref_input).bb_trace in
  List.map
    (fun kind ->
      let layout = layout_traced r program analysis kind in
      let stats =
        Layer.call r "icache.solo" ~units:C.Cache_stats.accesses
          ~extras:(fun s -> [ ("misses", C.Cache_stats.misses s) ])
          (fun () -> Pipeline.miss_ratio_solo ~params ~layout ref_trace)
      in
      {
        Pipeline.kind;
        layout;
        miss_ratio = C.Cache_stats.miss_ratio stats;
        accesses = C.Cache_stats.accesses stats;
        misses = C.Cache_stats.misses stats;
      })
    Optimizer.all_kinds

let round_traced env r (prep : prep) : out =
  let test_input, ref_input = inputs env in
  pool_map (Some r) env.pool (fun (_, p) -> evaluate_traced r p ~test_input ~ref_input) prep

let same_prep (a : prep) (b : prep) = List.map fst a = List.map fst b

let same_evaluated (a : Pipeline.evaluated) (b : Pipeline.evaluated) =
  a.kind = b.kind && a.layout.Layout.order = b.layout.Layout.order
  && same_float a.miss_ratio b.miss_ratio && a.accesses = b.accesses && a.misses = b.misses

let same_out (a : out) (b : out) = List.equal (List.equal same_evaluated) a b

let is_permutation n order =
  Array.length order = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun b ->
      b >= 0 && b < n && (not seen.(b))
      &&
      (seen.(b) <- true;
       true))
    order

(* One operation per program: every layout is a permutation of the
   program's blocks, and every solo miss ratio equals the evaluation
   engine's on [layout.order] (call stubs for basic-block kinds). *)
let check _env (prep : prep) (oracle : oracle) (out : out) =
  let bad =
    List.map2
      (fun ((_, p), engine) evs ->
        let nb = Colayout_ir.Program.num_blocks p in
        List.length evs <> List.length Optimizer.all_kinds
        || List.exists
             (fun (e : Pipeline.evaluated) ->
               let function_stubs =
                 match e.kind with Bb_affinity | Bb_trg -> true | _ -> false
               in
               (not (is_permutation nb e.layout.Layout.order))
               || not
                    (same_float e.miss_ratio
                       (Layout_eval.miss_ratio_of_block_order ~function_stubs engine
                          e.layout.Layout.order)))
             evs)
      (List.combine prep oracle) out
  in
  (List.length bad, List.length (List.filter Fun.id bad))

(* Geomean over program x optimizer of solo miss ratio / original's. *)
let quality (out : out) =
  geomean
    (List.concat_map
       (fun evs ->
         let base =
           (List.find (fun (e : Pipeline.evaluated) -> e.kind = Optimizer.Original) evs)
             .miss_ratio
         in
         List.filter_map
           (fun (e : Pipeline.evaluated) ->
             if e.kind = Optimizer.Original then None else Some (e.miss_ratio /. base))
           evs)
       out)

let outputs (out : out) = [ ("rel_miss_ratio", quality out) ]

let headline ~wall_s _ = [ ("optimize_s", wall_s) ]

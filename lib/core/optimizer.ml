open Colayout_trace

type kind =
  | Original
  | Func_affinity
  | Bb_affinity
  | Func_trg
  | Bb_trg

let all_kinds = [ Original; Func_affinity; Bb_affinity; Func_trg; Bb_trg ]

let kind_name = function
  | Original -> "original"
  | Func_affinity -> "func-affinity"
  | Bb_affinity -> "bb-affinity"
  | Func_trg -> "func-trg"
  | Bb_trg -> "bb-trg"

let kind_of_name s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

type config = {
  ws : int list;
  prune_top : int;
  cache_multiplier : float;
  func_block_bytes : int;
  bb_block_bytes : int;
  params : Colayout_cache.Params.t;
}

let default_config =
  {
    ws = [ 2; 3; 4; 5; 6; 8; 10; 12; 16; 20 ];
    prune_top = Prune.prune_default_top;
    cache_multiplier = 2.0;
    func_block_bytes = 256;
    bb_block_bytes = 64;
    params = Colayout_cache.Params.default_l1i;
  }

type analysis = {
  bb : Trace.t;
  fn : Trace.t;
  prune : Prune.report;
}

let analysis_of_traces ?(config = default_config) ~bb ~fn () =
  let bb_trimmed = Trim.trim bb in
  let bb_pruned, report = Prune.prune bb_trimmed ~top:config.prune_top in
  { bb = bb_pruned; fn = Trim.trim fn; prune = report }

let analyze ?(config = default_config) program input =
  let result = Colayout_exec.Interp.run program input in
  analysis_of_traces ~config ~bb:result.bb_trace ~fn:result.fn_trace ()

let affinity_order ?decisions ~config trace =
  let h =
    Affinity_hierarchy.build ?decisions ~algo:Affinity_hierarchy.Efficient ~ws:config.ws trace
  in
  Affinity_hierarchy.order h

let trg_order ?decisions ~config ~block_bytes trace =
  let window =
    Trg.recommended_window ~params:config.params ~block_bytes
      ~cache_multiplier:config.cache_multiplier
  in
  let trg = Trg.build ~window trace in
  let slots =
    Trg_reduce.slots_for ~params:config.params ~block_bytes
      ~cache_multiplier:config.cache_multiplier
  in
  (Trg_reduce.reduce ?decisions trg ~slots).order

(* The function order behind [Func_affinity] / [Func_trg]. *)
let function_order ?decisions ~config kind program analysis =
  let hot =
    match kind with
    | Func_affinity -> affinity_order ?decisions ~config analysis.fn
    | _ -> trg_order ?decisions ~config ~block_bytes:config.func_block_bytes analysis.fn
  in
  Layout.function_order_of_hot_list program ~hot

let block_order_for ?decisions ?(config = default_config) kind program analysis =
  match kind with
  | Original -> (Layout.original program).order
  | Func_affinity | Func_trg ->
    let forder = function_order ?decisions ~config kind program analysis in
    (Layout.of_function_order program forder).order
  | Bb_affinity ->
    let hot = affinity_order ?decisions ~config analysis.bb in
    Layout.block_order_of_hot_list program ~hot
  | Bb_trg ->
    let hot = trg_order ?decisions ~config ~block_bytes:config.bb_block_bytes analysis.bb in
    Layout.block_order_of_hot_list program ~hot

let layout_for ?decisions ?(config = default_config) kind program analysis =
  match kind with
  | Original -> Layout.original program
  | Func_affinity | Func_trg ->
    Layout.of_function_order program (function_order ?decisions ~config kind program analysis)
  | Bb_affinity | Bb_trg ->
    let order = block_order_for ?decisions ~config kind program analysis in
    Layout.of_block_order ~function_stubs:true program order

(* serve: [Serve.run] (the `repro serve` end) on 445.gobmk in exact mode,
   walkers = jobs = the host's core count, every other knob at its
   [Serve.config] default, with enough users for 20 epochs. Dominated by
   [Ingest], then the incremental [Layout_eval.Delta] re-optimization in
   [Anneal], then user generation. *)

open Colayout
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache
module T = Colayout_trace
open Common

let name = "serve"

let pooled = [ "pool"; "ingest"; "ingest_finalize" ]

let program_name = "445.gobmk"

let programs = [ program_name ]

let epochs = 20

let config env =
  let d = Colayout_harness.Serve.config ~program:program_name () in
  Colayout_harness.Serve.config ~program:program_name ~seed:env.seed
    ~users:(epochs * d.epoch_traces) ~walkers:(U.Pool.jobs env.pool) ()

type prep = unit

(* The batch-kernel digests of the same users' traces. *)
type oracle = string * string

type out = {
  digests : string * string;
  rows : Colayout_harness.Serve.epoch_row list;
  final_order : int array;
  traces : int;
}

let prepare ?rec_:_ _env : prep = ()

(* One user: the same per-user seed and fuel stream [Serve.run] draws. *)
let gen_user program (cfg : Colayout_harness.Serve.config) u =
  let prng = U.Prng.create ~seed:(cfg.seed + ((u + 1) * 0x9E3779B1)) in
  let input_seed = U.Prng.int prng 1_000_000_000 in
  let fuel = (cfg.fuel / 2) + U.Prng.int prng ((cfg.fuel / 2) + 1) in
  E.Interp.run program (E.Interp.test_input ~seed:input_seed ~max_blocks:fuel ())

let oracle_prep env () : oracle =
  let cfg = config env in
  let program = W.Spec.build cfg.program in
  let traces =
    U.Pool.map_array env.pool
      (fun u -> (gen_user program cfg u).E.Interp.bb_trace)
      (Array.init cfg.users Fun.id)
  in
  Ingest.batch_digests_parts ~trg_window:cfg.trg_window ~affinity_w:cfg.affinity_w
    (Array.to_list traces)

let round env () : out =
  let s = Colayout_harness.Serve.run ~pool:env.pool (config env) in
  {
    digests = (s.trg_digest, s.affine_digest);
    rows = s.epoch_rows;
    final_order = s.final_order;
    traces = s.stats.Ingest.traces;
  }

(* The traced composition of [Serve.run]: user generation fanned over the
   pool, ingest in user order, and at every epoch a merge and a
   warm-started Delta-mode anneal on the newest trace. Walker draining is
   made explicit ([Ingest.flush], timed as ingest) so the merge alone is
   timed as ingest_finalize. *)
let round_traced env r () : out =
  let cfg = config env in
  let program = W.Spec.build cfg.program in
  let num_symbols = Colayout_ir.Program.num_blocks program in
  let num_funcs = Colayout_ir.Program.num_funcs program in
  let icfg =
    Ingest.config ~num_symbols ~walkers:cfg.walkers ~shards:cfg.shards ~trg_window:cfg.trg_window
      ~affinity_w:cfg.affinity_w ~trg_cap:cfg.trg_cap ~wits_cap:cfg.wits_cap
      ~decay_shift:cfg.decay_shift ~epoch_traces:cfg.epoch_traces ()
  in
  let ing = Ingest.create ~pool:env.pool ~metrics:(U.Metrics.create ()) icfg in
  let params = C.Params.default_l1i in
  let order = ref (Array.init num_funcs Fun.id) in
  let rows = ref [] and seen_epochs = ref 0 and traces_at_epoch = ref 0 in
  let finalize () =
    Layer.call r "ingest" ~units:(fun () -> 0) (fun () -> Ingest.flush ing);
    Layer.call r "ingest_finalize" ~units:(fun _ -> 1) (fun () -> Ingest.finalize ing)
  in
  let run_epoch ~partial tr =
    let ep = if partial then !seen_epochs + 1 else !seen_epochs in
    let c = finalize () in
    let a =
      Layer.call r "anneal"
        ~units:(fun (a : Anneal.result) -> a.steps)
        (fun () ->
          Anneal.search ~seed:(cfg.seed + ep) ~steps:cfg.reopt_steps ~initial:(Array.copy !order)
            ~max_span:8 ~params program tr)
    in
    order := a.order;
    let trg_edges = ref 0 in
    Trg.iter_edges (fun _ _ _ -> incr trg_edges) c.Ingest.trg;
    rows :=
      {
        Colayout_harness.Serve.epoch = ep;
        at_trace = (Ingest.stats ing).traces;
        partial;
        trg_edges = !trg_edges;
        affine_pairs = Array.length c.affine;
        miss_ratio = a.miss_ratio;
        improved_from = a.improved_from;
      }
      :: !rows
  in
  let last = ref None in
  let u = ref 0 in
  while !u < cfg.users do
    let batch = min cfg.gen_batch (cfg.users - !u) in
    let traces =
      pool_map_array (Some r) env.pool
        (fun i ->
          (Layer.call r "interp"
             ~units:(fun (res : E.Interp.result) -> res.block_execs)
             (fun () -> gen_user program cfg i))
            .bb_trace)
        (Array.init batch (fun i -> !u + i))
    in
    Array.iter
      (fun tr ->
        Layer.call r "ingest" ~units:(fun () -> T.Trace.length tr) (fun () -> Ingest.ingest_trace ing tr);
        last := Some tr;
        let st = Ingest.stats ing in
        if st.epochs > !seen_epochs then begin
          seen_epochs := st.epochs;
          traces_at_epoch := st.traces;
          run_epoch ~partial:false tr
        end)
      traces;
    u := !u + batch
  done;
  (match !last with
  | Some tr when (Ingest.stats ing).traces > !traces_at_epoch -> run_epoch ~partial:true tr
  | _ -> ());
  let digests = Ingest.consensus_digests (finalize ()) in
  let st = Ingest.stats ing in
  List.iter
    (fun (k, v) -> Layer.set_extra r "ingest" k v)
    [ ("trg_ops", st.trg_ops); ("wit_ops", st.wit_ops); ("dispatches", st.dispatches); ("flushes", st.flushes) ];
  Layer.set_extra r "ingest_finalize" "trg_live" st.trg_live;
  { digests; rows = List.rev !rows; final_order = !order; traces = st.traces }

let same_prep () () = true

let same_row (a : Colayout_harness.Serve.epoch_row) (b : Colayout_harness.Serve.epoch_row) =
  a.epoch = b.epoch && a.at_trace = b.at_trace && a.partial = b.partial
  && a.trg_edges = b.trg_edges && a.affine_pairs = b.affine_pairs
  && same_float a.miss_ratio b.miss_ratio
  && same_float a.improved_from b.improved_from

let same_out a b =
  a.digests = b.digests && List.equal same_row a.rows b.rows && a.final_order = b.final_order
  && a.traces = b.traces

(* One operation per user trace: the consensus digests must equal the
   batch kernels' over the same users' traces, or every trace counts as
   failed. *)
let check env () (oracle : oracle) out =
  let users = (config env).users in
  (users, if out.digests = oracle && out.traces = users && List.length out.rows >= epochs then 0 else users)

(* Geomean over epoch rows of the re-optimized miss ratio over the
   previous consensus order's. *)
let quality out =
  geomean
    (List.map
       (fun (row : Colayout_harness.Serve.epoch_row) -> row.miss_ratio /. row.improved_from)
       out.rows)

let outputs out = [ ("reopt_rel_miss", quality out) ]

let headline ~wall_s out = [ ("traces_per_s", float_of_int out.traces /. wall_s) ]

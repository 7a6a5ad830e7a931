(* corun: the shared-cache sweep behind Fig 6 / Table II. Pairs are
   self (deep eight) x probe (gcc, gamess) x self layout (original,
   bb-affinity), the probe always original. Per pair: the sim-mode and
   hw-mode (degree-2 next-line prefetch) shared-cache co-runs, then
   [Smt.corun] in Measure_first mode, at the experiment harness's fetch
   rates and work scales. Programs, reference traces and layouts are
   built in set-up, so the timed part is all cache simulation and the
   SMT model. *)

open Colayout
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache
module T = Colayout_trace
open Common

let name = "corun"

let pooled = [ "pool" ]

let selves = W.Spec.deep_eight

let probes = W.Spec.probes

let self_kinds = [ Optimizer.Original; Optimizer.Bb_affinity ]

let config = Optimizer.default_config

let params = config.Optimizer.params

let hw_prefetch = C.Prefetch.create ~degree:2 ()

let smt_config = E.Smt.default_config ~prefetch:(C.Prefetch.create ~degree:1 ()) ()

let fetch_rate name = (W.Spec.profile name).W.Gen.fetch_rate

type program = {
  name : string;
  ref_trace : T.Trace.t;
  layouts : (Optimizer.kind * Layout.t) list;
}

type prep = program list

type oracle = unit

type pair_out = {
  sim : C.Cache_stats.t;
  hw : C.Cache_stats.t;
  smt : E.Smt.corun_result;
}

(* Pairs in sweep order: (self, probe, self kind). *)
type out = ((string * string * Optimizer.kind) * pair_out) list

let programs = List.sort_uniq compare (selves @ probes)

(* Set-up as the harness's two-phase schedule does it: one pool task per
   program runs the reference input and lays the program out. Traced, the
   analysis and layout are broken into their public parts. *)
let prepare_program env r (name, program) =
  let ref_input = E.Interp.ref_input ~seed:(ref_seed env) ~max_blocks:ref_fuel () in
  let test_input = E.Interp.test_input ~seed:(test_seed env) ~max_blocks:test_fuel () in
  let ref_trace, layout_for =
    match r with
    | None ->
      ( (E.Interp.run program ref_input).bb_trace,
        function
        | Optimizer.Original -> Layout.original program
        | kind -> Optimizer.layout_for ~config kind program (Optimizer.analyze ~config program test_input) )
    | Some r ->
      ( (Wl_optimize.interp_traced r program ref_input).bb_trace,
        function
        | Optimizer.Original -> Wl_optimize.original_traced r program
        | kind ->
          Wl_optimize.layout_traced r program (Wl_optimize.analyze_traced r program test_input) kind
      )
  in
  let kinds = if List.mem name selves then self_kinds else [ Optimizer.Original ] in
  { name; ref_trace; layouts = List.map (fun k -> (k, layout_for k)) kinds }

let prepare ?rec_ env : prep =
  pool_map rec_ env.pool (prepare_program env rec_) (build_largest_first programs)

let oracle_prep _env _prep : oracle = ()

let find prep name = List.find (fun p -> p.name = name) prep

let pairs =
  List.concat_map
    (fun self -> List.concat_map (fun probe -> List.map (fun k -> (self, probe, k)) self_kinds) probes)
    selves

let corun_pair r prep (self, probe, kind) =
  let s = find prep self and p = find prep probe in
  let s_lay = List.assoc kind s.layouts and p_lay = List.assoc Optimizer.Original p.layouts in
  let rates = (fetch_rate self, fetch_rate probe) in
  let shared name prefetch =
    Layer.maybe r name ~units:C.Cache_stats.accesses
      ~extras:(fun st ->
        [ ("misses", C.Cache_stats.misses st); ("prefetches", C.Cache_stats.prefetches st) ])
      (fun () ->
        Pipeline.miss_ratio_corun ?prefetch ~rates ~params ~self:(s_lay, s.ref_trace)
          ~peer:(p_lay, p.ref_trace) ())
  in
  let sim = shared "icache.shared" None in
  let hw = shared "icache.shared_hw" (Some hw_prefetch) in
  let smt =
    Layer.maybe r "smt"
      ~units:(fun (c : E.Smt.corun_result) -> c.t0.fetch_accesses + c.t1.fetch_accesses)
      ~extras:(fun c -> [ ("sim_cycles", c.E.Smt.total_cycles) ])
      (fun () ->
        E.Smt.corun
          ~work_scales:(1.0 /. fst rates, 1.0 /. snd rates)
          smt_config ~mode:E.Smt.Measure_first
          (Layout.to_smt_code s_lay, T.Trace.events s.ref_trace)
          (Layout.to_smt_code p_lay, T.Trace.events p.ref_trace))
  in
  ((self, probe, kind), { sim; hw; smt })

let round env prep : out = U.Pool.map env.pool (corun_pair None prep) pairs

let round_traced env r prep : out = pool_map (Some r) env.pool (corun_pair (Some r) prep) pairs

let same_prep (a : prep) (b : prep) =
  List.equal
    (fun x y ->
      x.name = y.name
      && T.Trace.equal x.ref_trace y.ref_trace
      && List.equal (fun (k, l) (k', l') -> k = k' && l.Layout.order = l'.Layout.order) x.layouts y.layouts)
    a b

let stats_key s =
  C.Cache_stats.
    ( accesses s,
      misses s,
      evictions s,
      prefetches s,
      (thread_accesses s 0, thread_misses s 0, thread_accesses s 1, thread_misses s 1) )

let same_pair a b = stats_key a.sim = stats_key b.sim && stats_key a.hw = stats_key b.hw && a.smt = b.smt

let same_out (a : out) (b : out) = List.equal (fun (k, x) (k', y) -> k = k' && same_pair x y) a b

(* Each pair must be sane; once per run one pair (picked by the seed) is
   re-run with a [Profile_sink] attached: the interference matrices must
   conserve and the stats must equal the sink-free run's. *)
let check env (prep : prep) () (out : out) =
  let sane (_, o) =
    C.Cache_stats.thread_accesses o.sim 0 > 0
    && C.Cache_stats.thread_accesses o.sim 1 > 0
    && C.Cache_stats.misses o.sim <= C.Cache_stats.accesses o.sim
    && C.Cache_stats.misses o.hw <= C.Cache_stats.accesses o.hw
    && o.smt.t0.instrs > 0
  in
  let i = abs env.seed mod List.length out in
  let profiled_ok =
    let (self, probe, kind), o = List.nth out i in
    let s = find prep self and p = find prep probe in
    let s_lay = List.assoc kind s.layouts and p_lay = List.assoc Optimizer.Original p.layouts in
    let nb = max (Array.length s_lay.Layout.addr) (Array.length p_lay.Layout.addr) in
    let sink = C.Profile_sink.create ~threads:2 ~num_blocks:nb ~params () in
    let stats =
      Pipeline.miss_ratio_corun ~sink
        ~rates:(fetch_rate self, fetch_rate probe)
        ~params ~self:(s_lay, s.ref_trace) ~peer:(p_lay, p.ref_trace) ()
    in
    match C.Profile.interference_json ~label:"perfbench" ~sink ~stats with
    | _ -> stats_key stats = stats_key o.sim
    | exception Invalid_argument _ -> false
  in
  let failed = List.length (List.filter (fun x -> not (sane x)) out) + if profiled_ok then 0 else 1 in
  (List.length out, min failed (List.length out))

(* Per (self, probe): bb-affinity self over original self. *)
let ratios (out : out) f =
  List.concat_map
    (fun self ->
      List.map
        (fun probe ->
          let get k = List.assoc (self, probe, k) out in
          f (get Optimizer.Bb_affinity) /. f (get Optimizer.Original))
        probes)
    selves
  |> geomean

let thread_miss o t = C.Cache_stats.thread_miss_ratio o.sim t

let quality out = ratios out (fun o -> thread_miss o 0)

let sim_accesses (out : out) =
  List.fold_left
    (fun acc (_, o) ->
      acc + C.Cache_stats.accesses o.sim + C.Cache_stats.accesses o.hw
      + o.smt.t0.fetch_accesses + o.smt.t1.fetch_accesses)
    0 out

let outputs out =
  [
    ("self_rel_miss", quality out);
    ("peer_rel_miss", ratios out (fun o -> thread_miss o 1));
    ("self_ipc_gain", ratios out (fun o -> E.Smt.ipc o.smt.t0));
    ("peer_ipc_gain", ratios out (fun o -> E.Smt.ipc o.smt.t1));
  ]

let headline ~wall_s out = [ ("sim_maccess_per_s", float_of_int (sim_accesses out) /. wall_s /. 1e6) ]

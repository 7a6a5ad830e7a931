(* The repository benchmark: one process per run, three workloads (the
   three ends of the system), end-to-end metrics untraced and per-layer
   metrics from a separate traced run. See README.md for the metric ->
   layer -> workload table. The last line of standard output is the
   result object; the line before it records the host and the
   workload's named outputs. *)

module U = Colayout_util
open Common

module type WORKLOAD = sig
  val name : string

  val programs : string list

  val pooled : string list
  (** Layers whose calls may dispatch pool tasks. *)

  type prep

  type oracle

  type out

  val prepare : ?rec_:Layer.t -> env -> prep
  (** The system work of set-up (traced in the traced run). *)

  val oracle_prep : env -> prep -> oracle
  (** The oracle's own set-up; never traced. *)

  val round : env -> prep -> out
  (** The timed part, through the end's public entry points. *)

  val round_traced : env -> Layer.t -> prep -> out
  (** The same composition broken into spanned layer calls. *)

  val same_prep : prep -> prep -> bool

  val same_out : out -> out -> bool

  val check : env -> prep -> oracle -> out -> int * int
  (** [(attempted, failed)] operations against the oracle. *)

  val quality : out -> float
  (** The end's layout-quality ratio (lower is better). *)

  val outputs : out -> (string * float) list
  (** The end's named quality figures. *)

  val headline : wall_s:float -> out -> (string * float) list
  (** The end's named speed figure, from the median round wall. *)
end

(* Corun's pair-level quality outputs, reported as layer metrics of the
   traced run (zero on the workloads that never co-run). *)
let corun_layer_outputs =
  [
    ("self_rel_miss", "icache.shared.self_rel_miss");
    ("peer_rel_miss", "icache.shared.peer_rel_miss");
    ("self_ipc_gain", "smt.self_ipc_gain");
    ("peer_ipc_gain", "smt.peer_ipc_gain");
  ]

let setup_reps = 2

let setup_min_s = 2.

let min_rounds = 3

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  outputs : (string * float) list;
  setups_s : float list;
  rounds_s : float list;
}

(* Set up at least [setup_reps] times and for at least [setup_min_s]
   seconds in all (each set-up must reproduce the previous one), then
   repeat the round until [seconds] have passed, at least [min_rounds]
   times. Every round is checked against the oracle and the first round,
   outside its timing. *)
let untraced (module W : WORKLOAD) env ~seconds =
  let rec set_up times last =
    let n = List.length times in
    if n >= setup_reps && List.fold_left ( +. ) 0. times >= setup_min_s then
      (Option.get last, List.rev times)
    else
      let (prep, oracle), dt =
        timed (fun () ->
            let prep = W.prepare env in
            (prep, W.oracle_prep env prep))
      in
      let same = match last with Some (p, _, same) -> same && W.same_prep p prep | None -> true in
      set_up (dt :: times) (Some (prep, oracle, same))
  in
  let (prep, oracle, setup_same), setups_s = set_up [] None in
  let t_start = clock () in
  let rec loop first walls attempted failed repeatable =
    if List.length walls >= min_rounds && seconds_since t_start >= seconds then
      (Option.get first, List.rev walls, attempted, failed, repeatable)
    else
      let out, dt = timed (fun () -> W.round env prep) in
      let a, f = W.check env prep oracle out in
      let first = Option.value first ~default:out in
      loop (Some first) (dt :: walls) (attempted + a) (failed + f)
        (repeatable && W.same_out out first)
  in
  let first, rounds_s, attempted, failed, repeatable = loop None [] 0 0 true in
  let wall_s = median rounds_s in
  {
    correct = setup_same && repeatable && failed = 0;
    attempted;
    failed;
    metrics =
      [
        ("setup_s", median setups_s, "s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("wall_s", wall_s, "s");
        ("rel_miss", W.quality first, "ratio");
      ];
    outputs = W.headline ~wall_s first @ W.outputs first;
    setups_s;
    rounds_s;
  }

(* One untraced pass (set-up system work + one round), then the same
   work traced. The traced outputs must equal the untraced ones. The pool
   layer reads the pool's own counters over the traced window. *)
let traced (module W : WORKLOAD) env =
  let prep_u, prep_s = timed (fun () -> W.prepare env) in
  let oracle = W.oracle_prep env prep_u in
  let out_u, round_s = timed (fun () -> W.round env prep_u) in
  let pool_count k = Option.value ~default:0 (U.Metrics.find_counter env.pool_metrics ("pool." ^ k)) in
  let before = List.map (fun k -> (k, pool_count k)) [ "tasks"; "busy_ns"; "steals" ] in
  let r = Layer.create () in
  let t0 = clock () in
  let prep_t = W.prepare ~rec_:r env in
  let out_t = W.round_traced env r prep_t in
  let t1 = clock () in
  let pool_counter k = pool_count k - List.assoc k before in
  let attempted, failed = W.check env prep_t oracle out_t in
  let faithful = W.same_prep prep_u prep_t && W.same_out out_u out_t in
  let traced_s = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
  let outputs = W.outputs out_t in
  let layer_outputs =
    List.map
      (fun (k, name) -> (name, Option.value ~default:0. (List.assoc_opt k outputs), "ratio"))
      corun_layer_outputs
  in
  {
    correct = faithful && failed = 0;
    attempted;
    failed;
    metrics =
      Layer.report r ~jobs:(U.Pool.jobs env.pool) ~pool_counter ~pooled:W.pooled ~t0 ~t1
      @ layer_outputs
      @ [ ("trace_overhead_s", traced_s -. (prep_s +. round_s), "s") ];
    outputs;
    setups_s = [ prep_s ];
    rounds_s = [ round_s ];
  }

let workloads : (module WORKLOAD) list = [ (module Wl_optimize); (module Wl_corun); (module Wl_serve) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload optimize|corun|serve [--seed N] [--seconds S] [--trace 0|1] \
     [--jobs N]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let jobs = ref (Domain.recommended_domain_count ()) in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := int_of_string v;
      parse rest
    | "--jobs" :: v :: rest ->
      jobs := int_of_string v;
      parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let (module W : WORKLOAD) =
    match List.find_opt (fun (module W : WORKLOAD) -> W.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !jobs < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let pool_metrics = U.Metrics.create () in
  U.Pool.with_pool ~jobs:!jobs ~metrics:pool_metrics (fun pool ->
      let env = { seed = !seed; pool; pool_metrics } in
      let res =
        if !trace = 1 then traced (module W) env else untraced (module W) env ~seconds:!seconds
      in
      let open U.Json in
      let num f = Float f in
      print_endline
        (to_string
           (Obj
              [
                ( "host",
                  Obj
                    [
                      ("nproc", Int (Domain.recommended_domain_count ()));
                      ("jobs", Int !jobs);
                      ("ocaml", Str Sys.ocaml_version);
                      ("workload", Str W.name);
                      ("seed", Int !seed);
                      ("trace", Int !trace);
                      ("programs", Arr (List.map (fun p -> Str p) W.programs));
                      ("setups_s", Arr (List.map num res.setups_s));
                      ("rounds_s", Arr (List.map num res.rounds_s));
                    ] );
                ("outputs", Obj (List.map (fun (k, v) -> (k, num v)) res.outputs));
              ]));
      print_endline
        (to_string
           (Obj
              [
                ("correct", Bool res.correct);
                ("attempted", Int res.attempted);
                ("failed", Int res.failed);
                ( "metrics",
                  Obj
                    (List.map
                       (fun (k, v, unit) -> (k, Obj [ ("value", num v); ("unit", Str unit) ]))
                       res.metrics) );
              ])))

(* Layer spans for the traced run, recorded from the benchmark's side of
   each call into a layer's public functions (nothing inside lib/ is
   instrumented). A call is timed by a [Colayout_util.Span] and charged
   with its work units, the calling domain's [Gc.minor_words] delta, and
   any extra per-layer counts. The vocabulary below is fixed: every layer
   reports every metric on every workload, zero where the workload never
   calls the layer. *)

module U = Colayout_util

(* Layers with their unit counts and extra counters, in report order. *)
let layers =
  [
    ("interp", []);
    ("trim_prune", [ "kept_events" ]);
    ("affinity_hierarchy", []);
    ("trg", [ "edges" ]);
    ("trg_reduce", []);
    ("layout", []);
    ("icache.solo", [ "misses" ]);
    ("icache.shared", [ "misses"; "prefetches" ]);
    ("icache.shared_hw", [ "misses"; "prefetches" ]);
    ("smt", [ "sim_cycles" ]);
    ("ingest", [ "trg_ops"; "wit_ops"; "dispatches"; "flushes" ]);
    ("ingest_finalize", [ "trg_live" ]);
    ("anneal", []);
    ("pool", [ "steals" ]);
  ]

(* Composite spans: busy time only, and excluded from coverage (their
   children are the layers). *)
let optimizer_kinds = [ "func-affinity"; "bb-affinity"; "func-trg"; "bb-trg" ]

let composite name = "optimizer." ^ name

type cell = {
  mutable units : int;
  mutable minor_words : float;
  extras : (string, int) Hashtbl.t;
}

type t = {
  spans : U.Span.t;
  lock : Mutex.t;
  cells : (string, cell) Hashtbl.t;
}

let create () = { spans = U.Span.create (); lock = Mutex.create (); cells = Hashtbl.create 32 }

let with_cell t name f =
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find_opt t.cells name with
    | Some c -> c
    | None ->
      let c = { units = 0; minor_words = 0.; extras = Hashtbl.create 4 } in
      Hashtbl.replace t.cells name c;
      c
  in
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> f c)

let add_extra c k v =
  Hashtbl.replace c.extras k (v + Option.value ~default:0 (Hashtbl.find_opt c.extras k))

(* [call t name ~units f] runs [f] inside a span named [name]; [units] and
   [extras] read the result after the span closes. *)
let call ?(extras = fun _ -> []) t name ~units f =
  let w0 = Gc.minor_words () in
  let r = U.Span.with_span t.spans ~cat:"layer" name f in
  let dw = Gc.minor_words () -. w0 in
  let n = units r and ex = extras r in
  with_cell t name (fun c ->
      c.units <- c.units + n;
      c.minor_words <- c.minor_words +. dw;
      List.iter (fun (k, v) -> add_extra c k v) ex);
  r

(* Counters read once at the end of a run (e.g. [Ingest.stats]) rather
   than summed per call. *)
let set_extra t name k v = with_cell t name (fun c -> Hashtbl.replace c.extras k v)

(* Wrap an optional recorder: the untraced path runs [f] bare. *)
let maybe ?extras rec_ name ~units f =
  match rec_ with None -> f () | Some t -> call ?extras t name ~units f

let composite_span rec_ kind f =
  match rec_ with
  | None -> f ()
  | Some t -> U.Span.with_span t.spans ~cat:"composite" (composite kind) f

(* Per-layer metrics, plus the pool's idle time and the dark share of the
   traced window [t0, t1] (nanoseconds on the span clock). [pool_counter]
   reads the pool's [pool.<k>] counters over the window; [pooled] names
   the layers whose calls may dispatch pool tasks (their wall is what the
   workers could fill). *)
let report t ~jobs ~pool_counter ~pooled ~t0 ~t1 =
  let spans = U.Span.spans t.spans in
  let agg = U.Span.aggregate t.spans in
  let busy name =
    List.fold_left
      (fun (calls, ns) (_, n, c, d) -> if n = name then (calls + c, Int64.add ns d) else (calls, ns))
      (0, 0L) agg
  in
  let s_of_ns ns = Int64.to_float ns /. 1e9 in
  let cell name =
    match Hashtbl.find_opt t.cells name with
    | Some c -> c
    | None -> { units = 0; minor_words = 0.; extras = Hashtbl.create 1 }
  in
  let layer_metrics (name, extra_names) =
    let calls, ns = busy name in
    let c = cell name in
    let units = if name = "pool" then pool_counter "tasks" else c.units in
    let busy_ns = if name = "pool" then Int64.of_int (pool_counter "busy_ns") else ns in
    let extra k =
      if name = "pool" && k = "steals" then pool_counter "steals"
      else Option.value ~default:0 (Hashtbl.find_opt c.extras k)
    in
    [
      (name ^ ".calls", float_of_int calls, "count");
      (name ^ ".busy_s", s_of_ns busy_ns, "s");
      (name ^ ".units", float_of_int units, "count");
      ( name ^ ".ns_per_unit",
        (if units = 0 then 0. else Int64.to_float busy_ns /. float_of_int units),
        "ns" );
      (name ^ ".minor_mwords", c.minor_words /. 1e6, "Mwords");
    ]
    @ List.map (fun k -> (name ^ "." ^ k, float_of_int (extra k), "count")) extra_names
  in
  let composites =
    List.map
      (fun k -> (composite k ^ ".busy_s", s_of_ns (snd (busy (composite k))), "s"))
      optimizer_kinds
  in
  (* Pool idle: the workers' capacity over the wall of every call that can
     fan out, minus what they spent in tasks. *)
  let fanout_ns =
    List.fold_left (fun acc name -> Int64.add acc (snd (busy name))) 0L pooled
  in
  let idle_s =
    (Int64.to_float fanout_ns *. float_of_int jobs -. float_of_int (pool_counter "busy_ns")) /. 1e9
  in
  (* Dark time: instants of the window that no layer span covers on any
     domain. The pool span only brackets a fan-out, so it covers nothing. *)
  let intervals =
    List.filter_map
      (fun (s : U.Span.span) ->
        if s.cat <> "layer" || s.name = "pool" then None
        else
          let a = Int64.max s.start_ns t0 and b = Int64.min (Int64.add s.start_ns s.dur_ns) t1 in
          if b > a then Some (a, b) else None)
      spans
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, hi) (a, b) ->
        let a = Int64.max a hi in
        if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, hi))
      (0L, Int64.min_int) intervals
  in
  let wall = Int64.sub t1 t0 in
  let dark_share = if wall <= 0L then 0. else 1. -. (Int64.to_float covered /. Int64.to_float wall) in
  List.concat_map layer_metrics layers
  @ composites
  @ [ ("pool.idle_s", idle_s, "s"); ("dark_share", dark_share, "ratio") ]

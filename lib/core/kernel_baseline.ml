open Colayout_trace

(* ------------------------------------------------------------ TRG (seed) *)

type legacy_trg = {
  num_nodes : int;
  adj : (int, int) Hashtbl.t array;
}

let bump t x y dw =
  let upd a b =
    let cur = Option.value ~default:0 (Hashtbl.find_opt t.adj.(a) b) in
    Hashtbl.replace t.adj.(a) b (cur + dw)
  in
  upd x y;
  upd y x

let trg_build ?(window = max_int) trace =
  if window < 1 then invalid_arg "Kernel_baseline.trg_build: window must be >= 1";
  if not (Trim.is_trimmed trace) then
    invalid_arg "Kernel_baseline.trg_build: trace must be trimmed";
  let t =
    {
      num_nodes = Trace.num_symbols trace;
      adj = Array.init (Trace.num_symbols trace) (fun _ -> Hashtbl.create 8);
    }
  in
  let stack = Lru_stack.create () in
  Trace.iter
    (fun x ->
      (* If x recurs within the window, every block above it on the stack
         occurred between its two successive occurrences: one potential
         conflict each. *)
      let d = ref 0 in
      let betweens = ref [] in
      let found = ref false in
      Lru_stack.iter_until stack (fun y ->
          incr d;
          if y = x then begin
            found := true;
            false
          end
          else if !d >= window then false
          else begin
            betweens := y :: !betweens;
            true
          end);
      (* Only count when x was actually found within the window: the walk
         must have stopped on x, not on depth exhaustion. *)
      if !found then List.iter (fun y -> bump t x y 1) !betweens;
      ignore (Lru_stack.access stack x))
    trace;
  t

let trg_weight t x y =
  if x = y then 0
  else
    match Hashtbl.find_opt t.adj.(x) y with
    | Some w -> w
    | None -> 0

let trg_edges t =
  let acc = ref [] in
  Array.iteri
    (fun x h -> Hashtbl.iter (fun y w -> if x < y then acc := (x, y, w) :: !acc) h)
    t.adj;
  List.sort
    (fun (x1, y1, w1) (x2, y2, w2) ->
      if w1 <> w2 then compare w2 w1 else compare (x1, y1) (x2, y2))
    !acc

(* ------------------------------------------------------- Affinity (seed) *)

let require_trimmed t =
  if not (Trim.is_trimmed t) then
    invalid_arg "Affinity: trace must be trimmed (no two consecutive equal blocks)"

type wit = {
  mutable sat : int;
  mutable last_occ : int;
}

let affine_pairs trace ~w =
  if w < 1 then invalid_arg "Kernel_baseline.affine_pairs: w must be >= 1";
  require_trimmed trace;
  let occ = Trace.occurrences trace in
  let occ_idx = Array.make (Trace.num_symbols trace) 0 in
  let wits : (int * int, wit) Hashtbl.t = Hashtbl.create 4096 in
  let witness a b a_occ =
    let key = (a, b) in
    let rec_ =
      match Hashtbl.find_opt wits key with
      | Some r -> r
      | None ->
        let r = { sat = 0; last_occ = 0 } in
        Hashtbl.replace wits key r;
        r
    in
    if rec_.last_occ < a_occ then begin
      rec_.last_occ <- a_occ;
      rec_.sat <- rec_.sat + 1
    end
  in
  let stack = Lru_stack.create () in
  Trace.iter
    (fun y ->
      occ_idx.(y) <- occ_idx.(y) + 1;
      let ky = occ_idx.(y) in
      let d = ref 0 in
      let y_seen = ref false in
      Lru_stack.iter_until stack (fun x ->
          incr d;
          if x = y then begin
            y_seen := true;
            true
          end
          else begin
            let fp = !d + if !y_seen then 0 else 1 in
            if fp <= w then begin
              witness y x ky;
              witness x y occ_idx.(x)
            end;
            !d < w
          end);
      ignore (Lru_stack.access stack y))
    trace;
  let pairs = ref [] in
  Hashtbl.iter
    (fun (a, b) r ->
      if a < b then begin
        let back =
          match Hashtbl.find_opt wits (b, a) with Some r' -> r'.sat | None -> 0
        in
        if r.sat = occ.(a) && back = occ.(b) && occ.(a) > 0 && occ.(b) > 0 then
          pairs := (a, b) :: !pairs
      end)
    wits;
  List.sort compare !pairs

(* ------------------------------------------------------------------ *)
(* The seed layout evaluator and annealer, kept verbatim as the
   differential oracle / honest bench baseline for [Layout_eval] (PR 5),
   exactly as [Trg.build]/[Affinity.affine_pairs] keep their seed twins
   above. Per candidate this path allocates a full [Layout.t], a tuple per
   trace event inside the line expansion, and a fresh simulator — the
   costs the engine exists to amortize. *)

(* The seed simulator under that evaluator, verbatim: an array of ways per
   set with recency by position (index 0 is MRU), moves by [Array.blit],
   driven by the seed [Icache.solo] line loop. The engine shares
   [Set_assoc]'s core; this copy keeps the oracle independent of it. *)
module Seed_cache = struct
  module Params = Colayout_cache.Params
  module Cache_stats = Colayout_cache.Cache_stats

  type t = {
    params : Params.t;
    ways : int array array;
    mutable evictions : int;
  }

  let create params =
    {
      params;
      ways = Array.init params.Params.num_sets (fun _ -> Array.make params.Params.assoc (-1));
      evictions = 0;
    }

  let find_way set line =
    let rec loop i = if i >= Array.length set then -1 else if set.(i) = line then i else loop (i + 1) in
    loop 0

  let promote set i =
    let line = set.(i) in
    Array.blit set 0 set 1 i;
    set.(0) <- line

  let access_line t line =
    let set = t.ways.(Params.set_of_line t.params line) in
    let i = find_way set line in
    if i >= 0 then begin
      promote set i;
      true
    end
    else begin
      if set.(Array.length set - 1) >= 0 then t.evictions <- t.evictions + 1;
      Array.blit set 0 set 1 (Array.length set - 1);
      set.(0) <- line;
      false
    end

  let solo ~params ~(layout : Layout.t) trace =
    let cache = create params in
    let stats = Cache_stats.create ~threads:1 () in
    Colayout_util.Int_vec.iter
      (fun bid ->
        let first, last =
          Params.lines_spanned params ~addr:layout.Layout.addr.(bid)
            ~bytes:layout.Layout.bytes.(bid)
        in
        for line = first to last do
          Cache_stats.record stats ~thread:0 ~hit:(access_line cache line)
        done)
      trace;
    Cache_stats.set_evictions stats cache.evictions;
    stats
end

let miss_ratio_of_function_order ~params program trace forder =
  let layout = Layout.of_function_order program forder in
  Colayout_cache.Cache_stats.miss_ratio
    (Seed_cache.solo ~params ~layout (Colayout_trace.Trace.events trace))

let miss_ratio_of_block_order ?function_stubs ~params program trace order =
  let layout = Layout.of_block_order ?function_stubs program order in
  Colayout_cache.Cache_stats.miss_ratio
    (Seed_cache.solo ~params ~layout (Colayout_trace.Trace.events trace))

let anneal_search ?(seed = 1) ?(steps = 300) ?initial ~params program trace =
  if steps <= 0 then invalid_arg "Anneal.search: steps must be positive";
  let nf = Colayout_ir.Program.num_funcs program in
  let current =
    match initial with
    | None -> Array.init nf Fun.id
    | Some o ->
      if Array.length o <> nf then invalid_arg "Anneal.search: initial order length mismatch";
      Array.copy o
  in
  let rng = Colayout_util.Prng.create ~seed in
  let eval order = miss_ratio_of_function_order ~params program trace order in
  let initial_mr = eval current in
  let cur_mr = ref initial_mr in
  let best = ref (Array.copy current) in
  let best_mr = ref initial_mr in
  let t0 = 0.02 in
  let decay = exp (log 1e-3 /. float_of_int steps) in
  let temp = ref t0 in
  for _ = 1 to steps do
    let a = Colayout_util.Prng.int rng nf and b = Colayout_util.Prng.int rng nf in
    if a <> b then begin
      let proposal = Array.copy current in
      if Colayout_util.Prng.bool rng ~p:0.5 then begin
        proposal.(a) <- current.(b);
        proposal.(b) <- current.(a)
      end
      else begin
        let v = current.(a) in
        if a < b then Array.blit current (a + 1) proposal a (b - a)
        else Array.blit current b proposal (b + 1) (a - b);
        proposal.(b) <- v
      end;
      let mr = eval proposal in
      let accept =
        mr <= !cur_mr
        || Colayout_util.Prng.float rng < exp ((!cur_mr -. mr) /. Float.max 1e-9 !temp)
      in
      if accept then begin
        Array.blit proposal 0 current 0 nf;
        cur_mr := mr;
        if mr < !best_mr then begin
          best_mr := mr;
          best := Array.copy proposal
        end
      end
    end;
    temp := !temp *. decay
  done;
  (!best, !best_mr, initial_mr)

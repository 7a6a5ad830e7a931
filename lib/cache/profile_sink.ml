(* Per-block / per-set attribution counters, the 3C classifier, and the
   cross-thread interference matrices.

   Per-thread block tables are flat int arrays indexed by block id, grown
   by doubling — block ids are dense (program block numbering), so arrays
   beat hashing on the access path. The shadow cache and the seen-lines
   table key on raw line numbers, so the co-run simulator's offset address
   spaces (thread 1 at +2^40 lines) stay distinct, while the per-set
   counters fold both threads onto the physical sets they really share.

   Interference is attributed by line ownership: every insertion records
   which thread owns the filled line, so when a later insertion evicts it
   the sink knows whose working set just shrank, and when the owner
   re-misses on that line the sink knows which thread's eviction caused
   the miss. Lines leave the cache only by eviction, so every non-first
   miss has exactly one provenance (the last evictor of its line) and the
   matrices partition the Cache_stats totals exactly. *)

type per_thread = {
  mutable acc : int array;
  mutable miss : int array;
  mutable cold : int array;
  mutable cap : int array;
  mutable conf : int array;
  mutable ev : int array;
  mutable miss_peer : int array; (* misses whose line a peer last evicted *)
  mutable ev_peer : int array; (* insertions that evicted a peer-owned line *)
  mutable hi : int; (* 1 + highest block id seen, bounds the live prefix *)
}

type t = {
  params : Params.t;
  threads : per_thread array;
  set_acc : int array;
  set_miss : int array;
  set_ev : int array;
  set_ev_cross : int array; (* evictions where evictor <> victim owner *)
  ev_mat : int array array; (* ev_mat.(evictor).(owner) *)
  miss_mat : int array array; (* miss_mat.(misser).(last evictor) *)
  first_miss : int array; (* per-thread first-touch (never-evicted) misses *)
  owners : (int, int) Hashtbl.t; (* resident line -> inserting thread *)
  last_ev : (int, int) Hashtbl.t; (* line -> thread that last evicted it *)
  shadow : Fully_assoc.t option;
  seen : (int, unit) Hashtbl.t;
}

let make_thread n =
  {
    acc = Array.make n 0;
    miss = Array.make n 0;
    cold = Array.make n 0;
    cap = Array.make n 0;
    conf = Array.make n 0;
    ev = Array.make n 0;
    miss_peer = Array.make n 0;
    ev_peer = Array.make n 0;
    hi = 0;
  }

let create ?(threads = 1) ?(classify = true) ?(num_blocks = 64) ~params () =
  if threads <= 0 then invalid_arg "Profile_sink.create: threads must be positive";
  if num_blocks <= 0 then invalid_arg "Profile_sink.create: num_blocks must be positive";
  {
    params;
    threads = Array.init threads (fun _ -> make_thread num_blocks);
    set_acc = Array.make params.Params.num_sets 0;
    set_miss = Array.make params.Params.num_sets 0;
    set_ev = Array.make params.Params.num_sets 0;
    set_ev_cross = Array.make params.Params.num_sets 0;
    ev_mat = Array.make_matrix threads threads 0;
    miss_mat = Array.make_matrix threads threads 0;
    first_miss = Array.make threads 0;
    owners = Hashtbl.create 1024;
    last_ev = Hashtbl.create 1024;
    shadow = (if classify then Some (Fully_assoc.create ~capacity:(Params.lines_total params)) else None);
    seen = Hashtbl.create 1024;
  }

let params t = t.params

let num_threads t = Array.length t.threads

let grow a n =
  let a' = Array.make n 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let ensure pt block =
  if block >= Array.length pt.acc then begin
    let n = ref (2 * Array.length pt.acc) in
    while block >= !n do
      n := 2 * !n
    done;
    pt.acc <- grow pt.acc !n;
    pt.miss <- grow pt.miss !n;
    pt.cold <- grow pt.cold !n;
    pt.cap <- grow pt.cap !n;
    pt.conf <- grow pt.conf !n;
    pt.ev <- grow pt.ev !n;
    pt.miss_peer <- grow pt.miss_peer !n;
    pt.ev_peer <- grow pt.ev_peer !n
  end;
  if block >= pt.hi then pt.hi <- block + 1

let check_thread t i =
  if i < 0 || i >= Array.length t.threads then
    invalid_arg (Printf.sprintf "Profile_sink: bad thread %d" i)

(* [thread] inserts [line] into set [set], evicting [victim] (or nothing
   when [victim < 0]): charge the eviction to the evictor and the victim's
   owner, remember who last evicted the victim, and hand [line] to
   [thread]. *)
let insert t pt ~thread ~block ~set ~line ~victim =
  if victim >= 0 then begin
    t.set_ev.(set) <- t.set_ev.(set) + 1;
    pt.ev.(block) <- pt.ev.(block) + 1;
    (* A victim with no recorded owner was inserted behind the sink's
       back (pre-warmed state); charge it to the evictor so cross-thread
       counts stay conservative. *)
    let owner = match Hashtbl.find_opt t.owners victim with Some o -> o | None -> thread in
    Hashtbl.remove t.owners victim;
    Hashtbl.replace t.last_ev victim thread;
    t.ev_mat.(thread).(owner) <- t.ev_mat.(thread).(owner) + 1;
    if owner <> thread then begin
      pt.ev_peer.(block) <- pt.ev_peer.(block) + 1;
      let vset = Params.set_of_line t.params victim in
      t.set_ev_cross.(vset) <- t.set_ev_cross.(vset) + 1
    end
  end;
  Hashtbl.replace t.owners line thread

let record t ~thread ~block ~line ~hit ~victim =
  check_thread t thread;
  let block = if block < 0 then 0 else block in
  let set = Params.set_of_line t.params line in
  t.set_acc.(set) <- t.set_acc.(set) + 1;
  (* The shadow LRU must observe every access — hits keep its recency
     honest — so classification stays exact even though only misses read
     its verdict. *)
  let shadow_hit =
    match t.shadow with Some sh -> Fully_assoc.access_line sh line | None -> false
  in
  let pt = t.threads.(thread) in
  ensure pt block;
  pt.acc.(block) <- pt.acc.(block) + 1;
  if not hit then begin
    t.set_miss.(set) <- t.set_miss.(set) + 1;
    pt.miss.(block) <- pt.miss.(block) + 1;
    (* Miss provenance: a line that missed and was seen before must have
       been evicted in between (eviction is the only way out of the
       cache), so the last-evictor table classifies every miss as first /
       self-caused / peer-caused with nothing left over. *)
    (match Hashtbl.find_opt t.last_ev line with
    | None -> t.first_miss.(thread) <- t.first_miss.(thread) + 1
    | Some e ->
      t.miss_mat.(thread).(e) <- t.miss_mat.(thread).(e) + 1;
      if e <> thread then pt.miss_peer.(block) <- pt.miss_peer.(block) + 1);
    (* This miss fills [line]: the missing thread owns it from here on. *)
    insert t pt ~thread ~block ~set ~line ~victim;
    if t.shadow <> None then
      if not (Hashtbl.mem t.seen line) then begin
        (* A hit implies an earlier access, so first touches are always
           misses: recording seen lines on the miss path alone is exact. *)
        Hashtbl.replace t.seen line ();
        pt.cold.(block) <- pt.cold.(block) + 1
      end
      else if shadow_hit then pt.conf.(block) <- pt.conf.(block) + 1
      else pt.cap.(block) <- pt.cap.(block) + 1
  end

let record_fill t ~thread ~block ~line ~victim =
  check_thread t thread;
  let block = if block < 0 then 0 else block in
  let pt = t.threads.(thread) in
  ensure pt block;
  insert t pt ~thread ~block ~set:(Params.set_of_line t.params line) ~line ~victim

let sum_field f t =
  Array.fold_left
    (fun acc pt ->
      let s = ref acc in
      let a = f pt in
      for b = 0 to pt.hi - 1 do
        s := !s + a.(b)
      done;
      !s)
    0 t.threads

let thread_sum f pt =
  let s = ref 0 in
  let a = f pt in
  for b = 0 to pt.hi - 1 do
    s := !s + a.(b)
  done;
  !s

let accesses t = sum_field (fun pt -> pt.acc) t

let misses t = sum_field (fun pt -> pt.miss) t

let evictions t = sum_field (fun pt -> pt.ev) t

let cold_misses t = sum_field (fun pt -> pt.cold) t

let capacity_misses t = sum_field (fun pt -> pt.cap) t

let conflict_misses t = sum_field (fun pt -> pt.conf) t

let thread_accesses t i =
  check_thread t i;
  thread_sum (fun pt -> pt.acc) t.threads.(i)

let thread_misses t i =
  check_thread t i;
  thread_sum (fun pt -> pt.miss) t.threads.(i)

let thread_evictions t i =
  check_thread t i;
  thread_sum (fun pt -> pt.ev) t.threads.(i)

(* ---------------- interference ---------------- *)

let copy_matrix m = Array.map Array.copy m

let ev_matrix t = copy_matrix t.ev_mat

let miss_matrix t = copy_matrix t.miss_mat

let first_misses t = Array.copy t.first_miss

let suffered_misses t ~thread =
  check_thread t thread;
  let s = ref 0 in
  Array.iteri (fun e n -> if e <> thread then s := !s + n) t.miss_mat.(thread);
  !s

let inflicted_misses t ~thread =
  check_thread t thread;
  let s = ref 0 in
  Array.iteri
    (fun m row -> if m <> thread then s := !s + row.(thread))
    t.miss_mat;
  !s

let defensiveness t ~thread =
  let a = thread_accesses t thread in
  if a = 0 then 1.0
  else 1.0 -. (float_of_int (suffered_misses t ~thread) /. float_of_int a)

let politeness t ~thread =
  check_thread t thread;
  let peer_acc = ref 0 in
  Array.iteri (fun i _ -> if i <> thread then peer_acc := !peer_acc + thread_accesses t i) t.threads;
  if !peer_acc = 0 then 1.0
  else 1.0 -. (float_of_int (inflicted_misses t ~thread) /. float_of_int !peer_acc)

type block_counts = {
  thread : int;
  block : int;
  b_accesses : int;
  b_misses : int;
  b_cold : int;
  b_capacity : int;
  b_conflict : int;
  b_evictions : int;
  b_peer_misses : int;
  b_peer_evictions : int;
}

let block_rows t =
  let rows = ref [] in
  for th = Array.length t.threads - 1 downto 0 do
    let pt = t.threads.(th) in
    for b = pt.hi - 1 downto 0 do
      if pt.acc.(b) > 0 then
        rows :=
          {
            thread = th;
            block = b;
            b_accesses = pt.acc.(b);
            b_misses = pt.miss.(b);
            b_cold = pt.cold.(b);
            b_capacity = pt.cap.(b);
            b_conflict = pt.conf.(b);
            b_evictions = pt.ev.(b);
            b_peer_misses = pt.miss_peer.(b);
            b_peer_evictions = pt.ev_peer.(b);
          }
          :: !rows
    done
  done;
  !rows

let top_conflict_blocks t ~n =
  block_rows t
  |> List.filter (fun r -> r.b_conflict > 0)
  |> List.sort (fun a b ->
         if a.b_conflict <> b.b_conflict then compare b.b_conflict a.b_conflict
         else if a.b_misses <> b.b_misses then compare b.b_misses a.b_misses
         else compare (a.thread, a.block) (b.thread, b.block))
  |> List.filteri (fun i _ -> i < n)

let num_sets t = t.params.Params.num_sets

let set_counters t ~set =
  if set < 0 || set >= num_sets t then invalid_arg "Profile_sink.set_counters";
  (t.set_acc.(set), t.set_miss.(set), t.set_ev.(set))

let set_cross_evictions t ~set =
  if set < 0 || set >= num_sets t then invalid_arg "Profile_sink.set_cross_evictions";
  t.set_ev_cross.(set)

open Colayout_trace

type node =
  | Leaf of int
  | Group of { w : int; children : node list }

type t = {
  roots : node list;
  ws : int list;
}

type algo = Efficient | Exact

let default_ws = List.init 19 (fun i -> i + 2)

let rec members = function
  | Leaf b -> [ b ]
  | Group { children; _ } -> List.concat_map members children

let check_ws ws =
  let rec ok = function
    | [] -> true
    | [ w ] -> w >= 1
    | w1 :: (w2 :: _ as rest) -> w1 >= 1 && w1 < w2 && ok rest
  in
  if ws = [] || not (ok ws) then
    invalid_arg "Affinity_hierarchy: ws must be positive and strictly ascending"

(* Every affine pair with its level (the smallest index into [ws] at which
   it is affine), as a symmetric CSR adjacency: row [a] lists [a]'s
   partners [nbr] with their levels [lvl]. Affinity is monotone in [w]
   (a footprint <= w is <= every larger window), so "affine at ws.(i)"
   is "level <= i" for both algorithms. *)
type adjacency = {
  row : int array;
  nbr : int array;
  lvl : int array;
}

let adjacency_of ~n iter =
  let row = Array.make (n + 1) 0 in
  iter (fun x y _ ->
      row.(x + 1) <- row.(x + 1) + 1;
      row.(y + 1) <- row.(y + 1) + 1);
  for a = 1 to n do
    row.(a) <- row.(a) + row.(a - 1)
  done;
  let fill = Array.sub row 0 n in
  let nbr = Array.make row.(n) 0 and lvl = Array.make row.(n) 0 in
  let add a b l =
    nbr.(fill.(a)) <- b;
    lvl.(fill.(a)) <- l;
    fill.(a) <- fill.(a) + 1
  in
  iter (fun x y l ->
      add x y l;
      add y x l);
  { row; nbr; lvl }

(* [Exact]: Definition 3 per window; a pair's level is the first window
   whose naive pair set holds it. Returns the iterator [adjacency_of]
   takes. *)
let exact_levels trace ws =
  let module P = Colayout_util.Int_pair_tbl in
  let lv = P.create () in
  List.iteri
    (fun i w ->
      List.iter
        (fun (x, y) -> if not (P.mem lv (P.pack x y)) then P.replace lv (P.pack x y) i)
        (Affinity.pair_list (Affinity.affine_pairs_naive trace ~w)))
    ws;
  fun f -> P.iter (fun k l -> f (P.fst_of k) (P.snd_of k) l) lv

(* A working group: the dendrogram node, its members in order and the
   first trace position of any member (for deterministic ordering). *)
type work = {
  node : node;
  mems : int array;
  first_pos : int;
}

(* Scratch shared by the levels: [cluster_of] maps a block to its cluster
   at the level being merged (-1 while unplaced); [hits] counts, per
   cluster, the affine cross pairs found for the group being placed. *)
type scratch = {
  cluster_of : int array;
  hits : int array;
  touched : Colayout_util.Int_vec.t;
}

(* Greedy agglomeration at window index [i]: in order, each group joins the
   first accumulated cluster with which every cross pair is affine, else
   opens a new one. A group [g] is compatible with cluster [c] iff the
   affine pairs between them number [|g| * |c|], so one pass over the
   members' affine partners finds every compatible cluster at once. *)
let merge_level ?decisions ~w ~i adj sc groups =
  let module V = Colayout_util.Int_vec in
  let ng = Array.length groups in
  let size = Array.make ng 0 (* members per cluster *) in
  let parts = Array.make ng [] (* groups per cluster, newest first *) in
  let count = Array.make ng 0 (* groups per cluster *) in
  let head = Array.make ng 0 (* the cluster's first member *) in
  let nc = ref 0 in
  Array.iter
    (fun g ->
      V.clear sc.touched;
      Array.iter
        (fun a ->
          for j = adj.row.(a) to adj.row.(a + 1) - 1 do
            if adj.lvl.(j) <= i then begin
              let k = sc.cluster_of.(adj.nbr.(j)) in
              if k >= 0 then begin
                if sc.hits.(k) = 0 then V.push sc.touched k;
                sc.hits.(k) <- sc.hits.(k) + 1
              end
            end
          done)
        g.mems;
      let need = Array.length g.mems in
      let best = ref max_int in
      V.iter
        (fun k ->
          if k < !best && sc.hits.(k) = need * size.(k) then best := k;
          sc.hits.(k) <- 0)
        sc.touched;
      let k =
        if !best < max_int then begin
          let k = !best in
          Decision_trace.emit decisions ~stage:"affinity" ~action:"join" ~x:g.mems.(0)
            ~y:head.(k) ~weight:w ~group:k ~size:(count.(k) + 1) ();
          k
        end
        else begin
          head.(!nc) <- g.mems.(0);
          incr nc;
          !nc - 1
        end
      in
      size.(k) <- size.(k) + need;
      parts.(k) <- g :: parts.(k);
      count.(k) <- count.(k) + 1;
      Array.iter (fun a -> sc.cluster_of.(a) <- k) g.mems)
    groups;
  Array.iter (fun g -> Array.iter (fun a -> sc.cluster_of.(a) <- -1) g.mems) groups;
  Array.init !nc (fun k ->
      match List.rev parts.(k) with
      | [ g ] -> g
      | gs ->
        {
          node = Group { w; children = List.map (fun g -> g.node) gs };
          mems = Array.concat (List.map (fun g -> g.mems) gs);
          first_pos = List.fold_left (fun acc g -> min acc g.first_pos) max_int gs;
        })

let build ?decisions ?(algo = Efficient) ?(ws = default_ws) trace =
  check_ws ws;
  if not (Trim.is_trimmed trace) then
    invalid_arg "Affinity_hierarchy.build: trace must be trimmed";
  let n = Trace.num_symbols trace in
  let adj =
    match algo with
    | Efficient ->
      let ls = Affinity.pair_levels trace ~ws in
      adjacency_of ~n (fun f -> Affinity.iter_levels f ls)
    | Exact -> adjacency_of ~n (exact_levels trace ws)
  in
  let first = Trace.first_occurrence trace in
  let present =
    List.init n Fun.id
    |> List.filter (fun s -> first.(s) >= 0)
    |> List.sort (fun a b -> compare first.(a) first.(b))
  in
  let groups =
    ref
      (Array.of_list
         (List.map (fun b -> { node = Leaf b; mems = [| b |]; first_pos = first.(b) }) present))
  in
  let sc =
    {
      cluster_of = Array.make n (-1);
      hits = Array.make (Array.length !groups) 0;
      touched = Colayout_util.Int_vec.create ();
    }
  in
  List.iteri
    (fun i w ->
      if Array.length !groups > 1 then begin
        groups := merge_level ?decisions ~w ~i adj sc !groups;
        Decision_trace.emit decisions ~stage:"affinity" ~action:"level" ~weight:w
          ~size:(Array.length !groups) ()
      end)
    ws;
  let roots = List.sort (fun a b -> compare a.first_pos b.first_pos) (Array.to_list !groups) in
  { roots = List.map (fun g -> g.node) roots; ws }

let order t = List.concat_map members t.roots

let partition_at t ~w =
  let rec cut node =
    match node with
    | Leaf b -> [ [ b ] ]
    | Group { w = gw; children } ->
      if gw <= w then [ members node ]
      else List.concat_map cut children
  in
  List.concat_map cut t.roots

let rec pp_node ppf = function
  | Leaf b -> Format.fprintf ppf "B%d" b
  | Group { w; children } ->
    Format.fprintf ppf "(@[w=%d:%a@])" w
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ") pp_node)
      children

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ") pp_node)
    t.roots

open Colayout_util

type t = {
  list : int Dlist.t;
  nodes : (int, int Dlist.node) Hashtbl.t;
}

let create () = { list = Dlist.create (); nodes = Hashtbl.create 1024 }

let depth t = Dlist.length t.list

let clear t =
  Dlist.clear t.list;
  Hashtbl.clear t.nodes

(* 1-based depth by walking from the top. Only used on a hit, where the cost
   is proportional to the distance itself — the same work any list-based
   stack simulation does (Mattson et al. 1970). [Stack_dist] provides the
   O(log n) tree-based alternative for long-distance-heavy traces. *)
let stack_depth_of t node =
  let rec from_front n acc =
    match n with
    | None -> assert false
    | Some x -> if x == node then acc else from_front (Dlist.next x) (acc + 1)
  in
  from_front (Dlist.front t.list) 1

let access t sym =
  match Hashtbl.find_opt t.nodes sym with
  | Some node ->
    let d = stack_depth_of t node in
    Dlist.move_to_front t.list node;
    Some d
  | None ->
    let node = Dlist.push_front t.list sym in
    Hashtbl.replace t.nodes sym node;
    None

let push_new t sym =
  let node = Dlist.push_front t.list sym in
  Hashtbl.replace t.nodes sym node

let access_bounded t ~limit sym =
  match Hashtbl.find_opt t.nodes sym with
  | Some node ->
    (* Walk at most [limit] nodes: windowed clients (TRG construction) never
       consume depths beyond their window, so the full-depth walk of
       {!access} would be pure waste on deep reuses. *)
    let rec from_front n acc =
      if acc > limit then None
      else
        match n with
        | None -> assert false
        | Some x -> if x == node then Some acc else from_front (Dlist.next x) (acc + 1)
    in
    let d = from_front (Dlist.front t.list) 1 in
    Dlist.move_to_front t.list node;
    d
  | None ->
    push_new t sym;
    None

let touch t sym =
  match Hashtbl.find_opt t.nodes sym with
  | Some node -> Dlist.move_to_front t.list node
  | None -> push_new t sym

let iter_top t ~k f =
  let rec loop n i =
    if i < k then
      match n with
      | None -> ()
      | Some x ->
        f (Dlist.value x);
        loop (Dlist.next x) (i + 1)
  in
  loop (Dlist.front t.list) 0

(* A top-level loop over explicit arguments: filling builds no closure. *)
let rec fill_top v k n i =
  if i < k then
    match n with
    | None -> ()
    | Some x ->
      Int_vec.push v (Dlist.value x);
      fill_top v k (Dlist.next x) (i + 1)

let top_into t ~k v =
  Int_vec.clear v;
  fill_top v k (Dlist.front t.list) 0

let top_k t ~k =
  let acc = ref [] in
  iter_top t ~k (fun s -> acc := s :: !acc);
  List.rev !acc

let iter_until t f =
  let rec loop n =
    match n with
    | None -> ()
    | Some x -> if f (Dlist.value x) then loop (Dlist.next x)
  in
  loop (Dlist.front t.list)

let iter_until_depth t f =
  let rec loop n d =
    match n with
    | None -> ()
    | Some x -> if f d (Dlist.value x) then loop (Dlist.next x) (d + 1)
  in
  loop (Dlist.front t.list) 1

let position t sym =
  match Hashtbl.find_opt t.nodes sym with
  | None -> None
  | Some node -> Some (stack_depth_of t node - 1)

let contents t = Dlist.to_list t.list

open Colayout_util

let check = Alcotest.check

(* ------------------------------------------------------------------ Vec *)

let test_vec_basics () =
  let v = Vec.create () in
  check Alcotest.bool "empty" true (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  check Alcotest.int "length" 3 (Vec.length v);
  check Alcotest.int "get" 2 (Vec.get v 1);
  Vec.set v 1 9;
  check Alcotest.int "set" 9 (Vec.get v 1);
  check (Alcotest.option Alcotest.int) "last" (Some 3) (Vec.last v);
  check (Alcotest.option Alcotest.int) "pop" (Some 3) (Vec.pop v);
  check Alcotest.int "length after pop" 2 (Vec.length v);
  check (Alcotest.list Alcotest.int) "to_list" [ 1; 9 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 2 out of bounds [0,2)")
    (fun () -> ignore (Vec.get v 2));
  Alcotest.check_raises "neg" (Invalid_argument "Vec: index -1 out of bounds [0,2)")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 9999 do
    Vec.push v i
  done;
  check Alcotest.int "length" 10000 (Vec.length v);
  check Alcotest.int "first" 0 (Vec.get v 0);
  check Alcotest.int "last" 9999 (Vec.get v 9999);
  let sum = Vec.fold_left ( + ) 0 v in
  check Alcotest.int "fold sum" (9999 * 10000 / 2) sum

let test_vec_ops () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  let doubled = Vec.map (fun x -> 2 * x) v in
  check (Alcotest.list Alcotest.int) "map" [ 6; 2; 4 ] (Vec.to_list doubled);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 1) v);
  check Alcotest.bool "not exists" false (Vec.exists (fun x -> x = 7) v);
  let dst = Vec.of_list [ 0 ] in
  Vec.append dst v;
  check (Alcotest.list Alcotest.int) "append" [ 0; 3; 1; 2 ] (Vec.to_list dst);
  let s = Vec.sub dst ~pos:1 ~len:2 in
  check (Alcotest.list Alcotest.int) "sub" [ 3; 1 ] (Vec.to_list s)

(* -------------------------------------------------------------- Int_vec *)

let test_int_vec () =
  let v = Int_vec.create () in
  for i = 0 to 999 do
    Int_vec.push v (i * i)
  done;
  check Alcotest.int "length" 1000 (Int_vec.length v);
  check Alcotest.int "get" (25 * 25) (Int_vec.get v 25);
  check (Alcotest.option Alcotest.int) "max" (Some (999 * 999)) (Int_vec.max_element v);
  let v2 = Int_vec.of_array (Int_vec.to_array v) in
  check Alcotest.bool "roundtrip equal" true (Int_vec.equal v v2);
  Int_vec.set v2 0 (-5);
  check Alcotest.bool "not equal after set" false (Int_vec.equal v v2)

let test_int_vec_sub_append () =
  let v = Int_vec.of_list [ 1; 2; 3; 4 ] in
  let s = Int_vec.sub v ~pos:1 ~len:2 in
  check (Alcotest.list Alcotest.int) "sub" [ 2; 3 ] (Int_vec.to_list s);
  Int_vec.append s v;
  check Alcotest.int "append length" 6 (Int_vec.length s);
  Alcotest.check_raises "sub oob" (Invalid_argument "Int_vec.sub") (fun () ->
      ignore (Int_vec.sub v ~pos:3 ~len:2))

(* ----------------------------------------------------------------- Prng *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 in
  let b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create ~seed:43 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1_000_000 <> Prng.int c 1_000_000 then diff := true
  done;
  check Alcotest.bool "different seeds differ" true !diff

let test_prng_bounds () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in t ~lo:(-5) ~hi:5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of range: %d" v;
    let f = Prng.float t in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_prng_shuffle_permutation () =
  let t = Prng.create ~seed:11 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 100 Fun.id) sorted

let test_prng_zipf () =
  let t = Prng.create ~seed:3 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let v = Prng.zipf t ~n:10 ~s:1.0 in
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 must dominate rank 9 by roughly n under s = 1. *)
  check Alcotest.bool "zipf skew" true (counts.(0) > 4 * counts.(9));
  check Alcotest.bool "all ranks hit" true (Array.for_all (fun c -> c > 0) counts)

let test_prng_geometric () =
  let t = Prng.create ~seed:5 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Prng.geometric t ~p:0.5 in
    if v < 0 then Alcotest.fail "negative geometric";
    total := !total + v
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* E[failures] = (1-p)/p = 1. *)
  check Alcotest.bool "geometric mean near 1" true (mean > 0.9 && mean < 1.1)

(* ---------------------------------------------------------------- Dlist *)

let test_dlist_order () =
  let l = Dlist.create () in
  let _ = Dlist.push_back l 1 in
  let _ = Dlist.push_back l 2 in
  let _ = Dlist.push_front l 0 in
  check (Alcotest.list Alcotest.int) "order" [ 0; 1; 2 ] (Dlist.to_list l);
  check Alcotest.int "length" 3 (Dlist.length l)

let test_dlist_remove_move () =
  let l = Dlist.create () in
  let n1 = Dlist.push_back l 1 in
  let n2 = Dlist.push_back l 2 in
  let n3 = Dlist.push_back l 3 in
  Dlist.remove l n2;
  check (Alcotest.list Alcotest.int) "after remove" [ 1; 3 ] (Dlist.to_list l);
  Dlist.move_to_front l n3;
  check (Alcotest.list Alcotest.int) "after move" [ 3; 1 ] (Dlist.to_list l);
  (* Handles stay valid across move_to_front. *)
  Dlist.move_to_front l n1;
  Dlist.move_to_front l n3;
  check (Alcotest.list Alcotest.int) "handles valid" [ 3; 1 ] (Dlist.to_list l);
  Alcotest.check_raises "double remove" (Invalid_argument "Dlist: node does not belong to this list")
    (fun () -> Dlist.remove l n2)

let test_dlist_front_back () =
  let l = Dlist.create () in
  check Alcotest.bool "no front" true (Dlist.front l = None);
  let _ = Dlist.push_back l 5 in
  (match (Dlist.front l, Dlist.back l) with
  | Some f, Some b ->
    check Alcotest.int "front" 5 (Dlist.value f);
    check Alcotest.int "back" 5 (Dlist.value b)
  | _ -> Alcotest.fail "expected nodes");
  check Alcotest.int "fold" 5 (Dlist.fold ( + ) 0 l)

(* --------------------------------------------------------------- Ostree *)

let test_ostree_basic () =
  let t = Ostree.create () in
  List.iter (Ostree.insert t) [ 5; 1; 9; 3; 7 ];
  Ostree.check_invariants t;
  check Alcotest.int "size" 5 (Ostree.size t);
  check Alcotest.bool "mem" true (Ostree.mem t 3);
  check Alcotest.bool "not mem" false (Ostree.mem t 4);
  check Alcotest.int "rank_above 4" 3 (Ostree.rank_above t 4);
  check Alcotest.int "rank_above 9" 0 (Ostree.rank_above t 9);
  check Alcotest.int "rank_above 0" 5 (Ostree.rank_above t 0);
  check (Alcotest.option Alcotest.int) "min" (Some 1) (Ostree.min_key t);
  check (Alcotest.option Alcotest.int) "max" (Some 9) (Ostree.max_key t);
  Ostree.delete t 5;
  Ostree.check_invariants t;
  check Alcotest.int "size after delete" 4 (Ostree.size t);
  Alcotest.check_raises "delete missing" Not_found (fun () -> Ostree.delete t 5);
  Alcotest.check_raises "duplicate insert" (Invalid_argument "Ostree.insert: duplicate key")
    (fun () -> Ostree.insert t 1)

let ostree_random_prop =
  QCheck.Test.make ~name:"ostree matches sorted-list reference under random ops"
    ~count:200
    QCheck.(pair small_int (list (pair bool (int_bound 200))))
    (fun (probe, ops) ->
      let t = Ostree.create () in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun (ins, k) ->
          if ins then begin
            if not (Hashtbl.mem reference k) then begin
              Ostree.insert t k;
              Hashtbl.replace reference k ()
            end
          end
          else if Hashtbl.mem reference k then begin
            Ostree.delete t k;
            Hashtbl.remove reference k
          end)
        ops;
      Ostree.check_invariants t;
      let expected = Hashtbl.fold (fun k () acc -> if k > probe then acc + 1 else acc) reference 0 in
      Ostree.size t = Hashtbl.length reference && Ostree.rank_above t probe = expected)

(* ----------------------------------------------------------------- Heap *)

let heap_sort_prop =
  QCheck.Test.make ~name:"pops in ascending order" ~count:200
    QCheck.(list (pair (int_range (-4) 4) int))
    (fun xs ->
      let h = Int_pair_heap.create ~capacity:1 () in
      List.iter (fun (a, b) -> Int_pair_heap.push h a b) xs;
      let rec drain acc =
        if Int_pair_heap.is_empty h then List.rev acc
        else begin
          let top = (Int_pair_heap.top_fst h, Int_pair_heap.top_snd h) in
          Int_pair_heap.drop_top h;
          drain (top :: acc)
        end
      in
      drain [] = List.sort compare xs)

let test_heap_basic () =
  let h = Int_pair_heap.create () in
  check Alcotest.bool "empty" true (Int_pair_heap.is_empty h);
  Int_pair_heap.push h 3 0;
  Int_pair_heap.push h (-10) 5;
  Int_pair_heap.push h (-10) 2;
  Int_pair_heap.push h 7 1;
  check Alcotest.(pair int int) "top" (-10, 2) (Int_pair_heap.top_fst h, Int_pair_heap.top_snd h);
  Int_pair_heap.drop_top h;
  check Alcotest.(pair int int) "tie on primary pops smaller secondary first" (-10, 5)
    (Int_pair_heap.top_fst h, Int_pair_heap.top_snd h);
  check Alcotest.int "length" 3 (Int_pair_heap.length h);
  Alcotest.check_raises "empty top" (Invalid_argument "Int_pair_heap: empty heap") (fun () ->
      ignore (Int_pair_heap.top_fst (Int_pair_heap.create ())))

(* ---------------------------------------------------------------- Stats *)

let test_stats () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Stats.mean []);
  check (Alcotest.float 1e-9) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "speedup" 2.0 (Stats.speedup ~base:10.0 ~opt:5.0);
  check (Alcotest.float 1e-9) "pct change" 50.0 (Stats.percent_change ~base:2.0 ~v:3.0);
  Alcotest.check_raises "geomean non-positive" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "stddev constant" 0.0 (Stats.stddev [ 4.0; 4.0; 4.0 ]);
  check (Alcotest.float 1e-9) "stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

(* ---------------------------------------------------------------- Table *)

let test_table () =
  let t = Table.create ~title:"demo" ~columns:[ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_rows t [ [ "yy"; "22" ] ];
  check Alcotest.int "rows" 2 (Table.row_count t);
  let rendered = Table.render t in
  check Alcotest.bool "has title" true
    (String.length rendered > 0 && String.sub rendered 0 7 = "== demo");
  let csv = Table.to_csv t in
  check Alcotest.string "csv" "a,b\nx,1\nyy,22" csv;
  Alcotest.check_raises "bad width" (Invalid_argument "Table.add_row: expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "only" ])

let test_table_csv_escaping () =
  let t = Table.create ~title:"q" ~columns:[ ("c", Table.Left) ] in
  Table.add_row t [ "has,comma" ];
  Table.add_row t [ "has\"quote" ];
  check Alcotest.string "escaped" "c\n\"has,comma\"\n\"has\"\"quote\"" (Table.to_csv t)

let test_table_formats () =
  check Alcotest.string "pct" "3.14%" (Table.fmt_pct 3.14159);
  check Alcotest.string "ratio" "1.046" (Table.fmt_ratio 1.0456);
  check Alcotest.string "int" "1,234,567" (Table.fmt_int 1234567);
  check Alcotest.string "negative int" "-1,234" (Table.fmt_int (-1234));
  check Alcotest.string "small int" "42" (Table.fmt_int 42)

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "ops" `Quick test_vec_ops;
        ] );
      ( "int_vec",
        [
          Alcotest.test_case "basics" `Quick test_int_vec;
          Alcotest.test_case "sub/append" `Quick test_int_vec_sub_append;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "zipf" `Quick test_prng_zipf;
          Alcotest.test_case "geometric" `Quick test_prng_geometric;
        ] );
      ( "dlist",
        [
          Alcotest.test_case "order" `Quick test_dlist_order;
          Alcotest.test_case "remove/move" `Quick test_dlist_remove_move;
          Alcotest.test_case "front/back" `Quick test_dlist_front_back;
        ] );
      ( "ostree",
        [
          Alcotest.test_case "basic" `Quick test_ostree_basic;
          QCheck_alcotest.to_alcotest ostree_random_prop;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          QCheck_alcotest.to_alcotest heap_sort_prop;
        ] );
      ( "stats",
        [
          Alcotest.test_case "aggregates" `Quick test_stats;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
        ] );
      ( "table",
        [
          Alcotest.test_case "render/csv" `Quick test_table;
          Alcotest.test_case "csv escaping" `Quick test_table_csv_escaping;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
    ]

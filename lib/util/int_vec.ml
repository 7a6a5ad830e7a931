type t = {
  mutable data : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Int_vec.create";
  { data = Array.make (max capacity 1) 0; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Int_vec: index %d out of bounds [0,%d)" i v.len)

let get v i =
  check v i;
  Array.unsafe_get v.data i

let unsafe_get v i = Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let grow v =
  let data' = Array.make (2 * Array.length v.data) 0 in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    Some v.data.(v.len)
  end

let last v = if v.len = 0 then None else Some v.data.(v.len - 1)

let clear v = v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Int_vec.truncate";
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let to_list v = List.rev (fold_left (fun acc x -> x :: acc) [] v)

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let to_array v = Array.sub v.data 0 v.len

let of_array a =
  let v = create ~capacity:(max 1 (Array.length a)) () in
  Array.iter (push v) a;
  v

let append dst src = iter (push dst) src

let sub v ~pos ~len =
  if pos < 0 || len < 0 || pos + len > v.len then invalid_arg "Int_vec.sub";
  let out = create ~capacity:(max len 1) () in
  for i = pos to pos + len - 1 do
    push out v.data.(i)
  done;
  out

let max_element v =
  if v.len = 0 then None
  else Some (fold_left (fun m x -> if x > m then x else m) min_int v)

let equal a b =
  a.len = b.len
  &&
  let rec loop i = i >= a.len || (a.data.(i) = b.data.(i) && loop (i + 1)) in
  loop 0

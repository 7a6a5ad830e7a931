type t = { degree : int }

let create ?(degree = 1) () =
  if degree <= 0 then invalid_arg "Prefetch.create";
  { degree }

let degree t = t.degree

let magic = "CLTR1\n"

let write_varint buf n =
  if n < 0 then invalid_arg "Trace_io.write_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

let zigzag n = if n >= 0 then n lsl 1 else ((-n) lsl 1) - 1

let unzigzag z = if z land 1 = 0 then z lsr 1 else -((z + 1) lsr 1)

(* Streaming varint reader over an input channel with a one-byte interface;
   buffered by the channel itself. [write_varint] never emits more than 9
   bytes (7 bits each cover the 63-bit int), so a tenth byte is corruption,
   not a large value. *)
let read_varint ic =
  let rec go shift acc =
    if shift > 56 then failwith "Trace_io: varint longer than 9 bytes";
    match In_channel.input_char ic with
    | None -> failwith "Trace_io: truncated varint"
    | Some c ->
      let b = Char.code c in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let save ~path trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      let buf = Buffer.create (4 * Trace.length trace) in
      write_varint buf (Trace.num_symbols trace);
      write_varint buf (Trace.length trace);
      let prev = ref 0 in
      Trace.iter
        (fun s ->
          write_varint buf (zigzag (s - !prev));
          prev := s)
        trace;
      Buffer.output_buffer oc buf)

(* Chunked streaming reader: decodes the header eagerly, then hands out
   events in caller-sized chunks so ingest never holds a whole trace in
   memory (403.gcc-scale traces run to gigabytes). The eager [load] below
   is the same loop with a Trace.t as the sink. *)
type reader = {
  ic : in_channel;
  r_num_symbols : int;
  r_length : int;
  mutable r_remaining : int;
  mutable r_prev : int;
  mutable r_closed : bool;
}

let open_reader ~path =
  let ic = open_in_bin path in
  match
    let m = In_channel.really_input_string ic (String.length magic) in
    if m <> Some magic then failwith "Trace_io: bad magic";
    let num_symbols = read_varint ic in
    let len = read_varint ic in
    if num_symbols < 1 then failwith "Trace_io: symbol universe must be >= 1";
    if len < 0 then failwith "Trace_io: negative event count";
    (num_symbols, len)
  with
  | num_symbols, len ->
    {
      ic;
      r_num_symbols = num_symbols;
      r_length = len;
      r_remaining = len;
      r_prev = 0;
      r_closed = false;
    }
  | exception e ->
    close_in_noerr ic;
    raise e

let reader_num_symbols r = r.r_num_symbols

let reader_length r = r.r_length

let reader_remaining r = r.r_remaining

let read_chunk r buf =
  if r.r_closed then invalid_arg "Trace_io.read_chunk: reader closed";
  let n = min (Array.length buf) r.r_remaining in
  let prev = ref r.r_prev in
  for i = 0 to n - 1 do
    let s = !prev + unzigzag (read_varint r.ic) in
    if s < 0 || s >= r.r_num_symbols then
      failwith (Printf.sprintf "Trace_io: event %d outside [0, %d)" s r.r_num_symbols);
    buf.(i) <- s;
    prev := s
  done;
  r.r_prev <- !prev;
  r.r_remaining <- r.r_remaining - n;
  n

let close_reader r =
  if not r.r_closed then begin
    r.r_closed <- true;
    close_in_noerr r.ic
  end

let with_reader ~path f =
  let r = open_reader ~path in
  Fun.protect ~finally:(fun () -> close_reader r) (fun () -> f r)

let fold_chunks ~path ?(chunk = 1 lsl 16) f acc =
  with_reader ~path (fun r ->
      let buf = Array.make (max 1 chunk) 0 in
      let rec go acc =
        let n = read_chunk r buf in
        if n = 0 then acc else go (f acc buf n)
      in
      go acc)

let load ~path =
  with_reader ~path (fun r ->
      let t =
        Trace.create ~name:(Filename.basename path) ~num_symbols:(reader_num_symbols r) ()
      in
      let buf = Array.make (1 lsl 16) 0 in
      let rec go () =
        let n = read_chunk r buf in
        if n > 0 then begin
          for i = 0 to n - 1 do
            Trace.push t buf.(i)
          done;
          go ()
        end
      in
      go ();
      t)

let save_mapping ~path ~names =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iteri (fun i name -> Printf.fprintf oc "%d\t%s\n" i name) names)

let load_mapping ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let entries = ref [] in
      (try
         while true do
           let line = input_line ic in
           if line <> "" then begin
             match String.index_opt line '\t' with
             | None -> failwith ("Trace_io: malformed mapping line: " ^ line)
             | Some tab ->
               let idx = int_of_string (String.sub line 0 tab) in
               let name = String.sub line (tab + 1) (String.length line - tab - 1) in
               entries := (idx, name) :: !entries
           end
         done
       with End_of_file -> ());
      let sorted = List.sort compare (List.rev !entries) in
      List.iteri
        (fun i (idx, _) ->
          if i <> idx then failwith "Trace_io: mapping indices not contiguous from 0")
        sorted;
      Array.of_list (List.map snd sorted))

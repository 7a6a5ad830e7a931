(** Trace and mapping-file persistence (§II-F "Instrumentation").

    The paper's instrumentation "records the trace of all functions and all
    basic blocks in a file" together with "a mapping file to assign each
    basic block or function an index". This module provides both: a compact
    varint-encoded binary trace format (block traces run to hundreds of
    millions of events — 403.gcc's test-input trace was 8 GB) and a textual
    mapping file from symbol index to name.

    Binary format: the magic bytes ["CLTR1\n"], then the symbol-universe
    size and the event count as varints, then the delta-zigzag-varint event
    stream. Deltas make hot loops (which bounce between nearby ids) encode
    in one byte per event. *)

val save : path:string -> Trace.t -> unit
(** @raise Sys_error on I/O failure. *)

val load : path:string -> Trace.t
(** Eager read (built on {!with_reader}) for the batch path.
    @raise Failure on a malformed or truncated file (never
    [Invalid_argument], whatever the bytes). *)

(** {2 Chunked streaming reads}

    A {!reader} decodes the header eagerly and then streams events in
    caller-sized chunks, so a consumer (e.g. the ingest service) never
    materializes a whole trace in memory. Readers are single-owner and
    not domain-safe. *)

type reader

val open_reader : path:string -> reader
(** @raise Failure on bad magic or a truncated or invalid header (a
    symbol universe below 1, a negative event count, a varint longer than
    9 bytes);
    @raise Sys_error on I/O failure. The channel is closed on raise. *)

val reader_num_symbols : reader -> int

val reader_length : reader -> int
(** Total events in the file (from the header). *)

val reader_remaining : reader -> int
(** Events not yet handed out by {!read_chunk}. *)

val read_chunk : reader -> int array -> int
(** [read_chunk r buf] fills a prefix of [buf] with the next events and
    returns how many were written — 0 exactly at end of stream.
    @raise Failure on a truncated body, an over-long varint or an event
    outside [\[0, reader_num_symbols r)];
    @raise Invalid_argument after {!close_reader}. *)

val close_reader : reader -> unit
(** Idempotent. *)

val with_reader : path:string -> (reader -> 'a) -> 'a
(** Open, run, close (exception-safe). *)

val fold_chunks : path:string -> ?chunk:int -> ('a -> int array -> int -> 'a) -> 'a -> 'a
(** [fold_chunks ~path f acc] folds [f acc buf n] over the stream, where
    only [buf.(0..n-1)] is valid and the buffer is reused between calls
    ([chunk] events long, default 65536). *)

val save_mapping : path:string -> names:string array -> unit
(** One [index<TAB>name] line per symbol. *)

val load_mapping : path:string -> string array
(** @raise Failure on malformed lines or non-contiguous indices. *)

(**/**)

val write_varint : Buffer.t -> int -> unit
(** Exposed for tests: LEB128, non-negative ints only. *)

val zigzag : int -> int

val unzigzag : int -> int

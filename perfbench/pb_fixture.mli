(** Fixtures of the benchmark: device tables and Fig 3(b) reference
    points, stored as JSON in the program's own serve codec ({!Sjson},
    {!Serve_protocol.table_to_json}).

    {!Sjson} renders every float to round-trip precision, so a fixture
    reads back bit for bit.  Each file carries its provenance as a list
    of lines under ["provenance"]. *)

val write_table : path:string -> provenance:string list -> Iv_table.t -> unit

val read_table : string -> Iv_table.t
(** [Sjson.parse] and [Serve_protocol.table_of_json] on the file: the
    program's own parser and table decoder.  Raises [Failure] naming
    the file on malformed input. *)

val write_points : path:string -> provenance:string list -> Explore.point list -> unit

val read_points : string -> Explore.point list

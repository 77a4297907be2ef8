(** Traffic-matrix persistence.

    A DTR instance carries two matrices, delay-sensitive and
    throughput-sensitive, kept in one text document, one record per line:

    {v
      # dtr traffic v1 (two classes)
      class d
      size 30
      demand 0 1 12.375      # src dst mb/s
      class t
      size 30
      demand 0 1 40.5
    v}

    Zero demands are omitted. *)

val pair_to_string : rd:Dtr_traffic.Matrix.t -> rt:Dtr_traffic.Matrix.t -> string
(** Both classes in one document. @raise Invalid_argument on size mismatch. *)

val pair_of_string : string -> Dtr_traffic.Matrix.t * Dtr_traffic.Matrix.t
(** Parses a document this program wrote: it trusts each [size] record and
    allocates its n x n matrix before reading any demand, so a document
    from elsewhere goes through {!load_pair}, which bounds [size] by the
    topology.
    @raise Failure with a line-numbered message on malformed input, or on
    a missing class section. *)

val load_pair : nodes:int -> path:string -> Dtr_traffic.Matrix.t * Dtr_traffic.Matrix.t
(** {!pair_of_string} of a file's contents, for a topology of [nodes]
    nodes: a [size] record of any other count is refused, with its line
    number, before its matrix is allocated. *)

(** Traffic-matrix persistence.

    Tab-separated text format, one demand per line:

    {v
      # dtr traffic v1
      size 30
      demand 0 1 12.375      # src dst mb/s
    v}

    Zero demands are omitted.  A DTR instance carries two matrices; use two
    files or {!pair_to_string}/{!pair_of_string}, which concatenate the
    delay-sensitive and throughput-sensitive matrices with [class d] /
    [class t] markers. *)

val to_string : Dtr_traffic.Matrix.t -> string
val of_string : string -> Dtr_traffic.Matrix.t
(** @raise Failure with a line-numbered message on malformed input. *)

val save : Dtr_traffic.Matrix.t -> path:string -> unit
val load : path:string -> Dtr_traffic.Matrix.t

val pair_to_string : rd:Dtr_traffic.Matrix.t -> rt:Dtr_traffic.Matrix.t -> string
(** Both classes in one document. @raise Invalid_argument on size mismatch. *)

val pair_of_string : string -> Dtr_traffic.Matrix.t * Dtr_traffic.Matrix.t
(** @raise Failure on malformed input or a missing class section. *)

val load_pair : nodes:int -> path:string -> Dtr_traffic.Matrix.t * Dtr_traffic.Matrix.t
(** {!pair_of_string} of a file's contents, for a topology of [nodes]
    nodes: a [size] record of any other count is refused, with its line
    number, before its matrix is allocated. *)

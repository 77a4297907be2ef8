(** Weight-setting persistence — the artefact an operator actually deploys.

    Format, one arc per line:

    {v
      # dtr weights v1
      arcs 180
      w 0 7 12      # arc_id delay_class_weight throughput_class_weight
    v}

    Every arc must appear exactly once, with both weights in
    [1 .. Dtr_spf.Dijkstra.infinity / arcs].  A simple path has fewer arcs
    than the setting, so under that bound no path sum or relaxation can
    reach {!Dtr_spf.Dijkstra.infinity}. *)

val to_string : Dtr_core.Weights.t -> string

val of_string : string -> Dtr_core.Weights.t
(** @raise Failure with a line-numbered message on malformed, missing or
    duplicated arcs, on an [arcs] count above the document's line count,
    and on weights outside the bound above. *)

val save : Dtr_core.Weights.t -> path:string -> unit
val load : path:string -> Dtr_core.Weights.t

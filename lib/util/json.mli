(** Minimal dependency-free JSON reader and writer.

    The reader backs the trace tooling ([dtr-opt trace diff] / [trace
    bench-check]): full value grammar, numbers as floats, [\uXXXX] escapes
    decoded to UTF-8, object members in file order.  The writer is its
    inverse — the serve wire protocol serializes whole values with
    {!to_string}, and the report emitters use the {!escaped}/
    {!number_string} primitives so string escaping and float round-tripping
    are single-sourced instead of hand-rolled per emitter. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
(** Parse one complete JSON document; trailing non-whitespace is an error,
    and so is nesting arrays and objects more than 512 deep. *)

val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** First member with that key, when the value is an object. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option

val to_int_opt : t -> int option
(** Numbers with an integral value only. *)

val to_bool_opt : t -> bool option

val to_list : t -> t list
(** Array elements; [[]] for non-arrays. *)

val to_obj : t -> (string * t) list
(** Object members; [[]] for non-objects. *)

val string_member : string -> t -> default:string -> string
val float_member : string -> t -> default:float -> float
val int_member : string -> t -> default:int -> int

(** {1 Writer} *)

val escaped : string -> string
(** JSON string-body escaping (no surrounding quotes): quote, backslash and
    C0 controls are escaped; UTF-8 multibyte bytes pass through verbatim. *)

val number_string : float -> string
(** Shortest decimal form that {!parse} reads back to the same bits:
    integral values as ["N.0"], others via %.15g with a %.17g fallback.
    Non-finite floats — which JSON cannot represent — become ["null"]. *)

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
(** Single-line emission, [", "]/[": "] separators; [parse (to_string j)]
    yields [j] up to non-finite numbers (emitted as [Null]). *)

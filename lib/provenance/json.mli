(** Minimal JSON tree, printer, and parser.

    Just enough for the provenance sidecar, the telemetry exports
    (Perfetto traces, JSONL logs) and the bench records: no dependency
    beyond the standard library, compact one-line output, and a recursive-descent
    parser whose errors carry a byte offset.  Numbers are [float]s;
    integers survive a round trip exactly up to 2^53, and every finite
    float is printed with enough digits to parse back to the same bits.
    Non-finite numbers have no JSON spelling and print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no whitespace) rendering; a non-finite {!Num} prints as
    [null]. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed).  The error
    string is ["byte N: reason"]. *)

val member : string -> t -> t
(** Field of an {!Obj}, or {!Null} when absent / not an object. *)

val to_list : t -> t list
(** Elements of an {!Arr}, or [[]] otherwise. *)

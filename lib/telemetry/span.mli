(** Hierarchical wall-clock spans over the inference pipeline.

    A span is opened with {!with_span}, covers the host wall-clock time of
    its body, and closes even when the body raises — the tree of closed
    spans is therefore always well nested.  Spans record into a
    {!collector} installed with {!set_collector}; with no collector
    installed, {!with_span} is a tail call into the body (a single atomic
    load of overhead), so instrumented code paths cost nothing in normal
    runs.

    Nesting is tracked per domain (domain-local open-span stacks), so the
    orchestrator's worker domains each get their own well-nested track:
    the Perfetto export renders one timeline row per domain. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
(** An attribute value: of a span, a Perfetto event, or a structured
    log line. *)

val json_of_value : value -> Sherlock_provenance.Json.t
(** The one JSON spelling of an attribute, shared by the Perfetto and
    log writers: a non-finite [Float] prints as [null]. *)

type closed = {
  id : int;             (** unique within the collector *)
  parent : int option;  (** innermost enclosing span on the same domain *)
  name : string;
  track : int;          (** domain id the span ran on *)
  start_s : float;      (** absolute host time, [Unix.gettimeofday] *)
  end_s : float;
  attrs : (string * value) list;  (** in attachment order *)
}

type collector

val create_collector : unit -> collector

val epoch : collector -> float
(** Host time the collector was created; exports use it as time zero. *)

val closed_spans : collector -> closed list
(** Every span closed so far, in close order. *)

val span_count : collector -> int

val set_collector : collector option -> unit
(** Install (or remove) the process-wide collector.  Not meant to change
    while worker domains are running. *)

val current_collector : unit -> collector option

val with_span : ?attrs:(string * value) list -> name:string -> (unit -> 'a) -> 'a
(** Run the body inside a span.  The span closes when the body returns
    {e or raises}; the exception is re-raised after the close. *)

val add_attr : string -> value -> unit
(** Attach an attribute to the innermost open span of the calling domain;
    a no-op when no span is open or no collector is installed. *)

val open_depth : unit -> int
(** Number of open spans on the calling domain (0 outside any span). *)

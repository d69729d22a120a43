(** An execution trace: the ordered event stream of one simulated run plus
    the metadata the analyses need (volatile-field registry for the
    manually-annotated race detector, wall-clock span, thread count).

    The store is indexed at construction time (see {!Index}): per-thread
    offsets with progress prefix counts, per-address access arrays, and
    per-thread delayed-event offsets.  All span/progress/delay queries the
    analyses issue resolve by binary search over these indices instead of
    rescanning the event array. *)

type t = {
  events : Event.t array;     (** sorted by [time], ties broken by emission order *)
  duration : int;             (** virtual end time of the run, microseconds *)
  threads : int;              (** number of threads that ran *)
  volatile_addrs : (int, unit) Hashtbl.t;
      (** addresses of fields declared volatile in the program under test.
          SherLock never reads this; only the Manual_dr annotation-based
          race detector does (paper §5.4). *)
  index : Index.t;            (** query indices, built by [create]/[Builder.finish] *)
}

val create : events:Event.t list -> duration:int -> threads:int ->
  volatile_addrs:(int, unit) Hashtbl.t -> t
(** Sorts the events by timestamp (stably) and builds the indices. *)

val of_sorted_array : Event.t array -> duration:int -> threads:int ->
  volatile_addrs:(int, unit) Hashtbl.t -> t
(** Like {!create} for an array that is already time-sorted — the
    deserializers' path: the binary trace format stores the sorted event
    array verbatim, so only the indices need building.  Sortedness is
    verified in one pass (with a fallback sort if it does not hold), and
    the array is taken by ownership. *)

val empty : unit -> t
(** A fresh empty log.  This is a function: the embedded volatile-address
    table is mutable, so a single shared value would let one caller's
    mutation leak into every other "empty" log. *)

(** Incremental construction for the simulator's emit path: events are
    appended into a growable buffer as threads execute, and [finish]
    sorts once and builds the indexed store — no intermediate list. *)
module Builder : sig
  type log := t

  type t

  val create : unit -> t

  val add : t -> Event.t -> unit

  val length : t -> int

  val finish : t -> duration:int -> threads:int ->
    volatile_addrs:(int, unit) Hashtbl.t -> log
end

val length : t -> int

val iter : (Event.t -> unit) -> t -> unit

val index : t -> Index.t

val events_of_thread : t -> int -> Event.t list
(** Events of one thread in time order. *)

val between : t -> lo:int -> hi:int -> Event.t list
(** Events with [lo <= time <= hi], in time order. *)

val thread_active_in : t -> tid:int -> lo:int -> hi:int -> bool
(** Whether thread [tid] completed any operation in the window —
    the delay-propagation test of paper §3 (Figure 2 b/c). *)

val progress_count : t -> tid:int -> lo:int -> hi:int -> int
(** Number of non-[Read] events of [tid] with [lo <= time <= hi]; reads
    are excluded because a spin-waiting thread still reads (paper §3). *)

val first_delayed_in : t -> tid:int -> lo:int -> hi:int -> Event.t option
(** First-in-time event of [tid] carrying an injected delay with
    [lo <= time <= hi]. *)

val has_delayed_in : t -> tid:int -> lo:int -> hi:int -> bool

val distinct_addrs : t -> int
(** Number of distinct traced addresses (size hint for per-address state,
    e.g. the race detector's variable table). *)

val accesses_of_addr : t -> int -> Event.t array
(** The access events on one address, in time order. *)

val iter_addr_accesses : t -> (int -> Event.t array -> unit) -> unit
(** Iterate per-address access arrays in address first-seen order. *)

val addrs_in_order : t -> int array
(** The canonical address order {!iter_addr_accesses} walks — the unit
    of sharding for parallel window extraction.  Owned by the index:
    callers must not mutate. *)

val pp : Format.formatter -> t -> unit
(** Full dump, for debugging. *)

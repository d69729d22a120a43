(** Acquire/release-window extraction (paper §4.1 and Figure 2).

    For every pair of *conflicting accesses* — two operations on the same
    address from different threads, at least one a write, at most [near]
    apart in virtual time — the operations executed in between form the
    release window (those from the first access's thread) and the acquire
    window (those from the second's).  The conflicting endpoints
    themselves are included in their windows, which is what lets a flag
    write/read pair be inferred as its own release/acquire.  A blocking
    acquire is *invoked* before the release it waits for, so the acquire
    window additionally contains the [Begin] of every method frame of the
    second thread that was already open when the window starts.

    The extraction also performs the two feedback duties of §3/§4.3:
    - window refinement from injected delays (Figure 2 b/c): if a delay
      before a release candidate [r] failed to stall the other thread, the
      release window shrinks to the ops before the delay; if it stalled
      it, the acquire window shrinks to the ops after [r];
    - observed-data-race detection: a window whose release side contains
      only reads (or is empty), or whose acquire side contains only writes
      (or is empty), cannot be protected and is reported as a race. *)

type side = int Opid.Map.t
(** Candidate operations on one side of a window, with their number of
    dynamic occurrences inside this window. *)

type coord = {
  first_time : int;   (** virtual time of the first conflicting access *)
  first_tid : int;
  second_time : int;  (** virtual time of the second conflicting access *)
  second_tid : int;
}
(** Trace coordinates of the conflicting-access pair that opened the
    window.  Times and thread ids are preserved exactly by both the text
    and the binary trace formats, so a coordinate identifies the same
    window no matter which on-disk representation the run came from —
    the stable identity provenance records. *)

type t = {
  pair : Opid.t * Opid.t;  (** static ids of the conflicting accesses, first-then-second *)
  field : string;          (** field key of the conflicting variable *)
  rel : side;
  acq : side;
  coord : coord;           (** where in the trace this window was observed *)
}

type race = {
  race_pair : Opid.t * Opid.t;
  race_field : string;
}

val default_near : int
(** 1 second of virtual time (1_000_000 us), the paper's default. *)

val default_cap : int
(** 15 windows per static location pair, the paper's bound. *)

val extract :
  ?near:int -> ?cap:int -> ?refine:bool -> ?metrics:Metrics.t -> Log.t ->
  t list * race list
(** [extract log] returns the windows and the observed races of one run.
    [refine] (default true) applies delay-based window refinement.
    [metrics], when given, is bumped in place with the events/pairs/
    windows/races counters and the extraction wall-clock.

    Cost is output-sensitive: O(A k log n + W) for a log of [n] events
    with [A] accesses, where [k] bounds the distinct static ops at one
    address and [W] is the output — emitted candidates plus side
    bindings.  The candidate scan ({!scan_address}) costs a set-up per
    live stream per access plus a step per emitted candidate; a span
    side costs O(log n) per distinct op of its thread once the thread
    has an occurrence summary, which it gets after folding at most its
    own length ({!span_side}); threads under {!summary_min_events}
    events always fold, at most that many steps per side; open frames
    cost a binary search plus the stack depth.  Progress and delay queries are binary
    searches over the log's construction-time indices
    ({!Log.progress_count}, {!Log.first_delayed_in}).  Enumeration is
    no longer quadratic in the accesses of an address, but the output
    itself can be: with [near] longer than the log, the side bindings
    grow with the number of windows times their spans' distinct ops. *)

(** {2 Building blocks}

    The two halves of {!extract}'s cost, exposed so tests can check them
    against direct definitions. *)

val scan_address :
  near:int -> cap:int -> pair_counts:(Opid.t * Opid.t, int ref) Hashtbl.t ->
  on_capped:(unit -> unit) -> emit:(Event.t -> Event.t -> unit) ->
  Event.t array -> unit
(** [scan_address ~near ~cap ~pair_counts ~on_capped ~emit accesses]
    enumerates the candidate pairs of one address ([accesses] in time
    order): exactly the pairs, order, and cap decisions of the nested
    loop over every access [a] and every later access [b] with
    [b.time - a.time <= near], [a.tid <> b.tid], one of them a write,
    and [pair_counts] of [(a.op, b.op)] below [cap] — which it bumps.
    [on_capped] fires when a count reaches [cap]; the scan stops once
    every conflicting static pair at the address has.  Work is one
    set-up per live stream per access plus one step per emission, added
    to the [windows.scan.steps] telemetry counter. *)

type sides
(** Span-side state over one log: per-thread occurrence summaries,
    built lazily.  Mutated by queries; never share one across domains. *)

val sides : Log.t -> sides

val summary_min_events : int
(** Threads with fewer events always fold their spans. *)

val span_side : sides -> tid:int -> lo:int -> hi:int -> side
(** The ops of [tid]'s events with [lo <= time <= hi], with their
    occurrence counts.  A thread of at least {!summary_min_events}
    events gets an occurrence summary once the events folded for it
    exceed its length; from then on, spans longer than its distinct-op
    count are answered from the summary (two binary searches per op)
    and shorter ones are still folded.  Either way the bindings are
    those of the fold. *)

val summary_threshold : sides -> tid:int -> int option
(** [Some d] once [tid] has a summary: spans of more than [d] events
    (its distinct-op count) use it. *)

(** Point-in-time captures of the metrics registry — the live-telemetry
    plane.

    A {!point} is a full capture of every counter, gauge, and histogram.
    A {!plane} hands each point it takes to its [on_snapshot] callback
    (the CLI atomically rewrites an OpenMetrics file for external
    scrapers there) and keeps no history, except, while spans are
    collected, the per-round points that Perfetto counter tracks are
    drawn from ({!rounds}).

    {!with_plane} runs a body with one plane installed process-wide:
    the orchestrator snapshots it once per round ({!take_round}), a
    ticker systhread on a fixed interval, and a SIGUSR1 handler on
    demand, without stopping the run. *)

type point = {
  p_seq : int;  (** 0-based index of this snapshot since plane creation *)
  p_ts : float;  (** [Unix.gettimeofday] at capture *)
  p_label : string;  (** e.g. ["tick"], ["round 2"], ["sigusr1"] *)
  p_counters : (string * int) list;  (** name-sorted *)
  p_gauges : (string * int) list;  (** name-sorted; callbacks evaluated *)
  p_hists : (string * Metrics.Histogram.export) list;  (** name-sorted *)
}

type plane

val create :
  ?registry:Metrics.registry -> ?on_snapshot:(point -> unit) -> unit -> plane
(** [on_snapshot] runs on the snapshotting thread after each capture,
    outside the plane's lock. *)

val take : ?label:string -> plane -> point
(** Capture every registry primitive now, run [on_snapshot], and return
    the point.  Safe from any domain or thread. *)

val busy_seconds : plane -> float
(** Cumulative CPU seconds of the snapshotting threads spent capturing
    and in [on_snapshot] on this plane — the plane's direct cost, which
    the bench stats gate divides by run wall-clock.  CPU rather than
    wall-clock time, so a ticker thread waiting for the runtime lock
    while the inference runs is not billed to the plane. *)

val rounds : plane -> point list
(** The points {!take_round} kept on this plane, oldest first. *)

val counter_delta : older:point -> newer:point -> (string * int) list
(** Per-counter [newer - older] over the union of names (a counter born
    between the two deltas from 0; one that vanished — registry reset —
    surfaces as a negative delta).  Counters are monotone, so deltas
    are non-negative whenever [older] was taken before [newer]. *)

(** {1 The installed plane} *)

val with_plane :
  interval_ms:int -> on_snapshot:(point -> unit) -> (plane -> 'a) -> 'a
(** [with_plane ~interval_ms ~on_snapshot f] runs [f] with the metrics
    plane on: the {!Metrics.default} registry enabled, the runtime
    gauges installed, a fresh plane over it installed process-wide,
    SIGUSR1 routed to {!request_dump}, and the ticker running — a
    snapshot labelled ["tick"] every [interval_ms] ([0]: none), and
    dump requests serviced within ~50 ms whatever the interval.
    Afterwards, even when [f] raises, the ticker is stopped and joined,
    a last snapshot labelled ["final"] is taken, the plane is
    uninstalled and the registry disabled. *)

val take_round : label:string -> unit -> unit
(** The orchestrator's per-round snapshot of the installed plane (a
    no-op when none is).  The point is passed to [on_snapshot] only when
    the plane's last exported point is at least 100 ms old, so an
    exporter's cost scales with time, not with round rate; it is kept
    for {!rounds} whenever a span collector is installed
    ({!Span.set_collector}), since Perfetto counter tracks accompany
    spans. *)

val request_dump : unit -> unit
(** Ask the ticker to snapshot the installed plane as [label "sigusr1"].
    Only flips an atomic, hence safe from a signal handler. *)

(** {1 Runtime gauges} *)

val install_runtime_gauges : ?registry:Metrics.registry -> unit -> unit
(** Register callback gauges for GC statistics ([gc.minor_collections],
    [gc.major_collections], [gc.compactions], [gc.heap_words],
    [gc.top_heap_words], [gc.minor_words]), worker-pool occupancy
    ([pool.domains.live], [pool.domains.busy]), and
    [domains.recommended].  Idempotent; call again after
    {!Metrics.reset}. *)

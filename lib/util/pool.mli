(** Reusable worker-domain pool: spawn once, park between batches.

    Domains are spawned lazily by the first {!parallel_map} and parked
    on a condition variable between batches, so a caller issuing many
    batches pays the ~100µs-1ms spawn cost once per worker, not once per
    batch.  The submitting domain participates in every batch, so a pool
    of [k-1] workers serves [k] domains.

    Pools are meant to be scoped, not global: an idle parked domain
    still takes part in every stop-the-world minor collection (measured
    ~2x slowdown of unrelated sequential work on a single-core host), so
    create the pool where parallel work starts and {!retire} it as soon
    as the last batch completes. *)

type t

val create : unit -> t
(** An empty pool: no domains until the first {!parallel_map} asks for
    some. *)

val retire : t -> unit
(** Stop and join every worker.  Idempotent; the pool is dead
    afterwards (a later batch would spawn fresh workers against a
    stopped flag and hang — don't reuse a retired pool). *)

val parallel_map : pool:t -> domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Order-preserving map over the array with up to [domains] domains
    (pool workers plus the caller) pulling indices from a shared atomic
    counter.  [f] calls must be mutually independent and must not call
    [parallel_map] on the same pool.  If some [f] raises, the shared
    counter is drained so every not-yet-started item is cancelled (at
    most one in-flight item per domain still completes), and the first
    exception is re-raised on the calling domain with its backtrace once
    the batch has drained. *)

val live_domains : unit -> int
(** Worker domains currently spawned across every live pool in the
    process (a telemetry gauge source). *)

val busy_domains : unit -> int
(** Participants — pool workers plus submitting callers — currently
    inside a batch thunk, process-wide (a telemetry gauge source). *)

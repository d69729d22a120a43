(* Reusable worker-domain pool, scoped to one computation.  Domain.spawn
   costs ~100µs-1ms each (fresh minor heap, runtime registration), and
   paying it per batch per worker is enough to erase the parallel speedup
   on short workloads.  A pool spawns its workers lazily on the first
   batch and parks them on a condition variable between batches, so a
   multi-batch computation pays the spawn cost once rather than once per
   batch.

   The pool is deliberately NOT a process-global singleton.  An idle
   domain is far from free: every minor collection is a stop-the-world
   across all live domains, and measurement on a single-core host showed
   one parked worker slowing unrelated sequential inference by ~2x.
   Scoping the pool to one computation — and joining the workers in
   [retire] as soon as the last batch completes — confines that tax to
   the caller that asked for parallelism.

   A batch hands every worker the same thunk (which internally pulls
   indices from an atomic counter) and the submitting domain participates
   too, so a pool of k-1 workers serves k domains.  Batches never
   overlap: [run] returns only after all workers that picked up the batch
   have finished.  [run] is internal; [parallel_map], the one entry
   point, upholds its two rules: a batch thunk must not raise (it parks
   exceptions in its own failure slot), and must not itself start a
   batch on the same pool (a nested batch would deadlock waiting for
   workers parked inside the outer one). *)

(* Process-wide occupancy, summed over every live pool: how many worker
   domains exist and how many participants (workers plus submitting
   callers) are inside a batch thunk right now.  Kept here — rather than
   per pool — because the consumer is the telemetry plane's gauges,
   which read "the process" and cannot enumerate scoped pools.  Plain
   atomics: writers touch them once per spawn/retire/batch, never per
   work item. *)
let live = Atomic.make 0

let busy = Atomic.make 0

let live_domains () = Atomic.get live

let busy_domains () = Atomic.get busy

type t = {
  mutex : Mutex.t;
  start : Condition.t; (* a new batch is published, or [stop] was set *)
  finished : Condition.t; (* the current batch fully drained *)
  mutable batch : unit -> unit;
  mutable generation : int; (* bumped once per published batch *)
  mutable remaining : int; (* workers yet to pick up the current batch *)
  mutable running : int; (* workers inside the current batch thunk *)
  mutable handles : unit Domain.t list;
  mutable stop : bool;
}

let create () =
  {
    mutex = Mutex.create ();
    start = Condition.create ();
    finished = Condition.create ();
    batch = ignore;
    generation = 0;
    remaining = 0;
    running = 0;
    handles = [];
    stop = false;
  }

let worker p () =
  let seen = ref 0 in
  Mutex.lock p.mutex;
  let rec loop () =
    if p.stop then Mutex.unlock p.mutex
    else if p.generation > !seen && p.remaining > 0 then begin
      seen := p.generation;
      p.remaining <- p.remaining - 1;
      p.running <- p.running + 1;
      let f = p.batch in
      Mutex.unlock p.mutex;
      ignore (Atomic.fetch_and_add busy 1);
      f ();
      ignore (Atomic.fetch_and_add busy (-1));
      Mutex.lock p.mutex;
      p.running <- p.running - 1;
      if p.remaining = 0 && p.running = 0 then Condition.broadcast p.finished;
      loop ()
    end
    else begin
      Condition.wait p.start p.mutex;
      loop ()
    end
  in
  loop ()

(* With [p.mutex] held: grow the pool to at least [want] workers. *)
let ensure p want =
  for _ = List.length p.handles + 1 to want do
    p.handles <- Domain.spawn (worker p) :: p.handles;
    ignore (Atomic.fetch_and_add live 1)
  done

let run p ~workers f =
  Mutex.lock p.mutex;
  ensure p workers;
  p.batch <- f;
  p.generation <- p.generation + 1;
  p.remaining <- workers;
  Condition.broadcast p.start;
  Mutex.unlock p.mutex;
  ignore (Atomic.fetch_and_add busy 1);
  f ();
  ignore (Atomic.fetch_and_add busy (-1));
  Mutex.lock p.mutex;
  while p.remaining > 0 || p.running > 0 do
    Condition.wait p.finished p.mutex
  done;
  p.batch <- ignore;
  Mutex.unlock p.mutex

let retire p =
  Mutex.lock p.mutex;
  p.stop <- true;
  Condition.broadcast p.start;
  let hs = p.handles in
  p.handles <- [];
  Mutex.unlock p.mutex;
  List.iter
    (fun h ->
      Domain.join h;
      ignore (Atomic.fetch_and_add live (-1)))
    hs

(* Order-preserving map over [arr] with up to [domains] domains (pool
   workers plus the caller) pulling indices from a shared counter.  Each
   [f] call must be independent of the others, so the only cross-domain
   traffic is the [Atomic] work counter, the failure slot, and the
   results array, each slot written by exactly one worker before the
   batch completes.  Workers never raise: the first exception is parked
   in [failure] and the work counter is drained — pushed past [n] — so
   every outstanding item is cancelled at once instead of each worker
   discovering the failure one fetched item at a time; at most the
   items already in flight (one per domain) still complete.  Draining
   also keeps the happy path free of a per-item failure load.  The
   exception is re-raised on the calling domain once the batch has
   drained. *)
let parallel_map ~pool ~domains f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let work () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f i arr.(i) with
        | r -> results.(i) <- Some r
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)));
          (* Cancel outstanding items.  [Atomic.set] may race with a
             concurrent [fetch_and_add], but the counter only ever needs
             to be [>= n] from here on, and any index handed out before
             the store lands was a legitimately in-flight item. *)
          Atomic.set next n);
        loop ()
      end
    in
    loop ()
  in
  run pool ~workers:(min domains n - 1) work;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> Array.map (function Some r -> r | None -> assert false) results

(* The metrics plane: point-in-time captures of the full metrics
   registry (counters, gauges, histogram exports), each handed to one
   callback — the CLI's OpenMetrics rewrite for external scrapers.  A
   periodic ticker (a systhread on the main domain, so it adds no
   stop-the-world GC participant) snapshots every interval, the
   orchestrator once per round, and a SIGUSR1 request on demand without
   stopping the run. *)

module Tm = Metrics

type point = {
  p_seq : int;
  p_ts : float;
  p_label : string;
  p_counters : (string * int) list;
  p_gauges : (string * int) list;
  p_hists : (string * Tm.Histogram.export) list;
}

type plane = {
  registry : Tm.registry;
  on_snapshot : (point -> unit) option;
  mutex : Mutex.t;
  mutable seq : int;  (* total snapshots ever taken *)
  mutable last_export : float;  (* capture time of the newest exported point *)
  mutable rounds : point list;  (* reversed *)
  mutable busy_s : float;
      (* cumulative CPU seconds spent capturing and in [on_snapshot] —
         the plane's direct cost, which the bench stats gate divides by
         wall-clock *)
}

let create ?(registry = Tm.default) ?on_snapshot () =
  {
    registry;
    on_snapshot;
    mutex = Mutex.create ();
    seq = 0;
    last_export = neg_infinity;
    rounds = [];
    busy_s = 0.0;
  }

(* Reading the registry happens outside the plane's mutex: registry
   primitives have their own synchronization. *)
let capture ~label pl =
  let seq =
    Mutex.protect pl.mutex (fun () ->
        pl.seq <- pl.seq + 1;
        pl.seq - 1)
  in
  (* The registry lists its primitives name-sorted. *)
  let of_list name value xs = List.map (fun x -> (name x, value x)) xs in
  {
    p_seq = seq;
    p_ts = Unix.gettimeofday ();
    p_label = label;
    p_counters = of_list Tm.Counter.name Tm.Counter.value (Tm.counters pl.registry);
    p_gauges = of_list Tm.Gauge.name Tm.Gauge.value (Tm.gauges pl.registry);
    p_hists = of_list Tm.Histogram.name Tm.Histogram.export (Tm.histograms pl.registry);
  }

let export pl p =
  Mutex.protect pl.mutex (fun () -> pl.last_export <- p.p_ts);
  Option.iter (fun f -> f p) pl.on_snapshot

(* The plane's cost is the CPU time of the thread taking the snapshot,
   not its wall-clock: the ticker shares the main domain's runtime lock,
   and each system call of an export (a file rewrite) lets the main
   thread take the lock for up to a scheduling slice, which wall-clock
   would bill to the plane though the inference ran through it. *)
external thread_cpu_s : unit -> float = "sherlock_thread_cpu_seconds"

let account pl t0 =
  Mutex.protect pl.mutex (fun () -> pl.busy_s <- pl.busy_s +. (thread_cpu_s () -. t0))

let take ?(label = "") pl =
  let t0 = thread_cpu_s () in
  let p = capture ~label pl in
  export pl p;
  account pl t0;
  p

let busy_seconds pl = Mutex.protect pl.mutex (fun () -> pl.busy_s)

let rounds pl = Mutex.protect pl.mutex (fun () -> List.rev pl.rounds)

(* Per-counter difference newer - older, over the union of names: a
   counter born between the two snapshots delta-s from zero.  Counters
   are monotone, so deltas are non-negative whenever [older] precedes
   [newer]. *)
let counter_delta ~older ~newer =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (n, v) -> Hashtbl.replace tbl n v) older.p_counters;
  let seen = Hashtbl.create 64 in
  let deltas =
    List.map
      (fun (n, v) ->
        Hashtbl.replace seen n ();
        (n, v - Option.value (Hashtbl.find_opt tbl n) ~default:0))
      newer.p_counters
  in
  (* A counter present only in [older] (registry reset in between):
     surface it as a negative delta rather than silently dropping it. *)
  let gone =
    List.filter_map
      (fun (n, v) ->
        if Hashtbl.mem seen n then None else Some (n, -v))
      older.p_counters
  in
  deltas @ gone

(* ------------------------------------------------------------------ *)
(* The installed plane: the one the orchestrator's per-round call and
   SIGUSR1 dumps snapshot, mirroring [Span.set_collector]. *)

let current : plane option Atomic.t = Atomic.make None

(* A round's point is exported only when the last export is 100 ms old:
   a sub-millisecond round must not cost an export (a file rewrite) per
   round, or the plane's cost scales with round rate instead of with
   time.  It is kept only while spans are collected, since the Perfetto
   export beside them is the one reader of [rounds].  Racing callers can
   at worst export one extra point. *)
let take_round ~label () =
  match Atomic.get current with
  | None -> ()
  | Some pl ->
    let now = Unix.gettimeofday () and t0 = thread_cpu_s () in
    let due = Mutex.protect pl.mutex (fun () -> now -. pl.last_export >= 0.1) in
    let keep = Option.is_some (Span.current_collector ()) in
    if due || keep then begin
      let p = capture ~label pl in
      if keep then Mutex.protect pl.mutex (fun () -> pl.rounds <- p :: pl.rounds);
      if due then export pl p;
      account pl t0
    end

(* ------------------------------------------------------------------ *)
(* Ticker: a single systhread (not a domain — an idle parked domain
   joins every stop-the-world minor collection, measured ~2x slowdown
   of sequential work on one core; a sleeping systhread on the main
   domain costs nothing) that snapshots the plane every interval and
   services SIGUSR1 dump requests.  Interval 0 disables periodic
   snapshots but keeps servicing dump requests. *)

type ticker = {
  thread : Thread.t;
  stop_flag : bool Atomic.t;
  (* Self-pipe: stop wakes the nap instantly.  Both ends stay open
     until after the join — closing the read side from the ticker
     thread would race the stopper's wake-up write into a SIGPIPE. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let dump_requested = Atomic.make false

(* Async-signal-safe by construction: the SIGUSR1 handler only flips
   this atomic; the ticker thread performs the actual dump, so the
   handler can never deadlock against a registry mutex the interrupted
   code holds. *)
let request_dump () = Atomic.set dump_requested true

(* Napping is a [select] on the stop pipe rather than [Thread.delay]:
   stopping writes one byte and the nap returns immediately, so it
   never waits out the remainder of a sleep. *)
let nap_interruptible wake_r seconds =
  match Unix.select [ wake_r ] [] [] seconds with
  | [], _, _ -> ()
  | _ -> ignore (Unix.read wake_r (Bytes.create 16) 0 16)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let ticker_loop pl stop_flag wake_r interval_ms () =
  let interval_s = float_of_int interval_ms /. 1000.0 in
  let nap = if interval_ms > 0 then Float.min interval_s 0.05 else 0.05 in
  let last = ref (Unix.gettimeofday ()) in
  while not (Atomic.get stop_flag) do
    nap_interruptible wake_r nap;
    if Atomic.exchange dump_requested false then ignore (take ~label:"sigusr1" pl);
    if (not (Atomic.get stop_flag)) && interval_ms > 0 then begin
      let now = Unix.gettimeofday () in
      if now -. !last >= interval_s then begin
        last := now;
        ignore (take ~label:"tick" pl)
      end
    end
  done

let start_ticker pl ~interval_ms =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let stop_flag = Atomic.make false in
  let thread = Thread.create (ticker_loop pl stop_flag wake_r interval_ms) () in
  { thread; stop_flag; wake_r; wake_w }

let stop_ticker { thread; stop_flag; wake_r; wake_w } =
  Atomic.set stop_flag true;
  (try ignore (Unix.write wake_w (Bytes.make 1 '!') 0 1)
   with Unix.Unix_error _ -> ());
  Thread.join thread;
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  try Unix.close wake_r with Unix.Unix_error _ -> ()

let install_sigusr1 () =
  (* Windows has no SIGUSR1; degrade to "no signal dumps" silently. *)
  match Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> request_dump ())) with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

(* ------------------------------------------------------------------ *)
(* Runtime gauges: process-level levels sampled at read time.  GC
   figures come from [Gc.quick_stat] (no major-heap walk); pool
   occupancy from [Sherlock_util.Pool]'s process-wide atomics.
   Installed as callbacks so producers push nothing; re-installation
   (e.g. after a registry reset) simply rebinds. *)
let install_runtime_gauges ?registry () =
  let g name f = ignore (Tm.gauge_fn ?registry name f) in
  g "gc.minor_collections" (fun () -> (Gc.quick_stat ()).Gc.minor_collections);
  g "gc.major_collections" (fun () -> (Gc.quick_stat ()).Gc.major_collections);
  g "gc.compactions" (fun () -> (Gc.quick_stat ()).Gc.compactions);
  g "gc.heap_words" (fun () -> (Gc.quick_stat ()).Gc.heap_words);
  g "gc.top_heap_words" (fun () -> (Gc.quick_stat ()).Gc.top_heap_words);
  g "gc.minor_words" (fun () -> int_of_float (Gc.minor_words ()));
  g "pool.domains.live" Sherlock_util.Pool.live_domains;
  g "pool.domains.busy" Sherlock_util.Pool.busy_domains;
  g "domains.recommended" Domain.recommended_domain_count

let with_plane ~interval_ms ~on_snapshot f =
  Tm.set_enabled true;
  install_runtime_gauges ();
  let pl = create ~on_snapshot () in
  Atomic.set current (Some pl);
  install_sigusr1 ();
  let ticker = start_ticker pl ~interval_ms in
  Fun.protect
    ~finally:(fun () ->
      stop_ticker ticker;
      (* The last snapshot reflects the finished body, not its last tick. *)
      ignore (take ~label:"final" pl);
      Atomic.set current None;
      Tm.set_enabled false)
    (fun () -> f pl)

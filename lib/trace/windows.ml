module Tm = Sherlock_telemetry.Metrics
module Tspan = Sherlock_telemetry.Span

type side = int Opid.Map.t

type coord = {
  first_time : int;
  first_tid : int;
  second_time : int;
  second_tid : int;
}

type t = {
  pair : Opid.t * Opid.t;
  field : string;
  rel : side;
  acq : side;
  coord : coord;
}

type race = {
  race_pair : Opid.t * Opid.t;
  race_field : string;
}

let default_near = 1_000_000

let default_cap = 15

let add_occurrence side op =
  Opid.Map.update op (function None -> Some 1 | Some n -> Some (n + 1)) side

let all_kinds_are side kind =
  Opid.Map.for_all (fun (op : Opid.t) _ -> op.kind = kind) side

(* Span sides.  The side of thread [tid] over [lo, hi] counts the ops of
   the thread's events in that span.  A direct fold costs one map update
   per event, so a window spanning a long private stretch costs the
   stretch's length — quadratic across the windows of a long log.  The
   per-thread occurrence summary answers the same query with two binary
   searches per distinct op of the thread: for each op, the ascending
   times of its occurrences.

   The summary is built lazily, per thread, once the events folded for
   that thread exceed its length (the build's cost), so it never costs
   more than the folds it replaces.  Threads shorter than
   [summary_min_events] never get one: their folds are bounded by their
   length, and a build's hashing and allocation would not pay back —
   the corpus's test threads stay on the fold.  With a summary, a span
   longer than the thread's distinct-op count uses it and shorter spans
   keep the fold.  Both paths count the same events, so the resulting
   maps have identical bindings.  [sides] mutates on query, so each
   domain owns its own. *)
type summary = {
  ops : Opid.t array;  (* the thread's distinct ops, ascending *)
  occ : int array array;  (* occ.(k): ascending times of ops.(k) *)
}

type thread_sides = {
  mutable folded : int;  (* events folded so far, while unsummarized *)
  mutable summary : summary option;
}

type sides = { log : Log.t; threads : (int, thread_sides) Hashtbl.t }

let summary_min_events = 256

let sides log = { log; threads = Hashtbl.create 16 }

let summarize (log : Log.t) (pt : Index.per_thread) =
  let tbl : (Opid.t, int list ref) Hashtbl.t = Hashtbl.create 16 in
  for s = Array.length pt.positions - 1 downto 0 do
    let e = log.events.(pt.positions.(s)) in
    match Hashtbl.find_opt tbl e.op with
    | Some r -> r := e.time :: !r
    | None -> Hashtbl.add tbl e.op (ref [ e.time ])
  done;
  let entries =
    List.sort
      (fun (a, _) (b, _) -> Opid.compare a b)
      (Hashtbl.fold (fun op r acc -> (op, Array.of_list !r) :: acc) tbl [])
  in
  {
    ops = Array.of_list (List.map fst entries);
    occ = Array.of_list (List.map snd entries);
  }

let side_of_summary s ~lo ~hi =
  let acc = ref Opid.Map.empty in
  for k = 0 to Array.length s.ops - 1 do
    let occ = s.occ.(k) in
    let c = Index.upper_bound occ hi - Index.lower_bound occ lo in
    if c > 0 then acc := Opid.Map.add s.ops.(k) c !acc
  done;
  !acc

(* Ops of thread [tid] with lo <= time <= hi. *)
let span_side sides ~tid ~lo ~hi =
  let log = sides.log in
  let pt = Index.thread (Log.index log) tid in
  let n = Array.length pt.positions in
  let i = Index.lower_bound pt.times lo and j = Index.upper_bound pt.times hi in
  let summary =
    if n < summary_min_events then None
    else begin
      let ts =
        match Hashtbl.find_opt sides.threads tid with
        | Some ts -> ts
        | None ->
          let ts = { folded = 0; summary = None } in
          Hashtbl.add sides.threads tid ts;
          ts
      in
      if Option.is_none ts.summary && j > i then begin
        ts.folded <- ts.folded + (j - i);
        if ts.folded > n then ts.summary <- Some (summarize log pt)
      end;
      ts.summary
    end
  in
  match summary with
  | Some s when j - i > Array.length s.ops -> side_of_summary s ~lo ~hi
  | _ ->
    let acc = ref Opid.Map.empty in
    for k = i to j - 1 do
      acc := add_occurrence !acc log.events.(pt.positions.(k)).op
    done;
    !acc

let summary_threshold sides ~tid =
  match Hashtbl.find_opt sides.threads tid with
  | Some { summary = Some s; _ } -> Some (Array.length s.ops)
  | _ -> None

(* Open method frames per thread, as immutable stack snapshots.  Frames
   nest as a stack (an [End] pops the innermost open frame of its
   method), so the frames open at time [lo] — begun before [lo], not
   ended before it — are exactly the stack after the thread's last event
   before [lo].  Per thread, [at.(q)] is the thread-slot of the q-th
   [Begin]/[End] that changed the stack and [snap.(q)] the stack after
   it; a lookup is one binary search plus the stack's depth.  A frame
   carries [f_after], the first slot of its thread with a later time, so
   "did the thread progress since the frame began" is one subtraction of
   progress prefix counts.  Frames still open at the end of the log stay
   on the last stack.  Immutable once built: shared by every domain. *)
type frame = { f_op : Opid.t; f_after : int }

type frame_stacks = { at : int array; snap : frame list array }

let frame_stacks (log : Log.t) =
  let idx = Log.index log in
  (* Per thread: current stack, snapshots newest first. *)
  let state : (int, frame list ref * (int * frame list) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iteri
    (fun g (e : Event.t) ->
      if Opid.is_frame e.op then begin
        let stack, snaps =
          match Hashtbl.find_opt state e.tid with
          | Some s -> s
          | None ->
            let s = (ref [], ref []) in
            Hashtbl.add state e.tid s;
            s
        in
        let pt = Index.thread idx e.tid in
        let changed =
          match e.op.kind with
          | Opid.Begin ->
            stack := { f_op = e.op; f_after = Index.upper_bound pt.times e.time } :: !stack;
            true
          | _ ->
            let key = Opid.method_key e.op in
            let rec pop acc = function
              | [] -> None
              | f :: rest when Opid.method_key f.f_op = key ->
                Some (List.rev_append acc rest)
              | f :: rest -> pop (f :: acc) rest
            in
            (match pop [] !stack with
            | Some rest ->
              stack := rest;
              true
            | None -> false)
        in
        if changed then snaps := (Index.lower_bound pt.positions g, !stack) :: !snaps
      end)
    log.events;
  let stacks = Hashtbl.create (Hashtbl.length state) in
  Hashtbl.iter
    (fun tid (_, snaps) ->
      let s = Array.of_list (List.rev !snaps) in
      Hashtbl.add stacks tid { at = Array.map fst s; snap = Array.map snd s })
    state;
  stacks

(* A blocking acquire (Monitor.Enter, Task.Wait, ...) is *invoked* before
   the release it waits for, so its Begin event precedes the window.  The
   invocation is still in progress during the window and is a legitimate
   acquire candidate — but only if the thread has made no progress since
   the invocation (it is plausibly blocked inside it): a frame that kept
   executing cannot be waiting for a release that has not happened yet. *)
let add_open_frames log stacks side ~tid ~lo =
  match Hashtbl.find_opt stacks tid with
  | None -> side
  | Some fs ->
    let pt = Index.thread (Log.index log) tid in
    (* First slot at or after [lo]; the stack in effect is the one after
       the last change strictly before that slot. *)
    let p = Index.lower_bound pt.times lo in
    let q = Index.lower_bound fs.at p - 1 in
    if q < 0 then side
    else
      List.fold_left
        (fun acc f ->
          if pt.progress.(p) = pt.progress.(f.f_after) then add_occurrence acc f.f_op
          else acc)
        side fs.snap.(q)

(* First delayed event of [tid] inside [lo, hi], if any: a binary search
   over the delayed-event index — early exit, where the seed folded over
   the whole event array even after a match. *)
let first_delay log ~tid ~lo ~hi = Log.first_delayed_in log ~tid ~lo ~hi

let c_shards = Tm.counter "windows.shards"

let c_scan_steps = Tm.counter "windows.scan.steps"

(* Shard progress, readable mid-extraction by the snapshot ticker: how
   many chunks the current parallel extraction has, and how many have
   completed.  Gauges, not counters — they reset per extraction. *)
let g_chunks_total = Tm.gauge "windows.chunks.total"

let g_chunks_done = Tm.gauge "windows.chunks.done"

let c_cache_hit = Tm.counter "windows.span_cache.hit"

let c_cache_miss = Tm.counter "windows.span_cache.miss"

(* Memoized [span_side].  Candidate pairs share span endpoints
   whenever several accesses to one address carry the same timestamp
   (contended bursts under a coarse clock): every pair [(a_i, b)] with
   [a_i.time] equal recomputes the same acquire span [(b.tid, t, b.time)],
   and the refine path recomputes the same [(b.tid, r.time, b.time)] span
   across pairs hitting one delay — so hot logs rebuild the same
   [(tid, lo, hi)] span many times per extraction.  Sides are immutable
   maps with the same bindings whichever path built them, so a cache is
   observationally invisible, and windows with equal spans share one
   map.  One cache per domain, owning that domain's [sides]: sequential
   extraction keeps a single cache, each shard worker owns its own (no
   cross-domain sharing, no locks). *)
type span_cache = {
  sides : sides;
  tbl : (int * int * int, side) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let cache_create log =
  { sides = sides log; tbl = Hashtbl.create 256; hits = 0; misses = 0 }

let cached_side cache ~tid ~lo ~hi =
  let key = (tid, lo, hi) in
  match Hashtbl.find_opt cache.tbl key with
  | Some s ->
    cache.hits <- cache.hits + 1;
    s
  | None ->
    cache.misses <- cache.misses + 1;
    let s = span_side cache.sides ~tid ~lo ~hi in
    Hashtbl.add cache.tbl key s;
    s

(* One accepted conflicting-access candidate, fully analyzed.  In
   sequential mode candidates are dispatched as they are produced; in
   parallel mode shards produce them speculatively and the deterministic
   merge decides which survive the global caps ([c_key] is the static
   pair the cap counters are keyed on). *)
type outcome = Window of t | Race_out of race

type candidate = { c_key : Opid.t * Opid.t; c_dur : int; c_out : outcome }

(* Analyze one candidate pair: compute both sides, refine from injected
   delays, and classify as window or observed race.  Pure in the log (the
   span cache and the thread summaries only memoize), so it runs
   identically on any domain. *)
let consider_one log stacks cache ~refine (a : Event.t) (b : Event.t) =
  let acq_side ~lo ~hi =
    add_open_frames log stacks (cached_side cache ~tid:b.tid ~lo ~hi) ~tid:b.tid ~lo
  in
  let rel = ref (cached_side cache ~tid:a.tid ~lo:a.time ~hi:b.time) in
  let acq = ref (acq_side ~lo:a.time ~hi:b.time) in
  if refine then begin
    match first_delay log ~tid:a.tid ~lo:a.time ~hi:b.time with
    | Some r ->
      let delay_start = r.time - r.delayed_by in
      (* A spin-waiting thread is logically blocked yet still emits
         read events, so only non-read activity counts as progress. *)
      let made_progress =
        r.time - 1 >= delay_start
        && Log.progress_count log ~tid:b.tid ~lo:delay_start ~hi:(r.time - 1) > 0
      in
      let stalled = not made_progress in
      if stalled then
        (* Delay propagated: the acquire happened while waiting on [r],
           so it must lie between r and b (Figure 2 c). *)
        acq := acq_side ~lo:r.time ~hi:b.time
      else
        (* Delay did not propagate: this *instance* of r is not the
           release coordinating a and b (Figure 2 b).  Other dynamic
           instances of the same operation inside the window (e.g.
           later lock releases in a loop) remain candidates, so only
           one occurrence is discounted. *)
        rel :=
          Opid.Map.update r.op
            (function None | Some 1 -> None | Some n -> Some (n - 1))
            !rel
    | None -> ()
  end;
  let rel = !rel and acq = !acq in
  let field = Opid.field_key a.op in
  let rel_impossible = Opid.Map.is_empty rel || all_kinds_are rel Opid.Read in
  let acq_impossible = Opid.Map.is_empty acq || all_kinds_are acq Opid.Write in
  let out =
    if rel_impossible || acq_impossible then
      Race_out { race_pair = (a.op, b.op); race_field = field }
    else
      Window
        {
          pair = (a.op, b.op);
          field;
          rel;
          acq;
          coord =
            {
              first_time = a.time;
              first_tid = a.tid;
              second_time = b.time;
              second_tid = b.tid;
            };
        }
  in
  { c_key = (a.op, b.op); c_dur = b.time - a.time; c_out = out }

(* Pair enumeration over one address, in the order of the nested loop
   "for each access a, for each later access b within [near]": every
   cross-thread conflicting (a, b) whose static pair is below the cap is
   emitted, and the scan stops as soon as every conflicting static pair
   at the address has capped.  [emit a b] fires for each accepted
   candidate; [on_capped] fires when a pair's count reaches the cap.

   An address sees only a handful of static ops, so the per-static-pair
   cap counters are pulled out of [pair_counts] into a k x k matrix once.
   The later accesses are split into one stream per static op: the op's
   access indices plus, per slot, the next slot with a different tid.
   For a first access [a], only the live streams — conflicting with a's
   op and below their cap — are merged in index order; a run of a's own
   tid is skipped in one step, and a stream leaves the merge when its
   pair caps or its head is past [near].  So each first access costs a
   set-up per live stream plus one step per emission, instead of a walk
   over every later access: a thread spinning on a flag nobody else
   touches no longer pays for its own run.  A stream's cursor (first slot
   after [a]) only moves forward, so keeping it costs the stream's
   length over the whole address.  Set-ups plus emission steps are added
   to the [windows.scan.steps] counter once per address. *)
let scan_address ~near ~cap ~pair_counts ~on_capped ~emit
    (accesses : Event.t array) =
  let n = Array.length accesses in
  let optbl : (Opid.t, int) Hashtbl.t = Hashtbl.create 8 in
  let ops_rev = ref [] in
  let nops = ref 0 in
  let opidx =
    Array.map
      (fun (e : Event.t) ->
        match Hashtbl.find_opt optbl e.op with
        | Some i -> i
        | None ->
          let i = !nops in
          Hashtbl.add optbl e.op i;
          ops_rev := e.op :: !ops_rev;
          incr nops;
          i)
      accesses
  in
  let k = !nops in
  let by_idx = Array.make k (accesses.(0) : Event.t).op in
  List.iteri (fun j o -> by_idx.(k - 1 - j) <- o) !ops_rev;
  let counts =
    Array.init k (fun ia ->
        Array.init k (fun ib ->
            let key = (by_idx.(ia), by_idx.(ib)) in
            match Hashtbl.find_opt pair_counts key with
            | Some r -> r
            | None ->
              let r = ref 0 in
              Hashtbl.add pair_counts key r;
              r))
  in
  let conflicting =
    Array.init k (fun ia ->
        Array.init k (fun ib ->
            by_idx.(ia).kind = Opid.Write || by_idx.(ib).kind = Opid.Write))
  in
  (* Conflicting static pairs at this address not yet at the cap. *)
  let live = ref 0 in
  for ia = 0 to k - 1 do
    for ib = 0 to k - 1 do
      if conflicting.(ia).(ib) && !(counts.(ia).(ib)) < cap then incr live
    done
  done;
  (* Streams: [slots.(o)] the access indices of op [o], ascending;
     [next_tid.(o).(s)] the first slot after [s] with another tid. *)
  let lens = Array.make k 0 in
  Array.iter (fun o -> lens.(o) <- lens.(o) + 1) opidx;
  let slots = Array.map (fun len -> Array.make len 0) lens in
  let fill = Array.make k 0 in
  Array.iteri
    (fun i o ->
      slots.(o).(fill.(o)) <- i;
      fill.(o) <- fill.(o) + 1)
    opidx;
  let tid_at o s = (accesses.(slots.(o).(s)) : Event.t).tid in
  let next_tid =
    Array.init k (fun o ->
        let len = lens.(o) in
        let nx = Array.make len len in
        for s = len - 2 downto 0 do
          nx.(s) <- (if tid_at o (s + 1) <> tid_at o s then s + 1 else nx.(s + 1))
        done;
        nx)
  in
  let cursor = Array.make k 0 in
  let head = Array.make k 0 in
  let merged = Array.make k 0 in
  let steps = ref 0 in
  (* Stream [o]'s first slot at or after [s] whose tid is not [tid] and
     whose time is within [near] of [t]; [-1] when the stream is done. *)
  let settle o s ~tid ~t =
    let s = if s < lens.(o) && tid_at o s = tid then next_tid.(o).(s) else s in
    if s < lens.(o) && (accesses.(slots.(o).(s)) : Event.t).time - t <= near then s
    else -1
  in
  (try
     if !live = 0 then raise Exit;
     for i = 0 to n - 1 do
       let a = accesses.(i) in
       let ia = opidx.(i) in
       let nmerged = ref 0 in
       for o = 0 to k - 1 do
         if conflicting.(ia).(o) && !(counts.(ia).(o)) < cap then begin
           let s = ref cursor.(o) in
           while !s < lens.(o) && slots.(o).(!s) <= i do
             incr s
           done;
           cursor.(o) <- !s;
           incr steps;
           let h = settle o !s ~tid:a.tid ~t:a.time in
           if h >= 0 then begin
             head.(o) <- h;
             merged.(!nmerged) <- o;
             incr nmerged
           end
         end
       done;
       while !nmerged > 0 do
         let best = ref 0 in
         for q = 1 to !nmerged - 1 do
           if slots.(merged.(q)).(head.(merged.(q)))
              < slots.(merged.(!best)).(head.(merged.(!best)))
           then best := q
         done;
         let o = merged.(!best) in
         let b = accesses.(slots.(o).(head.(o))) in
         let c = counts.(ia).(o) in
         incr c;
         incr steps;
         let capped = !c = cap in
         if capped then begin
           on_capped ();
           decr live
         end;
         emit a b;
         if !live = 0 then raise Exit;
         let h = if capped then -1 else settle o (head.(o) + 1) ~tid:a.tid ~t:a.time in
         if h >= 0 then head.(o) <- h
         else begin
           decr nmerged;
           merged.(!best) <- merged.(!nmerged)
         end
       done
     done
   with Exit -> ());
  Tm.Counter.incr ~by:!steps c_scan_steps

let extract ?(near = default_near) ?(cap = default_cap) ?(refine = true)
    ?metrics ?(jobs = 1) ?pool (log : Log.t) =
 Tspan.with_span ~name:"windows.extract" @@ fun () ->
  let t_start = Unix.gettimeofday () in
  (* Telemetry histograms are resolved once per extraction and only when
     telemetry is on, so the per-pair hot path pays a single branch.
     They are observed exclusively on the calling domain (sequentially or
     during the merge), never inside shards. *)
  let tm_on = Tm.enabled () in
  let h_window_dur = if tm_on then Some (Tm.histogram "windows.duration_us") else None in
  let h_pairs_per_loc =
    if tm_on then Some (Tm.histogram "windows.pairs_per_location") else None
  in
  let stacks = frame_stacks log in
  let windows = ref [] in
  let races = ref [] in
  let nwindows = ref 0 and nraces = ref 0 in
  let considered = ref 0 and capped = ref 0 in
  (* Accept one candidate: bump the counters, record the window or race,
     observe the duration histogram.  Both the sequential path and the
     parallel merge funnel through here, on the calling domain, in
     canonical candidate order — which is what makes the two paths
     bitwise identical. *)
  let dispatch c =
    incr considered;
    (match c.c_out with
    | Race_out r ->
      incr nraces;
      races := r :: !races
    | Window w ->
      incr nwindows;
      windows := w :: !windows);
    match h_window_dur with
    | Some h -> Tm.Histogram.observe_int h c.c_dur
    | None -> ()
  in
  let observe_pairs_per_loc accepted =
    match h_pairs_per_loc with
    | Some h -> Tm.Histogram.observe_int h accepted
    | None -> ()
  in
  let addrs = Log.addrs_in_order log in
  let naddrs = Array.length addrs in
  if jobs <= 1 || naddrs < 2 then begin
    (* Sequential path: global cap counters applied during the scan,
       candidates dispatched as they are produced. *)
    let pair_counts : (Opid.t * Opid.t, int ref) Hashtbl.t = Hashtbl.create 64 in
    let cache = cache_create log in
    Log.iter_addr_accesses log (fun _addr accesses ->
        if Array.length accesses > 1 then begin
          let before = !considered in
          scan_address ~near ~cap ~pair_counts
            ~on_capped:(fun () -> incr capped)
            ~emit:(fun a b -> dispatch (consider_one log stacks cache ~refine a b))
            accesses;
          observe_pairs_per_loc (!considered - before)
        end);
    Tm.Counter.incr ~by:cache.hits c_cache_hit;
    Tm.Counter.incr ~by:cache.misses c_cache_miss
  end
  else begin
    (* Parallel path: shard the canonical address order into contiguous
       chunks, analyze chunks on worker domains, and merge sequentially.

       The per-static-pair caps are global across addresses, so shards
       cannot apply them.  Instead each chunk scans with *fresh local*
       cap counters — emitting at most [cap] candidates per static pair
       per chunk, each fully analyzed — and the merge replays chunk
       outputs in chunk-index order against the real global counters.
       A chunk's emissions for a pair are a prefix of that pair's
       canonical candidate stream within the chunk, and the globally
       accepted candidates for a pair are its first [cap] in canonical
       order, which lie inside the per-chunk prefixes; so replaying the
       prefixes in order accepts exactly the sequential candidate set,
       in the sequential order.  Local counters are per *chunk*, not per
       worker: a worker that processes a canonically-late chunk first
       must not burn cap budget that canonically-earlier candidates
       (from a chunk another worker owns) are entitled to.

       [frame_stacks] is computed once above and shared read-only; each
       worker owns a private span cache and thread summaries. *)
    let nchunks = min naddrs (jobs * 4) in
    let chunk_lo i = i * naddrs / nchunks in
    (* Per chunk, per scanned address (in chunk order): the emitted
       candidates in scan order.  Every address with >1 accesses appears,
       even with no emissions, so the merge can observe the
       pairs-per-location histogram exactly as the sequential path does.
       Each slot is written by exactly one worker before the pool batch
       completes; [Pool.run]'s join publishes the writes to the caller. *)
    let chunk_out : candidate list list array = Array.make nchunks [] in
    Tm.Gauge.set g_chunks_total nchunks;
    Tm.Gauge.set g_chunks_done 0;
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let total_hits = Atomic.make 0 and total_misses = Atomic.make 0 in
    let process_chunk cache ci =
      let local_counts : (Opid.t * Opid.t, int ref) Hashtbl.t =
        Hashtbl.create 64
      in
      let out = ref [] in
      for ai = chunk_lo ci to chunk_lo (ci + 1) - 1 do
        let accesses = Log.accesses_of_addr log addrs.(ai) in
        if Array.length accesses > 1 then begin
          let cands = ref [] in
          scan_address ~near ~cap ~pair_counts:local_counts ~on_capped:ignore
            ~emit:(fun a b ->
              cands := consider_one log stacks cache ~refine a b :: !cands)
            accesses;
          out := List.rev !cands :: !out
        end
      done;
      chunk_out.(ci) <- List.rev !out
    in
    let work () =
      let cache = cache_create log in
      let rec loop () =
        let ci = Atomic.fetch_and_add next 1 in
        if ci < nchunks && Option.is_none (Atomic.get failure) then begin
          (match process_chunk cache ci with
          | () -> Tm.Gauge.add g_chunks_done 1
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          loop ()
        end
      in
      loop ();
      ignore (Atomic.fetch_and_add total_hits cache.hits);
      ignore (Atomic.fetch_and_add total_misses cache.misses)
    in
    let workers = min jobs nchunks - 1 in
    (match pool with
    | Some p -> Sherlock_util.Pool.run p ~workers work
    | None ->
      let p = Sherlock_util.Pool.create () in
      Fun.protect
        ~finally:(fun () -> Sherlock_util.Pool.retire p)
        (fun () -> Sherlock_util.Pool.run p ~workers work));
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    (* Deterministic merge: replay every chunk's candidates in canonical
       order against the real global cap counters. *)
    let pair_counts : (Opid.t * Opid.t, int ref) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun addr_results ->
        List.iter
          (fun cands ->
            let before = !considered in
            List.iter
              (fun c ->
                let r =
                  match Hashtbl.find_opt pair_counts c.c_key with
                  | Some r -> r
                  | None ->
                    let r = ref 0 in
                    Hashtbl.add pair_counts c.c_key r;
                    r
                in
                if !r < cap then begin
                  incr r;
                  if !r = cap then incr capped;
                  dispatch c
                end)
              cands;
            observe_pairs_per_loc (!considered - before))
          addr_results)
      chunk_out;
    Tm.Counter.incr ~by:nchunks c_shards;
    Tm.Counter.incr ~by:(Atomic.get total_hits) c_cache_hit;
    Tm.Counter.incr ~by:(Atomic.get total_misses) c_cache_miss
  end;
  (match metrics with
  | None -> ()
  | Some (m : Metrics.t) ->
    m.events <- m.events + Log.length log;
    m.pairs_considered <- m.pairs_considered + !considered;
    m.pairs_capped <- m.pairs_capped + !capped;
    m.windows <- m.windows + !nwindows;
    m.races <- m.races + !nraces;
    m.extract_s <- m.extract_s +. (Unix.gettimeofday () -. t_start));
  Tspan.add_attr "events" (Tspan.Int (Log.length log));
  Tspan.add_attr "windows" (Tspan.Int !nwindows);
  Tspan.add_attr "races" (Tspan.Int !nraces);
  Tspan.add_attr "pairs" (Tspan.Int !considered);
  (List.rev !windows, List.rev !races)

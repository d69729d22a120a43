(* The telemetry subsystem: span trees (well-nestedness, exception
   safety), the metrics registry (counters, power-of-two histograms, the
   Trace.Metrics bridge), and the Perfetto exporters (ordering and
   duration invariants as a qcheck property, plus a virtual-time
   Timeline smoke test). *)

open Sherlock_telemetry
module Tm = Metrics
module Log = Sherlock_trace.Log
module Tlog = Sherlock_telemetry.Log
module Event = Sherlock_trace.Event
module Opid = Sherlock_trace.Opid

let check = Alcotest.check

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Run [f] with a fresh installed collector; always uninstalls. *)
let with_collector f =
  let c = Span.create_collector () in
  Span.set_collector (Some c);
  Fun.protect ~finally:(fun () -> Span.set_collector None) (fun () -> f c)

(* --- spans --- *)

let find name spans =
  match List.find_opt (fun (s : Span.closed) -> s.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "span %s not closed" name

let test_span_nesting () =
  with_collector @@ fun c ->
  Span.with_span ~name:"outer" (fun () ->
      Span.with_span ~name:"inner" (fun () ->
          check Alcotest.int "depth inside" 2 (Span.open_depth ()));
      Span.with_span ~name:"sibling" ignore);
  let spans = Span.closed_spans c in
  check Alcotest.int "three spans" 3 (Span.span_count c);
  let outer = find "outer" spans in
  let inner = find "inner" spans in
  let sibling = find "sibling" spans in
  check Alcotest.(option int) "inner parent" (Some outer.id) inner.parent;
  check Alcotest.(option int) "sibling parent" (Some outer.id) sibling.parent;
  check Alcotest.(option int) "outer is root" None outer.parent;
  (* children close before the parent and lie inside its interval *)
  List.iter
    (fun (s : Span.closed) ->
      check Alcotest.bool (s.name ^ " starts after outer") true
        (s.start_s >= outer.start_s);
      check Alcotest.bool (s.name ^ " ends before outer") true
        (s.end_s <= outer.end_s))
    [ inner; sibling ];
  check Alcotest.int "nothing left open" 0 (Span.open_depth ())

exception Boom

let test_span_closes_on_exception () =
  with_collector @@ fun c ->
  (try
     Span.with_span ~name:"outer" (fun () ->
         Span.with_span ~name:"inner" (fun () -> raise Boom))
   with Boom -> ());
  let spans = Span.closed_spans c in
  check Alcotest.int "both spans closed" 2 (Span.span_count c);
  let outer = find "outer" spans and inner = find "inner" spans in
  check Alcotest.(option int) "parent chain survives" (Some outer.id)
    inner.parent;
  check Alcotest.int "stack unwound" 0 (Span.open_depth ());
  (* and the next span is a root again, not a child of the dead tree *)
  Span.with_span ~name:"after" ignore;
  check Alcotest.(option int) "fresh root" None (find "after" (Span.closed_spans c)).parent

let test_span_attrs () =
  with_collector @@ fun c ->
  Span.with_span ~name:"s" ~attrs:[ ("given", Span.Int 1) ] (fun () ->
      Span.add_attr "added" (Span.Str "late"));
  let s = find "s" (Span.closed_spans c) in
  check Alcotest.int "two attrs" 2 (List.length s.attrs);
  check Alcotest.bool "attachment order" true
    (s.attrs = [ ("given", Span.Int 1); ("added", Span.Str "late") ])

let test_span_no_collector () =
  Span.set_collector None;
  check Alcotest.(option int) "no collector" None
    (Option.map (fun _ -> 0) (Span.current_collector ()));
  (* with_span must be a pure passthrough: value, exception, no state *)
  check Alcotest.int "value passes" 7 (Span.with_span ~name:"x" (fun () -> 7));
  (try Span.with_span ~name:"x" (fun () -> raise Boom) with Boom -> ());
  check Alcotest.int "no open spans" 0 (Span.open_depth ())

(* --- metrics --- *)

let test_counter () =
  let r = Tm.create () in
  let c = Tm.counter ~registry:r "a" in
  Tm.Counter.incr c;
  Tm.Counter.incr ~by:41 c;
  check Alcotest.int "count" 42 (Tm.Counter.value c);
  check Alcotest.bool "get-or-create" true (c == Tm.counter ~registry:r "a");
  Tm.reset r;
  (* reset drops the instruments: the next lookup creates a fresh zero *)
  let c' = Tm.counter ~registry:r "a" in
  check Alcotest.bool "fresh after reset" false (c == c');
  check Alcotest.int "reset" 0 (Tm.Counter.value c')

let test_histogram () =
  let r = Tm.create () in
  let h = Tm.histogram ~registry:r "h" in
  check Alcotest.bool "empty mean is nan" true (Float.is_nan (Tm.Histogram.mean h));
  List.iter (fun v -> Tm.Histogram.observe_int h v) [ 1; 2; 4; 100; 1000 ];
  check Alcotest.int "count" 5 (Tm.Histogram.count h);
  check (Alcotest.float 1e-9) "sum" 1107.0 (Tm.Histogram.sum h);
  check (Alcotest.float 1e-9) "min" 1.0 (Tm.Histogram.min_value h);
  check (Alcotest.float 1e-9) "max" 1000.0 (Tm.Histogram.max_value h);
  let p50 = Tm.Histogram.percentile h 0.5 in
  check Alcotest.bool "p50 within range" true (p50 >= 1.0 && p50 <= 1000.0);
  check Alcotest.bool "p100 clamps to max" true
    (Tm.Histogram.percentile h 1.0 <= 1000.0)

let test_registry_listing () =
  let r = Tm.create () in
  ignore (Tm.counter ~registry:r "z");
  ignore (Tm.counter ~registry:r "a");
  ignore (Tm.histogram ~registry:r "m");
  check
    Alcotest.(list string)
    "counters sorted" [ "a"; "z" ]
    (List.map Tm.Counter.name (Tm.counters r));
  check Alcotest.int "histograms" 1 (List.length (Tm.histograms r));
  (* the summary printer renders without raising *)
  check Alcotest.bool "summary non-empty" true
    (String.length (Format.asprintf "%a" Tm.pp_summary r) > 0)

let test_trace_metrics_bridge () =
  let m = Sherlock_trace.Metrics.create () in
  m.events <- 10;
  m.pairs_considered <- 4;
  m.pairs_capped <- 1;
  m.windows <- 3;
  m.races <- 2;
  m.run_s <- 0.5;
  let r = Tm.create () in
  Sherlock_trace.Metrics.to_registry r m;
  let counter name = Tm.Counter.value (Tm.counter ~registry:r name) in
  check Alcotest.int "events" 10 (counter "trace.events");
  check Alcotest.int "pairs" 4 (counter "trace.pairs_considered");
  check Alcotest.int "capped" 1 (counter "trace.pairs_capped");
  check Alcotest.int "windows" 3 (counter "trace.windows");
  check Alcotest.int "races" 2 (counter "trace.races");
  let h = Tm.histogram ~registry:r "trace.run_s" in
  check Alcotest.int "run_s observed" 1 (Tm.Histogram.count h)

(* --- gauges --- *)

let test_gauge () =
  let r = Tm.create () in
  let g = Tm.gauge ~registry:r "g" in
  Tm.Gauge.set g 5;
  Tm.Gauge.add g 2;
  check Alcotest.int "cell value" 7 (Tm.Gauge.value g);
  check Alcotest.bool "get-or-create" true (g == Tm.gauge ~registry:r "g");
  let f = Tm.gauge_fn ~registry:r "f" (fun () -> 42) in
  check Alcotest.int "callback value" 42 (Tm.Gauge.value f);
  Tm.Gauge.set f 0;
  check Alcotest.int "set is a no-op on callbacks" 42 (Tm.Gauge.value f);
  let boom = Tm.gauge_fn ~registry:r "boom" (fun () -> failwith "x") in
  check Alcotest.int "raising callback reads 0" 0 (Tm.Gauge.value boom);
  check
    Alcotest.(list string)
    "gauges sorted" [ "boom"; "f"; "g" ]
    (List.map Tm.Gauge.name (Tm.gauges r));
  (* re-installation rebinds the closure (the post-reset contract) *)
  let f' = Tm.gauge_fn ~registry:r "f" (fun () -> 1) in
  check Alcotest.int "rebound callback" 1 (Tm.Gauge.value f');
  Tm.reset r;
  check Alcotest.int "reset drops gauges" 0 (List.length (Tm.gauges r))

(* --- snapshot ring --- *)

let test_snapshot_ring () =
  let r = Tm.create () in
  let c = Tm.counter ~registry:r "c" in
  let g = Tm.gauge ~registry:r "g" in
  let h = Tm.histogram ~registry:r "h" in
  let ring = Snapshot.create ~capacity:2 ~registry:r () in
  Tm.Counter.incr ~by:5 c;
  Tm.Gauge.set g 3;
  Tm.Histogram.observe_int h 10;
  let p0 = Snapshot.take ~label:"first" ring in
  check Alcotest.int "seq starts at 0" 0 p0.Snapshot.p_seq;
  check
    Alcotest.(list (pair string int))
    "counters captured" [ ("c", 5) ] p0.Snapshot.p_counters;
  check
    Alcotest.(list (pair string int))
    "gauges captured" [ ("g", 3) ] p0.Snapshot.p_gauges;
  (match p0.Snapshot.p_hists with
  | [ ("h", s) ] ->
    check Alcotest.int "hist count" 1 s.Snapshot.h_count;
    check (Alcotest.float 1e-9) "hist sum" 10.0 s.Snapshot.h_sum
  | _ -> Alcotest.fail "one histogram expected");
  Tm.Counter.incr ~by:7 c;
  ignore (Snapshot.take ring);
  Tm.Counter.incr (Tm.counter ~registry:r "born");
  let p2 = Snapshot.take ~label:"last" ring in
  (* capacity 2: the first point has been evicted *)
  check Alcotest.int "length capped" 2 (Snapshot.length ring);
  (match Snapshot.points ring with
  | [ a; b ] ->
    check Alcotest.int "oldest retained is #1" 1 a.Snapshot.p_seq;
    check Alcotest.int "newest is #2" 2 b.Snapshot.p_seq
  | _ -> Alcotest.fail "two points expected");
  (match Snapshot.latest ring with
  | Some p -> check Alcotest.string "latest label" "last" p.Snapshot.p_label
  | None -> Alcotest.fail "latest missing");
  let deltas = Snapshot.counter_delta ~older:p0 ~newer:p2 in
  check Alcotest.(option int) "existing counter delta" (Some 7)
    (List.assoc_opt "c" deltas);
  check Alcotest.(option int) "born counter deltas from 0" (Some 1)
    (List.assoc_opt "born" deltas);
  List.iter
    (fun (n, rate) ->
      check Alcotest.bool (n ^ " rate non-negative") true (rate >= 0.0))
    (Snapshot.rates ~older:p0 ~newer:p2);
  check Alcotest.bool "busy_seconds accumulated" true
    (Snapshot.busy_seconds ring > 0.0)

let test_snapshot_callback_and_install () =
  let r = Tm.create () in
  ignore (Tm.counter ~registry:r "c");
  let seen = ref [] in
  let ring =
    Snapshot.create ~registry:r
      ~on_snapshot:(fun p -> seen := p.Snapshot.p_label :: !seen)
      ()
  in
  Snapshot.install ring;
  Fun.protect ~finally:Snapshot.uninstall @@ fun () ->
  check Alcotest.bool "installed" true (Snapshot.installed () <> None);
  (match Snapshot.take_installed ~label:"via-plane" () with
  | Some p -> check Alcotest.string "label" "via-plane" p.Snapshot.p_label
  | None -> Alcotest.fail "installed ring did not snapshot");
  check Alcotest.(list string) "callback saw the snapshot" [ "via-plane" ] !seen;
  Snapshot.uninstall ();
  check Alcotest.bool "uninstalled" true (Snapshot.take_installed () = None)

let test_snapshot_ticker_and_dump () =
  let r = Tm.create () in
  ignore (Tm.counter ~registry:r "c");
  let ring = Snapshot.create ~registry:r () in
  Snapshot.install ring;
  Fun.protect
    ~finally:(fun () ->
      Snapshot.stop_ticker ();
      Snapshot.uninstall ())
  @@ fun () ->
  Snapshot.start_ticker ~interval_ms:10 ();
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Snapshot.length ring = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  check Alcotest.bool "ticker snapshots" true (Snapshot.length ring > 0);
  (* an on-demand dump is serviced even with periodic snapshots off *)
  Snapshot.stop_ticker ();
  Snapshot.start_ticker ~interval_ms:0 ();
  Snapshot.request_dump ();
  let deadline = Unix.gettimeofday () +. 2.0 in
  let has_dump () =
    List.exists
      (fun (p : Snapshot.point) -> p.p_label = "sigusr1")
      (Snapshot.points ring)
  in
  while (not (has_dump ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  check Alcotest.bool "dump request serviced" true (has_dump ());
  Snapshot.stop_ticker ();
  (* stop is idempotent *)
  Snapshot.stop_ticker ()

let test_runtime_gauges () =
  let r = Tm.create () in
  Snapshot.install_runtime_gauges ~registry:r ();
  let value name =
    match
      List.find_opt (fun g -> Tm.Gauge.name g = name) (Tm.gauges r)
    with
    | Some g -> Tm.Gauge.value g
    | None -> Alcotest.failf "gauge %s not installed" name
  in
  check Alcotest.bool "minor collections move" true (value "gc.minor_collections" >= 0);
  check Alcotest.bool "heap words positive" true (value "gc.heap_words" > 0);
  check Alcotest.bool "recommended domains" true (value "domains.recommended" >= 1);
  check Alcotest.bool "pool idle" true (value "pool.domains.busy" >= 0)

(* Satellite: counters sampled while worker domains hammer them.  Every
   snapshot-to-snapshot delta must be non-negative (counters are
   monotone) and the final capture must equal exactly what the domains
   added. *)
let prop_snapshot_concurrent_monotone =
  QCheck.Test.make ~name:"snapshots under concurrent counter updates"
    ~count:20
    QCheck.(pair (int_range 1 3) (int_range 50 400))
    (fun (ndomains, increments) ->
      let r = Tm.create () in
      let names = [| "a"; "b"; "c" |] in
      let ring = Snapshot.create ~capacity:64 ~registry:r () in
      Array.iter (fun n -> ignore (Tm.counter ~registry:r n)) names;
      let p0 = Snapshot.take ring in
      let workers =
        Array.init ndomains (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to increments do
                  Tm.Counter.incr
                    (Tm.counter ~registry:r names.((d + i) mod Array.length names))
                done))
      in
      (* sample concurrently with the writers *)
      for _ = 1 to 10 do
        ignore (Snapshot.take ring);
        Domain.cpu_relax ()
      done;
      Array.iter Domain.join workers;
      let final = Snapshot.take ring in
      let points = Snapshot.points ring in
      let rec consecutive_ok = function
        | a :: (b :: _ as rest) ->
          List.for_all (fun (_, d) -> d >= 0) (Snapshot.counter_delta ~older:a ~newer:b)
          && consecutive_ok rest
        | _ -> true
      in
      let total =
        List.fold_left (fun acc (_, v) -> acc + v) 0 final.Snapshot.p_counters
      in
      consecutive_ok points
      && total = ndomains * increments
      && List.for_all (fun (_, d) -> d >= 0)
           (Snapshot.counter_delta ~older:p0 ~newer:final))

(* --- OpenMetrics --- *)

let test_openmetrics_roundtrip () =
  let r = Tm.create () in
  Tm.Counter.incr ~by:42 (Tm.counter ~registry:r "windows.span_cache.hit");
  Tm.Counter.incr ~by:9 (Tm.counter ~registry:r "lp.pivots.total");
  Tm.Gauge.set (Tm.gauge ~registry:r "pool.domains.live") 4;
  let h = Tm.histogram ~registry:r "lp.pivots" in
  List.iter (Tm.Histogram.observe_int h) [ 1; 3; 3; 100 ];
  let text = Openmetrics.to_string ~registry:r () in
  check Alcotest.bool "ends with EOF" true
    (let t = String.trim text in
     String.length t >= 5 && String.sub t (String.length t - 5) 5 = "# EOF");
  match Openmetrics.parse text with
  | Error msg -> Alcotest.failf "exporter output rejected: %s" msg
  | Ok families ->
    let find name =
      match
        List.find_opt (fun (f : Openmetrics.family) -> f.f_name = name) families
      with
      | Some f -> f
      | None -> Alcotest.failf "family %s missing" name
    in
    (* every family and series name is legal *)
    List.iter
      (fun (f : Openmetrics.family) ->
        check Alcotest.bool (f.f_name ^ " name valid") true
          (Openmetrics.valid_name f.f_name);
        List.iter
          (fun (s : Openmetrics.sample) ->
            check Alcotest.bool (s.s_series ^ " series valid") true
              (Openmetrics.valid_name s.s_series))
          f.f_samples)
      families;
    let hit = find "sherlock_windows_span_cache_hit_total" in
    check Alcotest.bool "counter typed" true (hit.f_type = Openmetrics.MCounter);
    (match hit.f_samples with
    | [ s ] -> check (Alcotest.float 1e-9) "counter value" 42.0 s.s_value
    | _ -> Alcotest.fail "counter sample count");
    (* a name already ending in .total is not double-suffixed *)
    let pivots_total = find "sherlock_lp_pivots_total" in
    (match pivots_total.f_samples with
    | [ s ] -> check (Alcotest.float 1e-9) "total counter value" 9.0 s.s_value
    | _ -> Alcotest.fail "pivots.total sample count");
    let live = find "sherlock_pool_domains_live" in
    check Alcotest.bool "gauge typed" true (live.f_type = Openmetrics.MGauge);
    let ph = find "sherlock_lp_pivots" in
    check Alcotest.bool "histogram typed" true (ph.f_type = Openmetrics.MHistogram);
    let series suffix =
      List.filter
        (fun (s : Openmetrics.sample) -> s.s_series = "sherlock_lp_pivots" ^ suffix)
        ph.f_samples
    in
    (match series "_count" with
    | [ s ] -> check (Alcotest.float 1e-9) "_count" 4.0 s.s_value
    | _ -> Alcotest.fail "_count missing");
    (match series "_sum" with
    | [ s ] -> check (Alcotest.float 1e-9) "_sum" 107.0 s.s_value
    | _ -> Alcotest.fail "_sum missing");
    let buckets = series "_bucket" in
    check Alcotest.bool "has buckets" true (List.length buckets >= 2);
    (* buckets are cumulative and end at +Inf = count *)
    (match
       List.find_opt
         (fun (s : Openmetrics.sample) -> s.s_labels = [ ("le", "+Inf") ])
         buckets
     with
    | Some s -> check (Alcotest.float 1e-9) "+Inf bucket" 4.0 s.s_value
    | None -> Alcotest.fail "+Inf bucket missing");
    let le_values =
      List.filter_map
        (fun (s : Openmetrics.sample) ->
          match s.s_labels with
          | [ ("le", "+Inf") ] -> None
          | [ ("le", le) ] -> Some (float_of_string le, s.s_value)
          | _ -> None)
        buckets
    in
    let rec cumulative = function
      | (_, a) :: ((_, b) :: _ as rest) -> a <= b && cumulative rest
      | _ -> true
    in
    check Alcotest.bool "buckets cumulative" true
      (cumulative (List.sort compare le_values))

let test_openmetrics_atomic_write_and_parse_file () =
  let r = Tm.create () in
  Tm.Counter.incr ~by:3 (Tm.counter ~registry:r "c");
  let path = Filename.temp_file "sherlock_om" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Openmetrics.write_atomic path (Openmetrics.to_string ~registry:r ());
  check Alcotest.bool "no tmp litter" false (Sys.file_exists (path ^ ".tmp"));
  match Openmetrics.parse_file path with
  | Error msg -> Alcotest.failf "parse_file: %s" msg
  | Ok families -> check Alcotest.bool "parsed something" true (families <> [])

let test_openmetrics_rejects_malformed () =
  let reject text why =
    match Openmetrics.parse text with
    | Ok _ -> Alcotest.failf "accepted %s" why
    | Error msg -> check Alcotest.bool (why ^ " has message") true (msg <> "")
  in
  reject "sherlock_x 1\n" "missing EOF";
  reject "# TYPE 9bad counter\n# EOF\n" "invalid metric name";
  reject "Bad-Name 1\n# EOF\n" "invalid series name";
  reject "sherlock_x notanumber\n# EOF\n" "bad sample value";
  reject "# TYPE x flavor\n# EOF\n" "unknown TYPE";
  reject "# EOF\nsherlock_x 1\n" "content after EOF";
  check Alcotest.bool "mangle produces valid names" true
    (Openmetrics.valid_name (Openmetrics.mangle "Weird.Name-with:Stuff/9"))

(* --- structured log --- *)

let test_log_jsonl () =
  let lines = ref [] in
  Tlog.set_writer (Some (fun l -> lines := l :: !lines));
  Fun.protect ~finally:(fun () -> Tlog.set_writer None) @@ fun () ->
  Tlog.set_level Tlog.Debug;
  check Alcotest.bool "enabled with sink" true (Tlog.enabled Tlog.Info);
  Tlog.warn "orch.run.failed"
    [
      ("test", Tlog.Str "quote\"and\nnewline");
      ("ctl", Tlog.Str "soh\001");
      ("attempt", Tlog.Int 2);
      ("ratio", Tlog.Float 0.5);
      ("bad", Tlog.Float nan);
      ("flag", Tlog.Bool true);
    ];
  (match !lines with
  | [ line ] ->
    check Alcotest.bool "has event" true (contains line {|"event":"orch.run.failed"|});
    check Alcotest.bool "has level" true (contains line {|"level":"warn"|});
    check Alcotest.bool "escapes quotes" true (contains line {|quote\"and\nnewline|});
    check Alcotest.bool "escapes control bytes" true
      (contains line {|"ctl":"soh\u0001"|});
    check Alcotest.bool "int field" true (contains line {|"attempt":2|});
    check Alcotest.bool "nan is null" true (contains line {|"bad":null|});
    check Alcotest.bool "bool field" true (contains line {|"flag":true|});
    check Alcotest.bool "domain field" true (contains line {|"domain":|})
  | l -> Alcotest.failf "expected one line, got %d" (List.length l));
  (* threshold filters *)
  lines := [];
  Tlog.set_level Tlog.Warn;
  Tlog.info "dropped" [];
  Tlog.error "kept" [];
  check Alcotest.int "info filtered, error kept" 1 (List.length !lines);
  check Alcotest.bool "below threshold disabled" false (Tlog.enabled Tlog.Debug);
  Tlog.set_level Tlog.Debug

let test_log_no_sink_is_noop () =
  Tlog.set_writer None;
  check Alcotest.bool "disabled without sink" false (Tlog.enabled Tlog.Error);
  (* must not raise *)
  Tlog.error "into-the-void" [ ("k", Tlog.Int 1) ]

let test_log_level_parsing () =
  check Alcotest.bool "warn" true (Tlog.level_of_string "WARN" = Some Tlog.Warn);
  check Alcotest.bool "warning" true
    (Tlog.level_of_string "warning" = Some Tlog.Warn);
  check Alcotest.bool "garbage" true (Tlog.level_of_string "loud" = None);
  check Alcotest.string "name" "error" (Tlog.level_name Tlog.Error)

(* --- Perfetto export --- *)

(* Arbitrary events: a mix of every phase with scrambled timestamps and
   possibly-negative complete durations. *)
let arb_events =
  let open QCheck in
  let arb_event =
    map
      (fun (ts, dur, pick, tid) ->
        let ts = abs ts mod 10_000 in
        match pick mod 5 with
        | 0 -> Perfetto.complete ~name:"c" ~ts ~dur ~pid:1 ~tid ()
        | 1 -> Perfetto.instant ~name:"i" ~ts ~pid:1 ~tid ()
        | 2 -> Perfetto.flow_start ~id:(abs dur) ~ts ~pid:1 ~tid ()
        | 3 -> Perfetto.flow_end ~id:(abs dur) ~ts ~pid:1 ~tid ()
        | _ -> Perfetto.thread_name ~pid:1 ~tid "t")
      (quad int (int_range (-50) 5000) int (int_range 0 7))
  in
  list_of_size Gen.(int_range 0 60) arb_event

let prop_prepare_sorted_nonnegative =
  QCheck.Test.make ~name:"prepare: metadata first, sorted ts, dur >= 0"
    ~count:200 arb_events (fun events ->
      let prepared = Perfetto.prepare events in
      List.length prepared = List.length events
      &&
      let rec split_meta = function
        | { Perfetto.ph = Perfetto.Metadata; _ } :: rest -> split_meta rest
        | rest ->
          (* no metadata event may appear after the prefix *)
          List.for_all (fun (e : Perfetto.event) -> e.ph <> Perfetto.Metadata) rest
          &&
          let rec sorted = function
            | (a : Perfetto.event) :: (b : Perfetto.event) :: rest ->
              a.ts <= b.ts && sorted (b :: rest)
            | _ -> true
          in
          sorted rest
      in
      split_meta prepared
      && List.for_all
           (fun (e : Perfetto.event) ->
             match e.ph with Perfetto.Complete d -> d >= 0 | _ -> true)
           prepared)

let prop_of_spans_sorted_nonnegative =
  QCheck.Test.make ~name:"of_spans export: sorted with non-negative durations"
    ~count:50
    QCheck.(int_range 1 5)
    (fun depth ->
      let c = Span.create_collector () in
      Span.set_collector (Some c);
      Fun.protect ~finally:(fun () -> Span.set_collector None) @@ fun () ->
      let rec nest d =
        Span.with_span ~name:(Printf.sprintf "d%d" d) (fun () ->
            if d < depth then nest (d + 1))
      in
      nest 1;
      Span.with_span ~name:"tail" ignore;
      let events = Perfetto.prepare (Perfetto.of_spans c) in
      List.length
        (List.filter (fun (e : Perfetto.event) -> e.ph <> Perfetto.Metadata) events)
      = depth + 1
      && List.for_all
           (fun (e : Perfetto.event) ->
             match e.ph with Perfetto.Complete d -> d >= 0 | _ -> e.ts >= 0)
           events)

let test_json_escaping () =
  let s =
    Perfetto.to_string
      [
        Perfetto.instant ~name:"quote \" slash \\ newline \n"
          ~args:[ ("k", Perfetto.Str "tab\t"); ("c", Perfetto.Str "soh\001") ]
          ~ts:1 ~pid:1 ~tid:1 ();
      ]
  in
  check Alcotest.bool "quote escaped" true (contains s {|quote \" slash|});
  check Alcotest.bool "backslash escaped" true (contains s {|slash \\ newline|});
  check Alcotest.bool "newline escaped" true (contains s {|newline \n|});
  check Alcotest.bool "tab escaped" true (contains s {|tab\t|});
  check Alcotest.bool "control byte escaped" true (contains s {|soh\u0001|})

(* --- virtual-time timeline --- *)

let test_timeline_export () =
  let open Sherlock_sim in
  let hooks, finish = Schedule.recorder () in
  let log =
    Runtime.run ~seed:3 ~hooks ~instrument:(Runtime.tracing ()) (fun () ->
        let cell = Heap.cell ~cls:"T" ~field:"x" 0 in
        let t =
          Threadlib.create ~delegate:("T", "Worker") (fun () ->
              Heap.write cell 1)
        in
        Threadlib.start t;
        ignore (Heap.read cell);
        Threadlib.join t)
  in
  let timelines =
    [
      {
        Sherlock_core.Timeline.test_name = "t";
        log;
        schedule = finish ~duration:log.Log.duration;
      };
    ]
  in
  let events =
    Sherlock_core.Timeline.export ~app:"unit" ~plan:Sherlock_core.Perturber.empty
      timelines
  in
  let has ph = List.exists (fun (e : Perfetto.event) -> e.ph = ph) events in
  check Alcotest.bool "has frames/slices" true
    (List.exists
       (fun (e : Perfetto.event) ->
         match e.ph with Perfetto.Complete _ -> true | _ -> false)
       events);
  check Alcotest.bool "names both threads" true
    (List.length
       (List.filter
          (fun (e : Perfetto.event) ->
            e.ph = Perfetto.Metadata && e.name = "thread_name")
          events)
     >= 4);
  (* read and write of T::x race within [near]: at least one flow arrow *)
  check Alcotest.bool "flow start" true
    (List.exists
       (fun (e : Perfetto.event) ->
         match e.ph with Perfetto.Flow_start _ -> true | _ -> false)
       events);
  check Alcotest.bool "flow end" true
    (List.exists
       (fun (e : Perfetto.event) ->
         match e.ph with Perfetto.Flow_end _ -> true | _ -> false)
       events);
  ignore has

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "well-nested" `Quick test_span_nesting;
          Alcotest.test_case "closes on exception" `Quick test_span_closes_on_exception;
          Alcotest.test_case "attributes" `Quick test_span_attrs;
          Alcotest.test_case "no collector" `Quick test_span_no_collector;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "registry listing" `Quick test_registry_listing;
          Alcotest.test_case "trace bridge" `Quick test_trace_metrics_bridge;
          Alcotest.test_case "gauge" `Quick test_gauge;
        ] );
      ( "snapshot",
        Alcotest.test_case "ring retention and deltas" `Quick test_snapshot_ring
        :: Alcotest.test_case "callback and installed plane" `Quick
             test_snapshot_callback_and_install
        :: Alcotest.test_case "ticker and dump requests" `Quick
             test_snapshot_ticker_and_dump
        :: Alcotest.test_case "runtime gauges" `Quick test_runtime_gauges
        :: qcheck [ prop_snapshot_concurrent_monotone ] );
      ( "openmetrics",
        [
          Alcotest.test_case "export/parse round-trip" `Quick
            test_openmetrics_roundtrip;
          Alcotest.test_case "atomic write + parse_file" `Quick
            test_openmetrics_atomic_write_and_parse_file;
          Alcotest.test_case "rejects malformed input" `Quick
            test_openmetrics_rejects_malformed;
        ] );
      ( "log",
        [
          Alcotest.test_case "jsonl shape and escaping" `Quick test_log_jsonl;
          Alcotest.test_case "no sink is a no-op" `Quick test_log_no_sink_is_noop;
          Alcotest.test_case "level parsing" `Quick test_log_level_parsing;
        ] );
      ( "perfetto",
        Alcotest.test_case "json escaping" `Quick test_json_escaping
        :: qcheck
             [ prop_prepare_sorted_nonnegative; prop_of_spans_sorted_nonnegative ] );
      ("timeline", [ Alcotest.test_case "export" `Quick test_timeline_export ]);
    ]

(* Tests for the trace layer: operation ids, logs, duration pairing, and
   acquire/release window extraction. *)

open Sherlock_trace

let check = Alcotest.check

let ev ?(target = 1) ?(delayed_by = 0) time tid op =
  Event.make ~time ~tid ~op ~target ~delayed_by ()

let mklog ?(threads = 4) events =
  Log.create ~events ~duration:1_000_000 ~threads ~volatile_addrs:(Hashtbl.create 1)

(* --- Opid --- *)

let test_opid_identity () =
  let a = Opid.read ~cls:"C" "f" and b = Opid.read ~cls:"C" "f" in
  check Alcotest.bool "equal" true (Opid.equal a b);
  check Alcotest.int "compare" 0 (Opid.compare a b);
  check Alcotest.bool "hash equal" true (Opid.hash a = Opid.hash b);
  check Alcotest.bool "kind distinguishes" false
    (Opid.equal a (Opid.write ~cls:"C" "f"))

let test_opid_kinds () =
  check Alcotest.bool "read is access" true (Opid.is_access (Opid.read ~cls:"C" "f"));
  check Alcotest.bool "begin is frame" true (Opid.is_frame (Opid.enter ~cls:"C" "m"));
  check Alcotest.bool "frame not access" false
    (Opid.is_access (Opid.exit ~cls:"C" "m"))

let test_opid_system () =
  check Alcotest.bool "monitor is system" true
    (Opid.is_system (Opid.enter ~cls:"System.Threading.Monitor" "Enter"));
  check Alcotest.bool "microsoft is system" true
    (Opid.is_system (Opid.enter ~cls:"Microsoft.VisualStudio.TestTools" "X"));
  check Alcotest.bool "app is not" false (Opid.is_system (Opid.enter ~cls:"App.C" "m"));
  check Alcotest.bool "System.Linq.Dynamic is app code" false
    (Opid.is_system (Opid.enter ~cls:"System.Linq.Dynamic.ClassFactory" "m"))

let test_opid_strings () =
  check Alcotest.string "read" "Read-C::f" (Opid.to_string (Opid.read ~cls:"C" "f"));
  check Alcotest.string "write" "Write-C::f" (Opid.to_string (Opid.write ~cls:"C" "f"));
  check Alcotest.string "begin" "C::m-Begin" (Opid.to_string (Opid.enter ~cls:"C" "m"));
  check Alcotest.string "end" "C::m-End" (Opid.to_string (Opid.exit ~cls:"C" "m"));
  check Alcotest.string "method key" "C::m" (Opid.method_key (Opid.enter ~cls:"C" "m"))

let test_opid_name_validation () =
  (* Whitespace and control characters would corrupt the space-delimited
     text format; every constructor must reject them, naming the
     offending character, for either component. *)
  let expect_reject name =
    List.iter
      (fun ctor ->
        match ctor () with
        | (_ : Opid.t) -> Alcotest.failf "accepted %S" name
        | exception Invalid_argument msg ->
          check Alcotest.bool
            (Printf.sprintf "%S names the module" msg)
            true
            (String.length msg >= 5 && String.sub msg 0 5 = "Opid:"))
      [
        (fun () -> Opid.read ~cls:name "f");
        (fun () -> Opid.write ~cls:"C" name);
        (fun () -> Opid.enter ~cls:name "m");
        (fun () -> Opid.exit ~cls:"C" name);
      ]
  in
  List.iter expect_reject
    [ "Bad Name"; "tab\there"; "new\nline"; "nul\x00"; "del\x7f" ];
  Alcotest.check_raises "message pinpoints the character"
    (Invalid_argument
       "Opid: invalid character ' ' in operation name \"Bad Name\"")
    (fun () -> ignore (Opid.read ~cls:"Bad Name" "f"));
  (* Punctuation-heavy but printable names are legitimate (C# generics,
     compiler-generated members) and must pass. *)
  List.iter
    (fun n -> ignore (Opid.read ~cls:"N.C`1" n))
    [ "<Main>b__0"; "op_Equality"; "f" ]

let test_opid_counterpart () =
  check Alcotest.bool "read<->write" true
    (Opid.equal (Opid.counterpart (Opid.read ~cls:"C" "f")) (Opid.write ~cls:"C" "f"));
  check Alcotest.bool "begin<->end" true
    (Opid.equal (Opid.counterpart (Opid.enter ~cls:"C" "m")) (Opid.exit ~cls:"C" "m"))

(* --- Log --- *)

let test_log_sorting () =
  let o = Opid.read ~cls:"C" "f" in
  let log = mklog [ ev 30 0 o; ev 10 1 o; ev 20 0 o ] in
  let times = Array.to_list (Array.map (fun (e : Event.t) -> e.time) log.events) in
  check Alcotest.(list int) "sorted" [ 10; 20; 30 ] times

let test_log_queries () =
  let o = Opid.read ~cls:"C" "f" in
  let log = mklog [ ev 10 0 o; ev 20 1 o; ev 30 0 o ] in
  check Alcotest.int "thread events" 2 (List.length (Log.events_of_thread log 0));
  check Alcotest.int "between" 2 (List.length (Log.between log ~lo:10 ~hi:20));
  check Alcotest.bool "active" true (Log.thread_active_in log ~tid:1 ~lo:15 ~hi:25);
  check Alcotest.bool "inactive" false (Log.thread_active_in log ~tid:1 ~lo:21 ~hi:29)

let test_log_empty_fresh () =
  (* [empty] must hand out a fresh value: the volatile-address table is
     mutable, and a shared one would leak state between callers. *)
  let a = Log.empty () in
  Hashtbl.replace a.volatile_addrs 42 ();
  let b = Log.empty () in
  check Alcotest.int "fresh volatile table" 0 (Hashtbl.length b.volatile_addrs);
  check Alcotest.int "no events" 0 (Log.length b)

let test_first_delay_earliest () =
  (* Two delayed events in range: the first one in time must win (the
     seed's fold kept scanning and could report a later one). *)
  let o = Opid.write ~cls:"C" "g" in
  let log =
    mklog
      [
        ev ~target:2 ~delayed_by:5 90 0 o;
        ev ~target:2 ~delayed_by:7 40 0 o;
        ev 10 1 (Opid.read ~cls:"C" "f");
      ]
  in
  match Log.first_delayed_in log ~tid:0 ~lo:0 ~hi:1_000 with
  | Some e ->
    check Alcotest.int "first in time" 40 e.time;
    check Alcotest.int "its delay" 7 e.delayed_by
  | None -> Alcotest.fail "expected a delayed event"

let test_first_delay_bounds () =
  let o = Opid.write ~cls:"C" "g" in
  let log = mklog [ ev ~target:2 ~delayed_by:7 40 0 o ] in
  check Alcotest.bool "outside range" true
    (Log.first_delayed_in log ~tid:0 ~lo:41 ~hi:1_000 = None);
  check Alcotest.bool "wrong thread" true
    (Log.first_delayed_in log ~tid:1 ~lo:0 ~hi:1_000 = None);
  check Alcotest.bool "has_delayed agrees" false
    (Log.has_delayed_in log ~tid:0 ~lo:41 ~hi:1_000);
  check Alcotest.bool "has_delayed hit" true
    (Log.has_delayed_in log ~tid:0 ~lo:40 ~hi:40)

(* --- Durations --- *)

let test_durations_pairing () =
  let b = Opid.enter ~cls:"C" "m" and e = Opid.exit ~cls:"C" "m" in
  let log = mklog [ ev 10 0 b; ev 25 0 e; ev 30 0 b; ev 70 0 e ] in
  let d = Durations.create () in
  Durations.record_log d log;
  check Alcotest.(list (float 1e-9)) "durations" [ 40.0; 15.0 ] (Durations.samples d "C::m")

let test_durations_nested () =
  let b = Opid.enter ~cls:"C" "m" and e = Opid.exit ~cls:"C" "m" in
  let bi = Opid.enter ~cls:"C" "inner" and ei = Opid.exit ~cls:"C" "inner" in
  let log = mklog [ ev 10 0 b; ev 20 0 bi; ev 30 0 ei; ev 50 0 e ] in
  let d = Durations.create () in
  Durations.record_log d log;
  check Alcotest.(list (float 1e-9)) "outer" [ 40.0 ] (Durations.samples d "C::m");
  check Alcotest.(list (float 1e-9)) "inner" [ 10.0 ] (Durations.samples d "C::inner")

let test_durations_skip_delayed_frames () =
  let b = Opid.enter ~cls:"C" "m" and e = Opid.exit ~cls:"C" "m" in
  let w = Opid.write ~cls:"C" "f" in
  let log =
    mklog [ ev 10 0 b; ev ~delayed_by:100_000 100_020 0 w; ev 100_040 0 e;
            ev 200_000 0 b; ev 200_015 0 e ]
  in
  let d = Durations.create () in
  Durations.record_log d log;
  check Alcotest.(list (float 1e-9)) "only undelayed frame" [ 15.0 ]
    (Durations.samples d "C::m")

let test_durations_cv_percentile () =
  let d = Durations.create () in
  let mk cls meth times =
    let b = Opid.enter ~cls meth and e = Opid.exit ~cls meth in
    mklog (List.concat_map (fun (t0, t1) -> [ ev t0 0 b; ev t1 0 e ]) times)
  in
  Durations.record_log d (mk "C" "flat" [ (0, 10); (100, 110); (200, 210) ]);
  Durations.record_log d (mk "C" "vary" [ (0, 10); (300, 500); (1000, 1002) ]);
  check Alcotest.bool "vary has higher cv" true (Durations.cv d "C::vary" > Durations.cv d "C::flat");
  let r = Durations.cv_ranks d in
  check (Alcotest.float 0.0) "vary top percentile" 0.5
    (Durations.cv_percentile r "C::vary");
  check (Alcotest.float 0.0) "flat bottom percentile" 0.0
    (Durations.cv_percentile r "C::flat");
  check (Alcotest.float 0.0) "unseen method" 0.0
    (Durations.cv_percentile r "C::none")

(* --- Windows --- *)

let wf = Opid.write ~cls:"C" "f"

let rf = Opid.read ~cls:"C" "f"

let test_window_basic () =
  (* T0 writes, T1 reads soon after: one window with both endpoints. *)
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let windows, races = Windows.extract log in
  check Alcotest.int "one window" 1 (List.length windows);
  check Alcotest.int "no race" 0 (List.length races);
  let w = List.hd windows in
  check Alcotest.bool "rel contains write" true (Opid.Map.mem wf w.rel);
  check Alcotest.bool "acq contains read" true (Opid.Map.mem rf w.acq)

let test_window_near_filter () =
  let log = mklog [ ev 10 0 wf; ev 5_000_000 1 rf ] in
  let windows, races = Windows.extract ~near:1_000_000 log in
  check Alcotest.int "too far apart" 0 (List.length windows);
  check Alcotest.int "no race either" 0 (List.length races)

let test_window_same_thread_excluded () =
  let log = mklog [ ev 10 0 wf; ev 20 0 rf ] in
  let windows, races = Windows.extract log in
  check Alcotest.int "same thread no window" 0 (List.length windows + List.length races)

let test_window_read_read_excluded () =
  let log = mklog [ ev 10 0 rf; ev 20 1 rf ] in
  let windows, races = Windows.extract log in
  check Alcotest.int "no conflict" 0 (List.length windows + List.length races)

let test_window_cap () =
  let events =
    List.concat_map (fun i -> [ ev ((i * 100) + 10) 0 wf; ev ((i * 100) + 50) 1 rf ]) (List.init 40 Fun.id)
  in
  let log = mklog events in
  let windows, _ = Windows.extract ~cap:15 log in
  let for_pair =
    List.filter (fun (w : Windows.t) -> fst w.pair = wf && snd w.pair = rf) windows
  in
  check Alcotest.bool "capped at 15" true (List.length for_pair <= 15)

let test_window_race_all_writes () =
  (* Acquire side of a write/write pair with nothing else: a race. *)
  let log = mklog [ ev 10 0 wf; ev 50 1 wf ] in
  let windows, races = Windows.extract log in
  check Alcotest.int "no window" 0 (List.length windows);
  check Alcotest.int "race" 1 (List.length races)

let test_window_race_all_reads () =
  (* Release side of a read-then-write pair with only reads: a race. *)
  let log = mklog [ ev 10 0 rf; ev 50 1 wf ] in
  let _, races = Windows.extract log in
  check Alcotest.int "race" 1 (List.length races)

let test_window_method_prevents_race () =
  let e = Opid.exit ~cls:"C" "m" in
  let log = mklog [ ev 10 0 wf; ev 20 0 e; ev 50 1 wf; ev 5 1 (Opid.enter ~cls:"C" "n") ] in
  let windows, races = Windows.extract log in
  (* The acquire side picks up the open C::n frame of thread 1, so the
     write/write pair is explicable. *)
  check Alcotest.int "no race" 0 (List.length races);
  check Alcotest.int "window" 1 (List.length windows)

let test_window_open_frame_acquire () =
  (* Thread 1 invoked a method before the release and is still inside it:
     its Begin must be an acquire candidate. *)
  let bm = Opid.enter ~cls:"C" "Wait" and em = Opid.exit ~cls:"C" "Wait" in
  let log = mklog [ ev 5 1 bm; ev 10 0 wf; ev 60 1 em; ev 80 1 rf ] in
  let windows, _ = Windows.extract log in
  let w = List.hd windows in
  check Alcotest.bool "spanning begin included" true (Opid.Map.mem bm w.acq)

let test_window_progressed_frame_excluded () =
  (* Thread 1's frame made progress (a write) before the window: its
     Begin is not plausibly blocked and must not be a candidate. *)
  let bm = Opid.enter ~cls:"C" "Busy" in
  let wg = Opid.write ~cls:"C" "g" in
  let log = mklog [ ev 5 1 bm; ev ~target:2 8 1 wg; ev 10 0 wf; ev 80 1 rf ] in
  let windows, _ = Windows.extract log in
  let w = List.hd windows in
  check Alcotest.bool "progressed begin excluded" false (Opid.Map.mem bm w.acq)

let test_window_occurrence_counts () =
  let log = mklog [ ev 10 0 wf; ev 20 1 rf; ev 30 1 rf; ev 40 1 rf ] in
  let windows, _ = Windows.extract log in
  (* Last read closes the biggest window: reads occur 3 times there. *)
  let max_count =
    List.fold_left
      (fun acc (w : Windows.t) ->
        max acc (Option.value ~default:0 (Opid.Map.find_opt rf w.acq)))
      0 windows
  in
  check Alcotest.int "occurrences counted" 3 max_count

let test_refinement_propagated () =
  (* Delayed release candidate, other thread silent during the delay:
     acquire window shrinks to [r, b]. *)
  let wg = Opid.write ~cls:"C" "g" in
  let log =
    mklog
      [
        ev 10 0 wf;
        ev ~target:2 20 1 (Opid.read ~cls:"C" "g");
        ev ~target:2 ~delayed_by:100_000 100_120 0 wg;
        ev 100_200 1 rf;
      ]
  in
  let windows, _ = Windows.extract ~refine:true log in
  let w =
    List.find (fun (w : Windows.t) -> Opid.equal (fst w.pair) wf) windows
  in
  (* The early read of g (before the delay) is refined away. *)
  check Alcotest.bool "early acq candidate dropped" false
    (Opid.Map.mem (Opid.read ~cls:"C" "g") w.acq);
  check Alcotest.bool "endpoint kept" true (Opid.Map.mem rf w.acq)

let test_refinement_not_propagated () =
  (* The other thread kept making progress during the delay: that instance
     of the delayed op is discounted from the release side. *)
  let wg = Opid.write ~cls:"C" "g" in
  let wh = Opid.write ~cls:"C" "h" in
  let log =
    mklog
      [
        ev 10 0 wf;
        ev ~target:3 50_000 1 wh;
        (* progress during the delay *)
        ev ~target:2 ~delayed_by:100_000 100_120 0 wg;
        ev 100_200 1 rf;
      ]
  in
  let windows, _ = Windows.extract ~refine:true log in
  let w =
    List.find (fun (w : Windows.t) -> Opid.equal (fst w.pair) wf) windows
  in
  check Alcotest.bool "refuted release instance removed" false (Opid.Map.mem wg w.rel);
  check Alcotest.bool "original write kept" true (Opid.Map.mem wf w.rel)

let test_refinement_off () =
  let wg = Opid.write ~cls:"C" "g" in
  let log =
    mklog
      [
        ev 10 0 wf;
        ev ~target:3 50_000 1 (Opid.write ~cls:"C" "h");
        ev ~target:2 ~delayed_by:100_000 100_120 0 wg;
        ev 100_200 1 rf;
      ]
  in
  let windows, _ = Windows.extract ~refine:false log in
  let w =
    List.find (fun (w : Windows.t) -> Opid.equal (fst w.pair) wf) windows
  in
  check Alcotest.bool "kept without refinement" true (Opid.Map.mem wg w.rel)

let gen_ops_for_io =
  QCheck.Gen.(
    list_size (int_range 0 30)
      (let* time = int_range 1 10_000 in
       let* tid = int_range 0 2 in
       let* kind = int_range 0 3 in
       let* field = int_range 0 2 in
       let cls = "P.C" in
       let name = Printf.sprintf "f%d" field in
       let op =
         match kind with
         | 0 -> Opid.read ~cls name
         | 1 -> Opid.write ~cls name
         | 2 -> Opid.enter ~cls name
         | _ -> Opid.exit ~cls name
       in
       return (Event.make ~time ~tid ~op ~target:(field + 1) ())))

(* --- Trace_io --- *)

let test_trace_io_roundtrip () =
  let o1 = Opid.read ~cls:"C" "f" and o2 = Opid.enter ~cls:"N.S" "m" in
  let volatile_addrs = Hashtbl.create 2 in
  Hashtbl.replace volatile_addrs 7 ();
  let log =
    Log.create
      ~events:[ ev ~target:7 10 0 o1; ev ~target:3 ~delayed_by:100 20 1 o2 ]
      ~duration:999 ~threads:3 ~volatile_addrs
  in
  let log' = Trace_io.of_string (Trace_io.to_string log) in
  check Alcotest.int "duration" log.duration log'.duration;
  check Alcotest.int "threads" log.threads log'.threads;
  check Alcotest.int "volatiles" 1 (Hashtbl.length log'.volatile_addrs);
  check Alcotest.int "events" (Log.length log) (Log.length log');
  Array.iter2
    (fun (a : Event.t) (b : Event.t) ->
      check Alcotest.bool "op" true (Opid.equal a.op b.op);
      check Alcotest.int "time" a.time b.time;
      check Alcotest.int "tid" a.tid b.tid;
      check Alcotest.int "target" a.target b.target;
      check Alcotest.int "delay" a.delayed_by b.delayed_by)
    log.events log'.events

let test_trace_io_file () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let path = Filename.temp_file "sherlock" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save log path;
      let log' = Trace_io.load path in
      check Alcotest.int "events" 2 (Log.length log'))

let test_trace_io_bad_magic () =
  Alcotest.check_raises "bad magic" (Failure "<string>:1: Trace_io: bad magic")
    (fun () -> ignore (Trace_io.of_string "nonsense\n"));
  Alcotest.check_raises "bad magic names the file"
    (Failure "trace.bin:1: Trace_io: bad magic") (fun () ->
      ignore (Trace_io.of_string ~path:"trace.bin" "nonsense\n"))

(* Regression: parse errors used to say only "malformed line"; they must
   now pinpoint the offending file:line (the magic header is line 1, so
   the first record is line 2). *)
let test_trace_io_malformed_line_position () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf; ev 90 0 wf ] in
  let lines = String.split_on_char '\n' (Trace_io.to_string log) in
  let garble n =
    String.concat "\n"
      (List.mapi (fun i l -> if i = n - 1 then "garbage here" else l) lines)
  in
  let expect_failure_at ~path pos text =
    match Trace_io.of_string ~path text with
    | _ -> Alcotest.failf "garbled line %d parsed" pos
    | exception Failure msg ->
      let prefix = Printf.sprintf "%s:%d: Trace_io: malformed line" path pos in
      check Alcotest.bool
        (Printf.sprintf "message %S starts with %S" msg prefix)
        true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)
  in
  (* Layout: line 1 magic, 2 duration, 3 threads, 4.. event records.
     Garbling the duration header or an event record must name exactly
     that line, in whichever path the caller supplied. *)
  expect_failure_at ~path:"<string>" 2 (garble 2);
  expect_failure_at ~path:"t.trace" 4 (garble 4);
  expect_failure_at ~path:"t.trace" 6 (garble 6);
  (* A truncated record (fields missing) is positioned too. *)
  expect_failure_at ~path:"<string>" 2 (List.hd lines ^ "\ne 10 0\n")

let test_trace_io_rejects_spaces () =
  (* The constructors reject bad names up front ([test_opid_name_validation]);
     [Opid.t] is a concrete record, though, so a value built by hand can
     slip past them — both writers must re-check before emitting. *)
  let bad = { Opid.cls = "Bad Name"; member = "f"; kind = Opid.Read } in
  let log = mklog [ ev 10 0 bad ] in
  List.iter
    (fun format ->
      Alcotest.check_raises
        (Printf.sprintf "whitespace name (%s)" (Trace_io.format_name format))
        (Invalid_argument
           "Opid: invalid character ' ' in operation name \"Bad Name\"")
        (fun () -> ignore (Trace_io.to_string ~format log)))
    [ Trace_io.Text; Trace_io.Binary ]

(* --- Trace_bin --- *)

let test_trace_bin_roundtrip () =
  let o1 = Opid.read ~cls:"C" "f" and o2 = Opid.enter ~cls:"N.S" "m" in
  let volatile_addrs = Hashtbl.create 2 in
  Hashtbl.replace volatile_addrs 7 ();
  Hashtbl.replace volatile_addrs 3 ();
  let log =
    Log.create
      ~events:[ ev ~target:7 10 0 o1; ev ~target:3 ~delayed_by:100 20 1 o2 ]
      ~duration:999 ~threads:3 ~volatile_addrs
  in
  let s = Trace_bin.to_string log in
  check Alcotest.string "frame starts with the magic" Trace_bin.magic
    (String.sub s 0 (String.length Trace_bin.magic));
  (* [Trace_io.of_string] must sniff the magic and route to the binary
     decoder on its own. *)
  let log' = Trace_io.of_string s in
  check Alcotest.int "duration" log.duration log'.duration;
  check Alcotest.int "threads" log.threads log'.threads;
  check Alcotest.int "volatiles" 2 (Hashtbl.length log'.volatile_addrs);
  check Alcotest.bool "volatile membership" true
    (Hashtbl.mem log'.volatile_addrs 7 && Hashtbl.mem log'.volatile_addrs 3);
  check Alcotest.int "events" (Log.length log) (Log.length log');
  Array.iter2
    (fun (a : Event.t) (b : Event.t) ->
      check Alcotest.bool "op" true (Opid.equal a.op b.op);
      check Alcotest.int "time" a.time b.time;
      check Alcotest.int "tid" a.tid b.tid;
      check Alcotest.int "target" a.target b.target;
      check Alcotest.int "delay" a.delayed_by b.delayed_by)
    log.events log'.events

let test_trace_bin_file_autodetect () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let path = Filename.temp_file "sherlock" ".btrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Binary log path;
      check Alcotest.bool "sniffed as binary" true
        (Trace_io.format_of_file path = Trace_io.Binary);
      let log' = Trace_io.load path in
      check Alcotest.int "events" 2 (Log.length log');
      (* Converting back to text through the same front door. *)
      Trace_io.save ~format:Trace_io.Text log' path;
      check Alcotest.bool "sniffed as text" true
        (Trace_io.format_of_file path = Trace_io.Text);
      check Alcotest.int "events after convert" 2 (Log.length (Trace_io.load path)))

let expect_positioned_binary_failure ~path ~what s =
  match Trace_bin.of_string ~path s with
  | (_ : Log.t) -> Alcotest.failf "%s parsed" what
  | exception Failure msg ->
    (* Binary errors are positioned as "<path>: byte <off>: Trace_bin: ...". *)
    let prefix = path ^ ": byte " in
    check Alcotest.bool
      (Printf.sprintf "%s: %S carries a byte offset" what msg)
      true
      (String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)

let test_trace_bin_truncation_positioned () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf; ev 90 0 wf ] in
  let s = Trace_bin.to_string log in
  (* Every proper prefix — mid-magic, mid-header, mid-op-table, mid-column,
     mid-footer — must be rejected with a byte-positioned error. *)
  for len = 0 to String.length s - 1 do
    expect_positioned_binary_failure ~path:"t.btrace"
      ~what:(Printf.sprintf "%d-byte prefix" len)
      (String.sub s 0 len)
  done

let test_trace_bin_corruption_positioned () =
  let volatile_addrs = Hashtbl.create 1 in
  Hashtbl.replace volatile_addrs 1 ();
  let log =
    Log.create
      ~events:[ ev 10 0 wf; ev ~delayed_by:3 50 1 rf; ev 90 0 wf ]
      ~duration:1_000 ~threads:2 ~volatile_addrs
  in
  let s = Trace_bin.to_string log in
  (* Flip every byte in turn: each corrupted frame must either still
     decode to some log (flips in event payloads are data, not
     structure) or fail with a byte-positioned error — never escape as
     another exception or a crash. *)
  for pos = 0 to String.length s - 1 do
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
    let corrupted = Bytes.to_string b in
    match Trace_bin.of_string ~path:"c.btrace" corrupted with
    | (_ : Log.t) -> ()
    | exception Failure msg ->
      let prefix = "c.btrace: byte " in
      check Alcotest.bool
        (Printf.sprintf "flip at %d: %S carries a byte offset" pos msg)
        true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)
  done

let prop_trace_io_roundtrip =
  QCheck.Test.make ~name:"trace_io roundtrip on random logs" ~count:100
    (QCheck.make gen_ops_for_io)
    (fun events ->
      let log = mklog events in
      let log' = Trace_io.of_string (Trace_io.to_string log) in
      Log.length log = Log.length log'
      && Array.for_all2
           (fun (a : Event.t) (b : Event.t) ->
             Opid.equal a.op b.op && a.time = b.time && a.tid = b.tid
             && a.target = b.target)
           log.events log'.events
      (* The loaded log rebuilds its indices; spot-check that they answer
         queries identically to the original's. *)
      && List.for_all
           (fun tid ->
             Log.progress_count log ~tid ~lo:0 ~hi:10_000
             = Log.progress_count log' ~tid ~lo:0 ~hi:10_000
             && List.length (Log.events_of_thread log tid)
                = List.length (Log.events_of_thread log' tid))
           [ 0; 1; 2 ])

(* Random logs with volatile-address annotations, for the cross-format
   property: both serializers must carry the whole log header, not just
   the event array. *)
let gen_log_inputs =
  QCheck.Gen.(
    let* events = gen_ops_for_io in
    let* volatiles = list_size (int_range 0 4) (int_range 1 6) in
    let* duration = int_range 0 1_000_000 in
    let* threads = int_range 0 8 in
    return (events, volatiles, duration, threads))

let prop_trace_formats_roundtrip =
  QCheck.Test.make ~name:"binary<->text<->binary preserves logs" ~count:100
    (QCheck.make gen_log_inputs)
    (fun (events, volatiles, duration, threads) ->
      let volatile_addrs = Hashtbl.create 4 in
      List.iter (fun a -> Hashtbl.replace volatile_addrs a ()) volatiles;
      let log = Log.create ~events ~duration ~threads ~volatile_addrs in
      let via format (l : Log.t) =
        Trace_io.of_string (Trace_io.to_string ~format l)
      in
      let via_bin = via Trace_io.Binary log in
      let via_text = via Trace_io.Text via_bin in
      let back = via Trace_io.Binary via_text in
      let vols (l : Log.t) =
        List.sort compare
          (Hashtbl.fold (fun k () acc -> k :: acc) l.volatile_addrs [])
      in
      let same (a : Log.t) (b : Log.t) =
        a.duration = b.duration && a.threads = b.threads
        && Log.length a = Log.length b
        && Array.for_all2
             (fun (x : Event.t) (y : Event.t) ->
               Opid.equal x.op y.op && x.time = y.time && x.tid = y.tid
               && x.target = y.target && x.delayed_by = y.delayed_by)
             a.events b.events
        && vols a = vols b
      in
      same log via_bin && same log via_text && same log back
      (* The binary encoding is canonical (interning in first-appearance
         order, volatile addresses sorted): re-encoding a log that made
         it through both formats is byte-identical. *)
      && Trace_io.to_string ~format:Trace_io.Binary log
         = Trace_io.to_string ~format:Trace_io.Binary back)

(* --- Reference window extraction --- *)

(* The pre-index full-scan algorithm, kept as an executable specification:
   every query the indexed [Windows.extract] answers with binary searches
   is answered here by scanning the whole event array.  Addresses are
   visited in first-seen order and same-address pairs in time order with
   one global per-static-pair cap — the same deterministic order the
   indexed implementation uses, so results are compared exactly. *)
module Naive = struct
  let add side op =
    Opid.Map.update op (function None -> Some 1 | Some n -> Some (n + 1)) side

  let side_of_span (log : Log.t) ~tid ~lo ~hi =
    Array.fold_left
      (fun acc (e : Event.t) ->
        if e.tid = tid && e.time >= lo && e.time <= hi then add acc e.op else acc)
      Opid.Map.empty log.events

  let all_kinds_are side kind =
    Opid.Map.for_all (fun (op : Opid.t) _ -> op.kind = kind) side

  let frame_spans (log : Log.t) =
    let stacks : (int, (Opid.t * int) list ref) Hashtbl.t = Hashtbl.create 8 in
    let spans : (int, (Opid.t * int * int) list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let slot tbl tid =
      match Hashtbl.find_opt tbl tid with
      | Some s -> s
      | None ->
        let s = ref [] in
        Hashtbl.add tbl tid s;
        s
    in
    Array.iter
      (fun (e : Event.t) ->
        match e.op.kind with
        | Opid.Begin ->
          (slot stacks e.tid) := (e.op, e.time) :: !(slot stacks e.tid)
        | Opid.End ->
          let key = Opid.method_key e.op in
          let s = slot stacks e.tid in
          let rec pop acc = function
            | [] -> None
            | ((op : Opid.t), t0) :: rest when Opid.method_key op = key ->
              Some ((op, t0), List.rev_append acc rest)
            | frame :: rest -> pop (frame :: acc) rest
          in
          (match pop [] !s with
          | Some ((op, t0), rest) ->
            s := rest;
            (slot spans e.tid) := (op, t0, e.time) :: !(slot spans e.tid)
          | None -> ())
        | Opid.Read | Opid.Write -> ())
      log.events;
    Hashtbl.iter
      (fun tid s ->
        List.iter
          (fun (op, t0) ->
            (slot spans tid) := (op, t0, max_int) :: !(slot spans tid))
          !s)
      stacks;
    spans

  let progressed (log : Log.t) ~tid ~lo ~hi =
    Array.exists
      (fun (e : Event.t) ->
        e.tid = tid && e.time > lo && e.time < hi && e.op.kind <> Opid.Read)
      log.events

  let add_open_frames log spans side ~tid ~lo =
    match Hashtbl.find_opt spans tid with
    | None -> side
    | Some frames ->
      List.fold_left
        (fun acc (op, t0, t1) ->
          if t1 >= lo && t0 < lo && not (progressed log ~tid ~lo:t0 ~hi:lo)
          then add acc op
          else acc)
        side !frames

  let first_delay (log : Log.t) ~tid ~lo ~hi =
    Array.fold_left
      (fun acc (e : Event.t) ->
        match acc with
        | Some _ -> acc
        | None ->
          if e.tid = tid && e.delayed_by > 0 && e.time >= lo && e.time <= hi
          then Some e
          else None)
      None log.events

  let extract ~near ~cap ~refine (log : Log.t) =
    let spans = frame_spans log in
    let windows = ref [] in
    let races = ref [] in
    let pair_counts : (Opid.t * Opid.t, int) Hashtbl.t = Hashtbl.create 64 in
    let consider (a : Event.t) (b : Event.t) =
      let acq_side ~lo ~hi =
        add_open_frames log spans
          (side_of_span log ~tid:b.tid ~lo ~hi)
          ~tid:b.tid ~lo
      in
      let rel = ref (side_of_span log ~tid:a.tid ~lo:a.time ~hi:b.time) in
      let acq = ref (acq_side ~lo:a.time ~hi:b.time) in
      (if refine then
         match first_delay log ~tid:a.tid ~lo:a.time ~hi:b.time with
         | Some r ->
           let delay_start = r.time - r.delayed_by in
           let made_progress =
             Array.exists
               (fun (e : Event.t) ->
                 e.tid = b.tid
                 && e.time >= delay_start
                 && e.time < r.time
                 && e.op.kind <> Opid.Read)
               log.events
           in
           if not made_progress then acq := acq_side ~lo:r.time ~hi:b.time
           else
             rel :=
               Opid.Map.update r.op
                 (function None | Some 1 -> None | Some n -> Some (n - 1))
                 !rel
         | None -> ());
      let rel = !rel and acq = !acq in
      let field = Opid.field_key a.op in
      let rel_impossible = Opid.Map.is_empty rel || all_kinds_are rel Opid.Read in
      let acq_impossible =
        Opid.Map.is_empty acq || all_kinds_are acq Opid.Write
      in
      if rel_impossible || acq_impossible then
        races := { Windows.race_pair = (a.op, b.op); race_field = field } :: !races
      else begin
        let coord =
          {
            Windows.first_time = a.time;
            first_tid = a.tid;
            second_time = b.time;
            second_tid = b.tid;
          }
        in
        windows :=
          { Windows.pair = (a.op, b.op); field; rel; acq; coord } :: !windows
      end
    in
    let addrs = ref [] in
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun (e : Event.t) ->
        if Opid.is_access e.op && not (Hashtbl.mem seen e.target) then begin
          Hashtbl.add seen e.target ();
          addrs := e.target :: !addrs
        end)
      log.events;
    List.iter
      (fun addr ->
        let accesses =
          Array.of_list
            (List.filter
               (fun (e : Event.t) -> Opid.is_access e.op && e.target = addr)
               (Array.to_list log.events))
        in
        let n = Array.length accesses in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let a = accesses.(i) and b = accesses.(j) in
            if
              b.time - a.time <= near
              && a.tid <> b.tid
              && (a.op.kind = Opid.Write || b.op.kind = Opid.Write)
            then begin
              let key = (a.op, b.op) in
              let c = Option.value ~default:0 (Hashtbl.find_opt pair_counts key) in
              if c < cap then begin
                Hashtbl.replace pair_counts key (c + 1);
                consider a b
              end
            end
          done
        done)
      (List.rev !addrs);
    (List.rev !windows, List.rev !races)
end

let side_bindings side =
  List.map (fun ((o : Opid.t), n) -> (Opid.to_string o, n)) (Opid.Map.bindings side)

let window_eq (a : Windows.t) (b : Windows.t) =
  Opid.equal (fst a.pair) (fst b.pair)
  && Opid.equal (snd a.pair) (snd b.pair)
  && a.field = b.field
  && side_bindings a.rel = side_bindings b.rel
  && side_bindings a.acq = side_bindings b.acq
  && a.coord = b.coord

let race_eq (a : Windows.race) (b : Windows.race) =
  Opid.equal (fst a.race_pair) (fst b.race_pair)
  && Opid.equal (snd a.race_pair) (snd b.race_pair)
  && a.race_field = b.race_field

(* --- Properties --- *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (let* time = int_range 1 10_000 in
       let* tid = int_range 0 2 in
       let* kind = int_range 0 3 in
       let* field = int_range 0 2 in
       let cls = "P.C" in
       let name = Printf.sprintf "f%d" field in
       let op =
         match kind with
         | 0 -> Opid.read ~cls name
         | 1 -> Opid.write ~cls name
         | 2 -> Opid.enter ~cls name
         | _ -> Opid.exit ~cls name
       in
       return (Event.make ~time ~tid ~op ~target:(field + 1) ())))

(* Like [gen_ops] but with occasional injected-delay annotations, so the
   refinement paths of both implementations are exercised. *)
let gen_ops_delayed =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (let* time = int_range 1 10_000 in
       let* tid = int_range 0 2 in
       let* kind = int_range 0 3 in
       let* field = int_range 0 2 in
       let* delayed = int_range 0 9 in
       let* delay = int_range 1 400 in
       let cls = "P.C" in
       let name = Printf.sprintf "f%d" field in
       let op =
         match kind with
         | 0 -> Opid.read ~cls name
         | 1 -> Opid.write ~cls name
         | 2 -> Opid.enter ~cls name
         | _ -> Opid.exit ~cls name
       in
       let delayed_by = if delayed = 0 then delay else 0 in
       return (Event.make ~time ~tid ~op ~target:(field + 1) ~delayed_by ())))

let prop_extract_matches_reference =
  QCheck.Test.make ~name:"indexed extraction matches the naive reference"
    ~count:300
    (QCheck.make gen_ops_delayed)
    (fun events ->
      let log = mklog events in
      List.for_all
        (fun (near, cap, refine) ->
          let w1, r1 = Windows.extract ~near ~cap ~refine log in
          let w2, r2 = Naive.extract ~near ~cap ~refine log in
          List.length w1 = List.length w2
          && List.length r1 = List.length r2
          && List.for_all2 window_eq w1 w2
          && List.for_all2 race_eq r1 r2)
        (* near exercising both in- and out-of-horizon pairs; a tight cap
           exercising the bail-out; refinement on and off. *)
        [ (10_000, 15, true); (3_000, 2, true); (10_000, 15, false) ])

(* Like [gen_ops_delayed] but wide: more threads and many more addresses,
   so the parallel extractor actually gets multiple address chunks to
   shard — and each static op aliases three addresses (array-element
   style), so the global per-pair caps span chunk boundaries and the
   merge's cap replay is genuinely exercised. *)
let gen_ops_wide =
  QCheck.Gen.(
    list_size (int_range 0 150)
      (let* time = int_range 1 10_000 in
       let* tid = int_range 0 3 in
       let* kind = int_range 0 3 in
       let* addr = int_range 0 11 in
       let* delayed = int_range 0 9 in
       let* delay = int_range 1 400 in
       let field = addr mod 4 in
       let cls = "P.C" in
       let name = Printf.sprintf "f%d" field in
       let op =
         match kind with
         | 0 -> Opid.read ~cls name
         | 1 -> Opid.write ~cls name
         | 2 -> Opid.enter ~cls name
         | _ -> Opid.exit ~cls name
       in
       let delayed_by = if delayed = 0 then delay else 0 in
       return (Event.make ~time ~tid ~op ~target:(addr + 1) ~delayed_by ())))

(* One worker pool shared by every invocation of the parallel-identity
   property (retired when the test binary exits): spawning and joining up
   to 7 domains per generated case would dominate the suite's runtime. *)
let shared_pool =
  lazy
    (let p = Sherlock_util.Pool.create () in
     at_exit (fun () -> Sherlock_util.Pool.retire p);
     p)

let metrics_counters (m : Sherlock_trace.Metrics.t) =
  (m.events, m.pairs_considered, m.pairs_capped, m.windows, m.races)

let prop_parallel_extract_identical =
  QCheck.Test.make
    ~name:"parallel extraction matches sequential for any job count" ~count:120
    (QCheck.make gen_ops_wide)
    (fun events ->
      let log = mklog events in
      let pool = Lazy.force shared_pool in
      List.for_all
        (fun (near, cap, refine) ->
          let m_seq = Sherlock_trace.Metrics.create () in
          let ws, rs = Windows.extract ~near ~cap ~refine ~metrics:m_seq log in
          List.for_all
            (fun jobs ->
              let m_par = Sherlock_trace.Metrics.create () in
              let wp, rp =
                Windows.extract ~near ~cap ~refine ~metrics:m_par ~jobs ~pool
                  log
              in
              List.length ws = List.length wp
              && List.length rs = List.length rp
              && List.for_all2 window_eq ws wp
              && List.for_all2 race_eq rs rp
              && metrics_counters m_seq = metrics_counters m_par)
            [ 1; 2; 3; 4; 8 ])
        [ (10_000, 15, true); (3_000, 2, true); (10_000, 15, false) ])

(* The same identity on a generated stress log big enough that every
   chunking/cap/cache interaction actually occurs. *)
let test_parallel_extract_synth () =
  let log = Sherlock_trace.Synth.log ~seed:7 ~addrs:96 ~threads:8 ~events:20_000 () in
  (* [near] well under the log's span, so windows stay bounded and the
     near-horizon filter is part of what must match. *)
  let near = 10_000 in
  let m_seq = Sherlock_trace.Metrics.create () in
  let ws, rs = Windows.extract ~near ~metrics:m_seq log in
  let pool = Lazy.force shared_pool in
  List.iter
    (fun jobs ->
      let m_par = Sherlock_trace.Metrics.create () in
      let wp, rp = Windows.extract ~near ~metrics:m_par ~jobs ~pool log in
      Alcotest.(check int)
        (Printf.sprintf "windows at jobs=%d" jobs)
        (List.length ws) (List.length wp);
      Alcotest.(check int)
        (Printf.sprintf "races at jobs=%d" jobs)
        (List.length rs) (List.length rp);
      Alcotest.(check bool)
        (Printf.sprintf "window lists identical at jobs=%d" jobs)
        true
        (List.for_all2 window_eq ws wp);
      Alcotest.(check bool)
        (Printf.sprintf "race lists identical at jobs=%d" jobs)
        true
        (List.for_all2 race_eq rs rp);
      Alcotest.(check bool)
        (Printf.sprintf "metrics identical at jobs=%d" jobs)
        true
        (metrics_counters m_seq = metrics_counters m_par))
    [ 2; 4; 8 ]

(* --- Stream scan and summary sides against their direct definitions --- *)

let scan_ops =
  let cls = "P.C" in
  [| Opid.read ~cls "f"; Opid.write ~cls "f"; Opid.read ~cls "fProp";
     Opid.write ~cls "fProp" |]

(* One address's accesses as same-tid runs — a worker's private cell, a
   spin-read flag — broken by gaps, with same-timestamp ties inside runs.
   A quarter of the addresses are touched by one thread only.  Each
   event's [target] is its position, which the scan ignores and the
   comparison uses to tell events apart. *)
let gen_address =
  QCheck.Gen.(
    let* single = int_range 0 3 in
    let* runs =
      list_size (int_range 1 8)
        (let* tid = int_range 0 3 in
         let* gap = int_range 0 3_000 in
         let* steps =
           list_size (int_range 1 40)
             (pair (int_range 0 20) (int_range 0 (Array.length scan_ops - 1)))
         in
         return (tid, gap, steps))
    in
    let time = ref 0 and pos = ref 0 in
    let events =
      List.concat_map
        (fun (tid, gap, steps) ->
          time := !time + gap;
          List.map
            (fun (dt, o) ->
              time := !time + dt;
              incr pos;
              Event.make ~time:!time
                ~tid:(if single = 0 then 0 else tid)
                ~op:scan_ops.(o) ~target:!pos ())
            steps)
        runs
    in
    return (Array.of_list events))

(* Scan a sequence of addresses against one set of cap counters, so caps
   reached on one address carry over to the next; the trace records
   every emission and cap decision in order. *)
let scan_trace scan ~near ~cap addrs =
  let pair_counts = Hashtbl.create 16 in
  let trace = ref [] in
  List.iteri
    (fun ai accesses ->
      scan ~near ~cap ~pair_counts
        ~on_capped:(fun () -> trace := `Capped ai :: !trace)
        ~emit:(fun (a : Event.t) (b : Event.t) ->
          trace := `Emit (ai, a.target, b.target) :: !trace)
        accesses)
    addrs;
  let counts =
    List.sort compare
      (Hashtbl.fold
         (fun ((x : Opid.t), (y : Opid.t)) r acc ->
           if !r > 0 then (Opid.to_string x, Opid.to_string y, !r) :: acc else acc)
         pair_counts [])
  in
  (List.rev !trace, counts)

let prop_stream_scan_matches_nested =
  QCheck.Test.make ~name:"stream scan matches the nested-loop scan" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) gen_address))
    (fun addrs ->
      List.for_all
        (fun (near, cap) ->
          scan_trace Windows.scan_address ~near ~cap addrs
          = scan_trace Oracle.scan_address ~near ~cap addrs)
        (* a [near] cutting inside runs, one cutting between runs, one past
           the whole log; caps that end an address early and one that
           rarely binds *)
        [ (40, 1); (400, 3); (5_000, 2); (1_000_000, 15) ])

(* Logs of single-thread runs with distinct timestamps, so a span of
   exactly [l] events is [times.(s), times.(s + l - 1)].  The first run
   is long enough for its thread to get an occurrence summary; the
   others are short, so some threads stay below the summary threshold. *)
let gen_run_log =
  QCheck.Gen.(
    let ops =
      let cls = "P.C" in
      [| Opid.read ~cls "f"; Opid.write ~cls "f"; Opid.read ~cls "g";
         Opid.write ~cls "g"; Opid.enter ~cls "m"; Opid.exit ~cls "m" |]
    in
    let run lens =
      let* tid = int_range 0 2 in
      let* steps =
        list_size lens (pair (int_range 1 3) (int_range 0 (Array.length ops - 1)))
      in
      return (tid, steps)
    in
    let* first = run (int_range Windows.summary_min_events (Windows.summary_min_events + 64)) in
    let* rest = list_size (int_range 0 5) (run (int_range 1 80)) in
    let runs = first :: rest in
    let time = ref 0 in
    return
      (List.concat_map
         (fun (tid, steps) ->
           List.map
             (fun (dt, o) ->
               time := !time + dt;
               let op = ops.(o) in
               Event.make ~time:!time ~tid ~op ~target:(1 + (o / 2)) ())
             steps)
         runs))

let prop_summary_sides_match_fold =
  QCheck.Test.make ~name:"summary span sides match the fold" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_run_log (list_size (int_range 0 20) (pair nat nat))))
    (fun (events, probes) ->
      let log = mklog events in
      let sides = Windows.sides log in
      let same ~tid ~lo ~hi =
        side_bindings (Windows.span_side sides ~tid ~lo ~hi)
        = side_bindings (Oracle.span_side log ~tid ~lo ~hi)
        || QCheck.Test.fail_reportf "tid %d, span [%d, %d]: %s" tid lo hi
             (match Windows.summary_threshold sides ~tid with
             | Some d -> Printf.sprintf "summary of %d ops" d
             | None -> "no summary")
      in
      let summarized = ref 0 in
      List.for_all
        (fun tid ->
          let times = (Index.thread (Log.index log) tid).times in
          let n = Array.length times in
          let span s l = (times.(s), times.(s + l - 1)) in
          (* Arbitrary spans before the summary exists, some empty or
             reversed; then whole-thread spans, the second of which has
             folded more than the thread's length and so builds it on a
             long thread. *)
          let early =
            List.for_all
              (fun (x, y) ->
                let lo = x mod (times.(n - 1) + 2) and hi = y mod (times.(n - 1) + 2) in
                same ~tid ~lo ~hi)
              probes
          in
          let whole =
            same ~tid ~lo:times.(0) ~hi:times.(n - 1)
            && same ~tid ~lo:times.(0) ~hi:times.(n - 1)
          in
          match Windows.summary_threshold sides ~tid with
          | None when n >= Windows.summary_min_events ->
            QCheck.Test.fail_reportf "tid %d: %d events and no summary" tid n
          | None -> early && whole
          | Some d ->
            (* Spans of d-1 .. d+2 events at every start slot: both sides
               of the fold/summary threshold. *)
            let around =
              List.for_all
                (fun l ->
                  l < 1 || l > n
                  || List.for_all
                       (fun s ->
                         if l > d then incr summarized;
                         let lo, hi = span s l in
                         same ~tid ~lo ~hi)
                       (List.init (n - l + 1) Fun.id))
                [ d - 1; d; d + 1; d + 2 ]
            in
            early && whole && around)
        (List.sort_uniq compare (List.map (fun (e : Event.t) -> e.tid) events))
      (* The long first run has more events than the 6 ops, so spans
         above its threshold exist and the summary path ran. *)
      && !summarized > 0)

(* Long single-thread runs with frames and injected delays, across a few
   addresses: the full extraction against the naive reference, and the
   sharded extraction against the sequential one. *)
let gen_run_log_delayed =
  QCheck.Gen.(
    let* events = gen_run_log in
    let* marks = list_repeat (List.length events) (pair (int_range 0 12) (int_range 1 300)) in
    return
      (List.map2
         (fun (e : Event.t) (m, delay) ->
           if m = 0 then { e with delayed_by = delay } else e)
         events marks))

let prop_long_runs_extract_matches =
  QCheck.Test.make
    ~name:"extraction over long single-thread runs matches the reference" ~count:60
    (QCheck.make gen_run_log_delayed)
    (fun events ->
      let log = mklog events in
      let pool = Lazy.force shared_pool in
      List.for_all
        (fun (near, cap, refine) ->
          let m_seq = Sherlock_trace.Metrics.create () in
          let ws, rs = Windows.extract ~near ~cap ~refine ~metrics:m_seq log in
          let wn, rn = Naive.extract ~near ~cap ~refine log in
          List.length ws = List.length wn
          && List.length rs = List.length rn
          && List.for_all2 window_eq ws wn
          && List.for_all2 race_eq rs rn
          && List.for_all
               (fun jobs ->
                 let m_par = Sherlock_trace.Metrics.create () in
                 let wp, rp =
                   Windows.extract ~near ~cap ~refine ~metrics:m_par ~jobs ~pool log
                 in
                 List.length ws = List.length wp
                 && List.length rs = List.length rp
                 && List.for_all2 window_eq ws wp
                 && List.for_all2 race_eq rs rp
                 && metrics_counters m_seq = metrics_counters m_par)
               [ 2; 3; 5; 8 ])
        [ (1_000_000, 15, true); (60, 2, true); (1_000_000, 15, false) ])

(* The scan's work is bounded by its output, not by pairs of accesses: a
   thread spinning 50k times on a flag that another thread writes three
   times.  The (Write, Write) pair never occurs (one writer), so the
   address never caps out; a nested loop over later accesses would walk
   about n^2/2 of them. *)
let test_scan_steps_bound () =
  let r = Opid.read ~cls:"C" "ready" and w = Opid.write ~cls:"C" "ready" in
  let n = 50_000 in
  let events =
    List.init n (fun i -> ev (10 * i) 0 r)
    @ List.map (fun t -> ev t 1 w) [ 5; (5 * n) + 5; (10 * n) - 5 ]
  in
  let log = mklog events in
  let steps = Sherlock_telemetry.Metrics.counter "windows.scan.steps" in
  let before = Sherlock_telemetry.Metrics.Counter.value steps in
  let m = Sherlock_trace.Metrics.create () in
  ignore (Windows.extract ~metrics:m log);
  let used = Sherlock_telemetry.Metrics.Counter.value steps - before in
  check Alcotest.int "both cross pairs capped" 30 m.pairs_considered;
  check Alcotest.bool
    (Printf.sprintf "%d scan steps <= 4 x %d accesses" used (n + 3))
    true
    (used <= 4 * (n + 3))

let test_synth_deterministic () =
  let a = Sherlock_trace.Synth.log ~seed:3 ~addrs:32 ~threads:4 ~events:5_000 () in
  let b = Sherlock_trace.Synth.log ~seed:3 ~addrs:32 ~threads:4 ~events:5_000 () in
  Alcotest.(check int) "same length" (Log.length a) (Log.length b);
  Alcotest.(check bool) "same events" true (a.events = b.events);
  let c = Sherlock_trace.Synth.log ~seed:4 ~addrs:32 ~threads:4 ~events:5_000 () in
  Alcotest.(check bool) "seed matters" true (a.events <> c.events)

let prop_windows_no_crash =
  QCheck.Test.make ~name:"window extraction total on random logs" ~count:200
    (QCheck.make gen_ops)
    (fun events ->
      let log = mklog events in
      let windows, races = Windows.extract log in
      List.length windows >= 0 && List.length races >= 0)

let prop_window_sides_nonempty =
  QCheck.Test.make ~name:"windows have a possible release and acquire" ~count:200
    (QCheck.make gen_ops)
    (fun events ->
      let log = mklog events in
      let windows, _ = Windows.extract log in
      List.for_all
        (fun (w : Windows.t) ->
          (not (Opid.Map.is_empty w.rel))
          && (not (Opid.Map.is_empty w.acq))
          && Opid.Map.exists (fun (o : Opid.t) _ -> o.kind <> Opid.Read) w.rel
          && Opid.Map.exists (fun (o : Opid.t) _ -> o.kind <> Opid.Write) w.acq)
        windows)

let prop_log_sorted =
  QCheck.Test.make ~name:"logs are time sorted" ~count:200 (QCheck.make gen_ops)
    (fun events ->
      let log = mklog events in
      let ok = ref true in
      Array.iteri
        (fun i (e : Event.t) ->
          if i > 0 && log.events.(i - 1).time > e.time then ok := false)
        log.events;
      !ok)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "trace"
    [
      ( "opid",
        [
          Alcotest.test_case "identity" `Quick test_opid_identity;
          Alcotest.test_case "kinds" `Quick test_opid_kinds;
          Alcotest.test_case "system classification" `Quick test_opid_system;
          Alcotest.test_case "name validation" `Quick test_opid_name_validation;
          Alcotest.test_case "rendering" `Quick test_opid_strings;
          Alcotest.test_case "counterpart" `Quick test_opid_counterpart;
        ] );
      ( "log",
        [
          Alcotest.test_case "sorting" `Quick test_log_sorting;
          Alcotest.test_case "queries" `Quick test_log_queries;
          Alcotest.test_case "empty is fresh" `Quick test_log_empty_fresh;
          Alcotest.test_case "first delay earliest" `Quick test_first_delay_earliest;
          Alcotest.test_case "first delay bounds" `Quick test_first_delay_bounds;
        ] );
      ( "durations",
        [
          Alcotest.test_case "pairing" `Quick test_durations_pairing;
          Alcotest.test_case "nested" `Quick test_durations_nested;
          Alcotest.test_case "delayed frames skipped" `Quick
            test_durations_skip_delayed_frames;
          Alcotest.test_case "cv percentile" `Quick test_durations_cv_percentile;
        ] );
      ( "windows",
        [
          Alcotest.test_case "basic" `Quick test_window_basic;
          Alcotest.test_case "near filter" `Quick test_window_near_filter;
          Alcotest.test_case "same thread" `Quick test_window_same_thread_excluded;
          Alcotest.test_case "read/read" `Quick test_window_read_read_excluded;
          Alcotest.test_case "cap" `Quick test_window_cap;
          Alcotest.test_case "race: all writes" `Quick test_window_race_all_writes;
          Alcotest.test_case "race: all reads" `Quick test_window_race_all_reads;
          Alcotest.test_case "method prevents race" `Quick test_window_method_prevents_race;
          Alcotest.test_case "open frame acquires" `Quick test_window_open_frame_acquire;
          Alcotest.test_case "progressed frame excluded" `Quick
            test_window_progressed_frame_excluded;
          Alcotest.test_case "occurrence counts" `Quick test_window_occurrence_counts;
          Alcotest.test_case "refinement: propagated" `Quick test_refinement_propagated;
          Alcotest.test_case "refinement: not propagated" `Quick
            test_refinement_not_propagated;
          Alcotest.test_case "refinement off" `Quick test_refinement_off;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "file save/load" `Quick test_trace_io_file;
          Alcotest.test_case "bad magic" `Quick test_trace_io_bad_magic;
          Alcotest.test_case "malformed line position" `Quick
            test_trace_io_malformed_line_position;
          Alcotest.test_case "rejects spaces" `Quick test_trace_io_rejects_spaces;
        ] );
      ( "trace_bin",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_bin_roundtrip;
          Alcotest.test_case "file autodetect" `Quick test_trace_bin_file_autodetect;
          Alcotest.test_case "truncation positioned" `Quick
            test_trace_bin_truncation_positioned;
          Alcotest.test_case "corruption positioned" `Quick
            test_trace_bin_corruption_positioned;
        ] );
      ( "parallel_extract",
        [
          Alcotest.test_case "synth log identity" `Quick
            test_parallel_extract_synth;
          Alcotest.test_case "synth deterministic" `Quick
            test_synth_deterministic;
          Alcotest.test_case "scan steps bounded by output" `Quick
            test_scan_steps_bound;
        ] );
      ( "properties",
        qcheck
          [ prop_windows_no_crash; prop_window_sides_nonempty; prop_log_sorted;
            prop_trace_io_roundtrip; prop_trace_formats_roundtrip;
            prop_extract_matches_reference; prop_parallel_extract_identical;
            prop_stream_scan_matches_nested; prop_summary_sides_match_fold;
            prop_long_runs_extract_matches ] );
    ]

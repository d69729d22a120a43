(* Tests for the benchmark corpus: every application's unit tests must run
   to completion in the simulator (assertions inside them check their own
   functional behaviour), traces must be non-trivial, and inference on
   each app must reach paper-shaped quality levels. *)

open Sherlock_core
open Sherlock_corpus
open Sherlock_sim

let check = Alcotest.check

let apps = Registry.all ()

let test_registry_complete () =
  check Alcotest.int "eight applications" 8 (List.length apps);
  List.iteri
    (fun i (a : App.t) ->
      check Alcotest.string "ids in order" (Printf.sprintf "App-%d" (i + 1)) a.id)
    apps

let test_registry_find () =
  check Alcotest.string "by id" "RestSharp" (Registry.find "App-6").name;
  check Alcotest.string "by name" "App-6" (Registry.find "restsharp").id;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Registry.find "nope"))

let test_metadata_sane () =
  List.iter
    (fun (a : App.t) ->
      check Alcotest.bool (a.id ^ " has tests") true (List.length a.tests > 0);
      check Alcotest.bool (a.id ^ " has truth") true
        (List.length a.truth.syncs > 0);
      check Alcotest.bool (a.id ^ " loc positive") true (a.loc > 0))
    apps

(* Every unit test must complete under several seeds without deadlock or
   assertion failure — the corpus is also a stress test of the simulator. *)
let test_all_tests_run () =
  List.iter
    (fun (a : App.t) ->
      List.iter
        (fun (name, body) ->
          List.iter
            (fun seed ->
              try ignore (Runtime.run ~seed ~instrument:(Runtime.tracing ()) body)
              with e ->
                Alcotest.failf "%s/%s seed %d raised %s" a.id name seed
                  (Printexc.to_string e))
            [ 1; 7; 1234 ])
        a.tests)
    apps

let test_traces_nontrivial () =
  List.iter
    (fun (a : App.t) ->
      let logs = Orchestrator.run_test_logs (App.subject a) in
      List.iter
        (fun (log : Sherlock_trace.Log.t) ->
          check Alcotest.bool (a.id ^ " events") true (Sherlock_trace.Log.length log > 5);
          check Alcotest.bool (a.id ^ " multithreaded") true (log.threads >= 2))
        logs)
    apps

let test_workload_helpers () =
  ignore
    (Runtime.run (fun () ->
         let c = Heap.cell ~cls:"W.C" ~field:"x" 3 in
         check Alcotest.int "poll returns value" 3 (Workload.poll c 4);
         Workload.chores ~cls:"W.C" 3;
         Heap.poke c 9;
         Workload.await_untraced c (fun v -> v = 9)))

let test_chores_are_low_variance () =
  let log =
    Runtime.run ~instrument:(Runtime.tracing ()) (fun () ->
        Workload.chores ~cls:"W.C" 8)
  in
  let d = Sherlock_trace.Durations.create () in
  Sherlock_trace.Durations.record_log d log;
  let cv = Sherlock_trace.Durations.cv d "W.C::FormatValue" in
  check Alcotest.bool "near constant" true (cv < 0.5)

(* Inference quality gates, intentionally loose: the exact counts are
   recorded in EXPERIMENTS.md; these guard against wholesale regressions. *)
let infer_app (a : App.t) =
  let result = Orchestrator.infer (App.subject a) in
  Report.classify a.truth result.final

let test_inference_quality () =
  let total_inferred = ref 0 and total_correct = ref 0 in
  List.iter
    (fun (a : App.t) ->
      let r = infer_app a in
      total_inferred := !total_inferred + Report.num_inferred r;
      total_correct := !total_correct + Report.num_correct r;
      check Alcotest.bool (a.id ^ " infers something") true (Report.num_inferred r > 3);
      (* Data-racy and instrumentation-error misclassifications are part of
         the corpus design (paper Table 2); plain false positives must not
         dominate the true synchronizations. *)
      check Alcotest.bool (a.id ^ " correct dominates plain FPs") true
        (Report.num_correct r >= Report.count r Report.Not_sync))
    apps;
  let precision = float !total_correct /. float !total_inferred in
  check Alcotest.bool "overall precision ~paper" true (precision >= 0.6);
  check Alcotest.bool "overall scale" true (!total_correct >= 60)

let test_designed_misclassifications () =
  (* App-1 carries the corpus's instrumentation-error design; App-1/7 carry
     data races; App-5 the Dispose misses. *)
  let r1 = infer_app (Registry.find "App-1") in
  check Alcotest.bool "App-1 data-racy" true (Report.count r1 Report.Data_racy >= 1);
  let r5 = infer_app (Registry.find "App-5") in
  let dispose_misses =
    List.filter
      (fun (e : Ground_truth.entry) -> e.category = Ground_truth.Dispose)
      r5.missed
  in
  check Alcotest.bool "App-5 dispose misses" true (List.length dispose_misses >= 2)

let test_racy_apps_declare_races () =
  List.iter
    (fun id ->
      let a = Registry.find id in
      check Alcotest.bool (id ^ " declares races") true
        (List.length a.truth.racy_fields > 0))
    [ "App-1"; "App-3"; "App-5"; "App-6"; "App-7" ]

let test_unsafe_api_flags () =
  check Alcotest.bool "App-6 unsafe" true (Registry.find "App-6").uses_unsafe_apis;
  check Alcotest.bool "App-7 unsafe" true (Registry.find "App-7").uses_unsafe_apis;
  check Alcotest.bool "App-2 safe" false (Registry.find "App-2").uses_unsafe_apis

(* Warm starts are a pure optimization: every app must produce the
   identical verdict list (down to probabilities) whether the encoder
   state lives across rounds or starts fresh each round.  Compared in
   printed form — structural equality would be fooled by last-bit float
   differences that the renderer rounds away. *)
let show_verdicts vs =
  String.concat ";" (List.map (fun v -> Format.asprintf "%a" Verdict.pp v) vs)

let digest vs = Digest.to_hex (Digest.string (show_verdicts vs))

let test_lp_paths_equivalent () =
  List.iter
    (fun (a : App.t) ->
      let final config = (Orchestrator.infer ~config (App.subject a)).final in
      let warm = final Config.default in
      let cold = final { Config.default with use_warm_start = false } in
      check Alcotest.string (a.id ^ " warm = cold") (show_verdicts cold)
        (show_verdicts warm))
    apps

(* Final-verdict digests pinned when the one-shot encoder, the
   incremental encoder, and the dense engine still coexisted and agreed
   on every entry below.  They guard the single remaining LP path: a
   digest may change only with a CHANGES.md entry saying why.  Columns:
   default config, warm starts off, accumulation off, soft Single Role. *)
let pinned_corpus =
  [
    ( "App-1",
      [ "6d90a1e5b1f4fa3c07ed8e9a0da05777"; "6d90a1e5b1f4fa3c07ed8e9a0da05777";
        "c025ec4638ebeb7889dd8dec446586b6"; "6d90a1e5b1f4fa3c07ed8e9a0da05777" ] );
    ( "App-2",
      [ "2689ee88fb9a8fa8f63bd7d2171c3a74"; "2689ee88fb9a8fa8f63bd7d2171c3a74";
        "fd65c231254660e073be687d6db94b15"; "2689ee88fb9a8fa8f63bd7d2171c3a74" ] );
    ( "App-3",
      [ "b80690fa3427bf0af21e26e6007510cf"; "b80690fa3427bf0af21e26e6007510cf";
        "442082f69ab525981bfbd63e67eb7738"; "b80690fa3427bf0af21e26e6007510cf" ] );
    ( "App-4",
      [ "4d4fc8f63120928644032f9b27c5fa31"; "4d4fc8f63120928644032f9b27c5fa31";
        "7d9bc64318c8ea226a8f419ff46f1583"; "4d4fc8f63120928644032f9b27c5fa31" ] );
    ( "App-5",
      [ "0f20f861a86e1f582921fd21b6399525"; "0f20f861a86e1f582921fd21b6399525";
        "306c45187ee312d155f2487030301125"; "cd0f9bb21e454f3841ed871793c10faa" ] );
    ( "App-6",
      [ "82446c3f88e87c56a5bfa66f31166cac"; "82446c3f88e87c56a5bfa66f31166cac";
        "c0e431afab00eb989e901c33de72c718"; "82446c3f88e87c56a5bfa66f31166cac" ] );
    ( "App-7",
      [ "f149d059e4ebef5f5e18afd8c770b19f"; "f149d059e4ebef5f5e18afd8c770b19f";
        "cf54591d2d20e6bd209c6dcdea4bebc8"; "f149d059e4ebef5f5e18afd8c770b19f" ] );
    ( "App-8",
      [ "1d5f7055344d2cc828676f40a2b235f5"; "1d5f7055344d2cc828676f40a2b235f5";
        "25801ee06bff7cc503bf298a88195bb6"; "1d5f7055344d2cc828676f40a2b235f5" ] );
  ]

let test_pinned_corpus_digests () =
  let configs =
    [
      ("default", Config.default);
      ("warm starts off", { Config.default with use_warm_start = false });
      ("accumulate off", { Config.default with accumulate = false });
      ("soft single role", { Config.default with single_role_soft = true });
    ]
  in
  List.iter
    (fun (id, digests) ->
      let subject = App.subject (Registry.find id) in
      List.iter2
        (fun (name, config) expected ->
          check Alcotest.string
            (Printf.sprintf "%s %s" id name)
            expected
            (digest (Orchestrator.infer ~config subject).final))
        configs digests)
    pinned_corpus

(* The stateless [Encoder.solve] (the solve-trace path) over Synth logs
   shaped like the offline-trace benchmark's inputs: (events, seed,
   digest), pinned alongside the corpus digests above. *)
let pinned_synth =
  [
    (600, 1, "53ec37adaebc3f92b7c3d807f812fd10");
    (600, 2, "4833dffb8eb2f0c15517a1528602a84d");
    (600, 3, "31b2a2f8cd084daa31e9c072168df3c8");
    (1200, 1, "df31b8542024e776a570baa1b36b8470");
    (1200, 2, "e181d408685fbac230b09004bdd7dd62");
    (1200, 3, "06e648b88b83f96efa3968ef2f1943ef");
    (2400, 1, "31b9a0a2a93ed6556beb67eaa37547e4");
    (2400, 2, "580bcde9cb06953efac4460b9ed87f20");
    (2400, 3, "914c7a2442de2bfa43cd3e7cbdd81cde");
  ]

let test_pinned_synth_digests () =
  let config = Config.default in
  List.iter
    (fun (events, seed, expected) ->
      let log = Sherlock_trace.Synth.log ~seed ~addrs:40 ~threads:8 ~events () in
      let obs = Observations.create () in
      Observations.add_log obs ~near:config.near ~cap:config.window_cap
        ~refine:config.use_refinement log;
      check Alcotest.string
        (Printf.sprintf "synth %d events seed %d" events seed)
        expected
        (digest (fst (Encoder.solve config obs))))
    pinned_synth

(* The ≥2x corpus-wide pivot reduction is gated in the bench ("lp"
   section); here just assert the warm path actually reuses bases and
   pivots strictly less on a single app. *)
let test_warm_start_saves_pivots () =
  let stats config =
    let r = Orchestrator.infer ~config (Registry.find "App-1" |> App.subject) in
    List.fold_left
      (fun (p, s) (round : Orchestrator.round_result) ->
        (p + round.stats.lp.lp_pivots, s + round.stats.lp.lp_pivots_saved))
      (0, 0) r.rounds
  in
  let warm, saved = stats Config.default in
  let cold, _ = stats { Config.default with use_warm_start = false } in
  check Alcotest.bool
    (Printf.sprintf "warm pivots %d fewer than cold %d" warm cold)
    true (warm < cold);
  check Alcotest.bool "bases reused" true (saved > 0)

(* The encoder's phase spans (encode.sync, encode.objective, lp) account
   for the time of the [solve] spans they sit in: summed over a traced
   App-1 inference, at least 90% of [solve] is attributed to a child. *)
let test_solve_phase_spans () =
  let module Span = Sherlock_telemetry.Span in
  let c = Span.create_collector () in
  Span.set_collector (Some c);
  Fun.protect ~finally:(fun () -> Span.set_collector None) (fun () ->
      ignore (Orchestrator.infer (Registry.find "App-1" |> App.subject)));
  let spans = Span.closed_spans c in
  let dur (s : Span.closed) = s.end_s -. s.start_s in
  let solves = List.filter (fun (s : Span.closed) -> s.name = "solve") spans in
  let children =
    List.filter
      (fun (s : Span.closed) ->
        List.exists (fun (p : Span.closed) -> s.parent = Some p.id) solves)
      spans
  in
  check Alcotest.int "one solve per round" Config.default.rounds
    (List.length solves);
  check
    Alcotest.(list string)
    "phases in order"
    (List.concat_map
       (fun _ -> [ "encode.sync"; "encode.objective"; "lp" ])
       solves)
    (List.map (fun (s : Span.closed) -> s.name) children);
  let total f l = List.fold_left (fun acc s -> acc +. f s) 0.0 l in
  let covered = total dur children /. total dur solves in
  check Alcotest.bool
    (Printf.sprintf "phases cover %.1f%% of solve" (100.0 *. covered))
    true (covered >= 0.9)

let () =
  Alcotest.run "corpus"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "metadata" `Quick test_metadata_sane;
        ] );
      ( "execution",
        [
          Alcotest.test_case "all tests run (3 seeds)" `Slow test_all_tests_run;
          Alcotest.test_case "traces nontrivial" `Quick test_traces_nontrivial;
          Alcotest.test_case "workload helpers" `Quick test_workload_helpers;
          Alcotest.test_case "chores low variance" `Quick test_chores_are_low_variance;
        ] );
      ( "inference",
        [
          Alcotest.test_case "quality gates" `Slow test_inference_quality;
          Alcotest.test_case "designed misclassifications" `Slow
            test_designed_misclassifications;
          Alcotest.test_case "racy declarations" `Quick test_racy_apps_declare_races;
          Alcotest.test_case "unsafe flags" `Quick test_unsafe_api_flags;
        ] );
      ( "lp-equivalence",
        [
          Alcotest.test_case "warm/cold verdicts identical" `Slow
            test_lp_paths_equivalent;
          Alcotest.test_case "pinned corpus verdict digests" `Slow
            test_pinned_corpus_digests;
          Alcotest.test_case "pinned stateless solve digests" `Slow
            test_pinned_synth_digests;
          Alcotest.test_case "warm starts save pivots" `Slow
            test_warm_start_saves_pivots;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "solve phase spans" `Quick test_solve_phase_spans;
        ] );
    ]

(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) against the OCaml reproduction, plus a
   Bechamel microbenchmark suite for the moving parts.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table2  # one artifact
     dune exec bench/main.exe -- --list  # artifact names

   Absolute counts are smaller than the paper's (the corpus is a
   scaled-down synthetic analogue); EXPERIMENTS.md records the
   paper-vs-measured comparison and the shape criteria. *)

open Sherlock_core
open Sherlock_corpus
module Table = Sherlock_util.Table
module Opid = Sherlock_trace.Opid
module Detector = Sherlock_fasttrack.Detector
module Sync_model = Sherlock_fasttrack.Sync_model
module Tsvd = Sherlock_tsvd.Tsvd
module Json = Sherlock_provenance.Json

let apps = Registry.all ()

(* Inference results are shared by several tables; memoize per config. *)
let infer_cache : (Config.t * string, Orchestrator.result) Hashtbl.t =
  Hashtbl.create 32

let infer ?(config = Config.default) (app : App.t) =
  let key = (config, app.id) in
  match Hashtbl.find_opt infer_cache key with
  | Some r -> r
  | None ->
    let r = Orchestrator.infer ~config (App.subject app) in
    Hashtbl.add infer_cache key r;
    r

let classify ?config (app : App.t) = Report.classify app.truth (infer ?config app).final

module Sync_set = Set.Make (struct
  type t = Opid.t * Verdict.role

  let compare (o1, r1) (o2, r2) =
    match Opid.compare o1 o2 with 0 -> compare r1 r2 | c -> c
end)

(* Unique synchronization counts across applications (the paper's
   parenthesized sums): verdicts deduplicated by (operation, role). *)
let unique_counts ?config () =
  let correct = ref Sync_set.empty and total = ref Sync_set.empty in
  List.iter
    (fun app ->
      let r = classify ?config app in
      List.iter
        (fun ((v : Verdict.t), cls) ->
          total := Sync_set.add (v.op, v.role) !total;
          match cls with
          | Report.Correct _ -> correct := Sync_set.add (v.op, v.role) !correct
          | Report.Data_racy | Report.Instr_error | Report.Not_sync -> ())
        r.classified)
    apps;
  (Sync_set.cardinal !correct, Sync_set.cardinal !total)

(* ------------------------------------------------------------------ *)

let table1 () =
  let t =
    Table.create ~title:"Table 1: Applications in benchmarks"
      ~header:[ "ID"; "Name"; "LoC"; "#Stars"; "#Tests" ]
  in
  List.iter
    (fun (a : App.t) ->
      Table.add_row t
        [
          a.id; a.name;
          Printf.sprintf "%.1fK" (float a.loc /. 1000.0);
          string_of_int a.stars;
          string_of_int (List.length a.tests);
        ])
    apps;
  Table.print t

let table2 () =
  let t =
    Table.create ~title:"Table 2: SherLock inferred results after 3 rounds"
      ~header:[ "ID"; "Syncs"; "Data Racy"; "Instr. Errors"; "Not Sync" ]
  in
  let sums = Array.make 4 0 in
  List.iter
    (fun (a : App.t) ->
      let r = classify a in
      let row =
        [
          Report.num_correct r;
          Report.count r Report.Data_racy;
          Report.count r Report.Instr_error;
          Report.count r Report.Not_sync;
        ]
      in
      List.iteri (fun i v -> sums.(i) <- sums.(i) + v) row;
      Table.add_row t (a.id :: List.map string_of_int row))
    apps;
  Table.add_separator t;
  let unique, _ = unique_counts () in
  Table.add_row t
    [
      "Sum";
      Printf.sprintf "%d (%d)" sums.(0) unique;
      string_of_int sums.(1);
      string_of_int sums.(2);
      string_of_int sums.(3);
    ];
  Table.print t

let race_scores (a : App.t) model_of =
  let logs = Orchestrator.run_test_logs (App.subject a) in
  List.fold_left
    (fun (true_races, false_races) log ->
      let report = Detector.run (model_of log) log in
      match Detector.first_race report with
      | None -> (true_races, false_races)
      | Some r ->
        if Ground_truth.is_racy_field a.truth r.field then (true_races + 1, false_races)
        else (true_races, false_races + 1))
    (0, 0) logs

let table3 () =
  let t =
    Table.create
      ~title:
        "Table 3: SherLock vs manual annotation in race detection (first race per run)"
      ~header:
        [ "ID"; "True Manual_dr"; "True SherLock_dr"; "False Manual_dr";
          "False SherLock_dr" ]
  in
  let sums = Array.make 4 0 in
  List.iter
    (fun (a : App.t) ->
      let verdicts = (infer a).final in
      let mt, mf = race_scores a Sync_model.manual in
      let st, sf = race_scores a (fun _ -> Sync_model.inferred verdicts) in
      let row = [ mt; st; mf; sf ] in
      List.iteri (fun i v -> sums.(i) <- sums.(i) + v) row;
      Table.add_row t (a.id :: List.map string_of_int row))
    apps;
  Table.add_separator t;
  Table.add_row t ("Sum" :: Array.to_list (Array.map string_of_int sums));
  Table.print t

let table4 () =
  let causes =
    Ground_truth.[ Instr_error; Double_role; Dispose; Static_ctor; Other_cause ]
  in
  let idx = function
    | Ground_truth.Instr_error -> 0
    | Ground_truth.Double_role -> 1
    | Ground_truth.Dispose -> 2
    | Ground_truth.Static_ctor -> 3
    | Ground_truth.Other_cause -> 4
  in
  let false_sync = Array.make 5 0 in
  let missed_sync = Array.make 5 0 in
  let false_races = Array.make 5 0 in
  List.iter
    (fun (a : App.t) ->
      let r = classify a in
      List.iter
        (fun ((v : Verdict.t), cls) ->
          match cls with
          | Report.Correct _ | Report.Data_racy -> ()
          | Report.Instr_error | Report.Not_sync ->
            let c = Report.false_positive_cause a.truth v in
            false_sync.(idx c) <- false_sync.(idx c) + 1)
        r.classified;
      (* As in the paper (§5.5), uncategorized misses are only counted
         when they surface through a false data race; the categorized
         design cases (instrumentation, double role, dispose, statics)
         are counted directly. *)
      let other_missed_fields = Hashtbl.create 4 in
      List.iter
        (fun (e : Ground_truth.entry) ->
          if e.category <> Ground_truth.Other_cause then
            missed_sync.(idx e.category) <- missed_sync.(idx e.category) + 1)
        r.missed;
      (* SherLock_dr false races, attributed to the guard of the field. *)
      let verdicts = (infer a).final in
      let logs = Orchestrator.run_test_logs (App.subject a) in
      List.iter
        (fun log ->
          let report = Detector.run (Sync_model.inferred verdicts) log in
          List.iter
            (fun (race : Detector.race) ->
              if not (Ground_truth.is_racy_field a.truth race.field) then begin
                let c = Ground_truth.guard_cause a.truth race.field in
                false_races.(idx c) <- false_races.(idx c) + 1;
                if c = Ground_truth.Other_cause then
                  Hashtbl.replace other_missed_fields race.field ()
              end)
            report.races)
        logs;
      missed_sync.(idx Ground_truth.Other_cause) <-
        missed_sync.(idx Ground_truth.Other_cause)
        + Hashtbl.length other_missed_fields)
    apps;
  let t =
    Table.create ~title:"Table 4: Breakdown of false positives/negatives"
      ~header:[ ""; "#False Sync."; "#Missed Sync."; "#False Races" ]
  in
  List.iter
    (fun c ->
      let i = idx c in
      Table.add_row t
        [
          Ground_truth.cause_name c;
          string_of_int false_sync.(i);
          string_of_int missed_sync.(i);
          string_of_int false_races.(i);
        ])
    causes;
  Table.add_separator t;
  let sum a = Array.fold_left ( + ) 0 a in
  Table.add_row t
    [
      "Total"; string_of_int (sum false_sync); string_of_int (sum missed_sync);
      string_of_int (sum false_races);
    ];
  Table.print t

let table5 () =
  let variants =
    [
      ("SherLock", Config.default);
      ("w/o Mostly are Protected", { Config.default with use_protected = false });
      ("w/o Synchronizations are Rare", { Config.default with use_rare = false });
      ("w/o Acq-Time Varies", { Config.default with use_variation = false });
      ("w/o Mostly are Paired", { Config.default with use_paired = false });
      ("w/o Read-Acq & Write-Rel", { Config.default with use_role_property = false });
      ("w/o Single Role", { Config.default with use_single_role = false });
    ]
  in
  let t =
    Table.create ~title:"Table 5: Inference with or without certain hypothesis"
      ~header:[ ""; "#Correct"; "#Total"; "Precision" ]
  in
  List.iter
    (fun (name, config) ->
      let correct, total = unique_counts ~config () in
      let precision =
        if total = 0 then "n/a"
        else Printf.sprintf "%.0f%%" (100.0 *. float correct /. float total)
      in
      Table.add_row t [ name; string_of_int correct; string_of_int total; precision ])
    variants;
  Table.print t

let table6 () =
  let lambdas = [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0; 5.0; 10.0; 50.0; 100.0 ] in
  let t =
    Table.create ~title:"Table 6: Sensitivity of lambda (unique sums, 3 rounds)"
      ~header:("lambda" :: List.map (Printf.sprintf "%g") lambdas)
  in
  let counts =
    List.map (fun lambda -> unique_counts ~config:{ Config.default with lambda } ())
      lambdas
  in
  Table.add_row t ("#correct" :: List.map (fun (c, _) -> string_of_int c) counts);
  Table.add_row t ("#total" :: List.map (fun (_, n) -> string_of_int n) counts);
  Table.print t

let table7 () =
  let nears = [ (10_000, "0.01s"); (1_000_000, "1s"); (100_000_000, "100s") ] in
  let t =
    Table.create ~title:"Table 7: Sensitivity of Near (unique sums, 3 rounds)"
      ~header:("Near" :: List.map snd nears)
  in
  let counts =
    List.map (fun (near, _) -> unique_counts ~config:{ Config.default with near } ())
      nears
  in
  Table.add_row t ("#correct" :: List.map (fun (c, _) -> string_of_int c) counts);
  Table.add_row t ("#total" :: List.map (fun (_, n) -> string_of_int n) counts);
  Table.print t

let figure4 () =
  let settings =
    [
      ("SherLock", Config.default);
      ("no delay injection", { Config.default with use_delays = false });
      ("no accumulation", { Config.default with accumulate = false });
      ("no race removal", { Config.default with use_race_removal = false });
      ("no window refinement", { Config.default with use_refinement = false });
    ]
  in
  let max_rounds = 6 in
  let t =
    Table.create
      ~title:
        "Figure 4: correctly inferred unique synchronizations per round,\n\
         under different Perturber and feedback settings"
      ~header:
        ("setting" :: List.init max_rounds (fun i -> Printf.sprintf "run %d" (i + 1)))
  in
  List.iter
    (fun (name, base) ->
      let config = { base with Config.rounds = max_rounds } in
      (* One inference run delivers the verdicts of every prefix round. *)
      let sets = Array.make max_rounds Sync_set.empty in
      List.iter
        (fun (a : App.t) ->
          let result = infer ~config a in
          List.iter
            (fun (r : Orchestrator.round_result) ->
              let report = Report.classify a.truth r.verdicts in
              List.iter
                (fun ((v : Verdict.t), cls) ->
                  match cls with
                  | Report.Correct _ ->
                    sets.(r.round - 1) <- Sync_set.add (v.op, v.role) sets.(r.round - 1)
                  | Report.Data_racy | Report.Instr_error | Report.Not_sync -> ())
                report.classified)
            result.rounds)
        apps;
      Table.add_row t
        (name :: Array.to_list (Array.map (fun s -> string_of_int (Sync_set.cardinal s)) sets)))
    settings;
  Table.print t

let tables8_9 () =
  print_endline "Tables 8/9: inferred synchronizations per application\n";
  List.iter
    (fun (a : App.t) ->
      Report.print_sites Format.std_formatter ~app:a.name (infer a).final a.truth;
      print_newline ())
    apps

let tsvd_enhance () =
  let t =
    Table.create
      ~title:"Section 5.6: TSVD happens-before inference vs SherLock synchronizations"
      ~header:[ "ID"; "Conflicting pairs"; "TSVD HB pairs"; "SherLock-synced pairs" ]
  in
  let sums = Array.make 3 0 in
  List.iter
    (fun (a : App.t) ->
      if a.uses_unsafe_apis then begin
        let o = Tsvd.analyze (App.subject a) (infer a).final in
        let row =
          [
            List.length o.candidate_pairs; List.length o.tsvd_hb;
            List.length o.sherlock_hb;
          ]
        in
        List.iteri (fun i v -> sums.(i) <- sums.(i) + v) row;
        Table.add_row t (a.id :: List.map string_of_int row)
      end)
    apps;
  Table.add_separator t;
  Table.add_row t ("Sum" :: Array.to_list (Array.map string_of_int sums));
  Table.print t

let overhead () =
  (* Host wall-clock of the pipeline stages versus a bare run, over the
     full corpus (one round, same seeds). *)
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let run_all instrument =
    List.iter
      (fun (a : App.t) ->
        List.iteri
          (fun i (_, body) ->
            let seed =
              Orchestrator.test_seed ~base:Config.default.seed ~round:1 ~test_index:i
            in
            ignore (Sherlock_sim.Runtime.run ~seed ~instrument body))
          a.tests)
      apps
  in
  let bare = time (fun () -> run_all Sherlock_sim.Runtime.no_instrument) in
  let traced = time (fun () -> run_all (Sherlock_sim.Runtime.tracing ())) in
  let full =
    time (fun () ->
        List.iter
          (fun (a : App.t) ->
            ignore
              (Orchestrator.infer ~config:{ Config.default with rounds = 1 }
                 (App.subject a)))
          apps)
  in
  let three_rounds =
    time (fun () ->
        List.iter
          (fun (a : App.t) -> ignore (Orchestrator.infer (App.subject a)))
          apps)
  in
  let t =
    Table.create ~title:"Section 5.6: Overhead (host time over the full corpus)"
      ~header:[ "configuration"; "seconds"; "vs bare" ]
  in
  let pct x = Printf.sprintf "%+.0f%%" (100.0 *. ((x /. bare) -. 1.0)) in
  Table.add_row t [ "bare execution"; Printf.sprintf "%.3f" bare; "-" ];
  Table.add_row t [ "tracing"; Printf.sprintf "%.3f" traced; pct traced ];
  Table.add_row t
    [ "tracing + solving (1 round)"; Printf.sprintf "%.3f" full; pct full ];
  Table.add_row t
    [
      "3 rounds with delay injection"; Printf.sprintf "%.3f" three_rounds;
      pct (three_rounds /. 3.0) ^ " per round";
    ];
  Table.print t

(* Extension ablations: parameters the paper fixes without sweeping
   (window cap, verdict threshold, delay length) and the two documented
   follow-ups (soft Single-Role, probabilistic delay injection). *)
let ablation_extras () =
  let sweep title rows =
    let t = Table.create ~title ~header:[ "configuration"; "#Correct"; "#Total" ] in
    List.iter
      (fun (name, config) ->
        let correct, total = unique_counts ~config () in
        Table.add_row t [ name; string_of_int correct; string_of_int total ])
      rows;
    Table.print t
  in
  sweep "Extension: window cap per static location pair (paper fixes 15)"
    (List.map
       (fun cap ->
         (Printf.sprintf "cap = %d" cap, { Config.default with window_cap = cap }))
       [ 1; 5; 15; 50 ]);
  sweep "Extension: verdict probability threshold (paper reads variables 'assigned 1')"
    (List.map
       (fun threshold ->
         (Printf.sprintf "threshold = %.2f" threshold, { Config.default with threshold }))
       [ 0.5; 0.9; 0.99 ]);
  sweep "Extension: injected delay length (paper fixes 100 ms)"
    (List.map
       (fun delay_us ->
         (Printf.sprintf "delay = %d ms" (delay_us / 1000), { Config.default with delay_us }))
       [ 10_000; 100_000; 500_000 ]);
  sweep "Extension: Single-Role as a soft constraint (paper 5.5 future work)"
    [
      ("hard (default)", Config.default);
      ("soft", { Config.default with single_role_soft = true });
      ("off", { Config.default with use_single_role = false });
    ];
  sweep "Extension: probabilistic delay injection (paper footnote 1)"
    [
      ("p = 1.0 (default)", Config.default);
      ("p = 0.5", { Config.default with delay_probability = 0.5 });
      ("p = 0.2", { Config.default with delay_probability = 0.2 });
    ]

(* ------------------------------------------------------------------ *)

(* Stress workload for the perf target: several worker threads hammering
   a small set of lock-protected fields, plus unprotected flag traffic —
   enough conflicting-access pairs to expose any O(pairs x events)
   rescanning in window extraction.  Its trace (~17k events) is an order
   of magnitude larger than any corpus test's. *)
let stress ~workers ~iters () =
  let open Sherlock_sim in
  let cls = "Stress.Data" in
  let fields =
    Array.init 8 (fun i -> Heap.cell ~cls ~field:(Printf.sprintf "f%d" i) 0)
  in
  let flag = Heap.cell ~cls ~field:"flag" 0 in
  let lock = Monitor.create () in
  let threads =
    List.init workers (fun w ->
        Threadlib.create ~delegate:(cls, Printf.sprintf "Worker%d" w) (fun () ->
            for i = 1 to iters do
              let f = (i + w) mod Array.length fields in
              Monitor.with_lock lock (fun () ->
                  let v = Heap.read fields.(f) in
                  Heap.write fields.(f) (v + 1));
              if i mod 7 = 0 then Heap.write flag i else ignore (Heap.read flag)
            done))
  in
  List.iter Threadlib.start threads;
  List.iter Threadlib.join threads

(* ------------------------------------------------------------------ *)
(* Gates: each returns its measured fields and its named checks; the
   harness in gate.ml prints, records and fails. *)

let num x = Json.Num x

let count n = Json.Num (float n)

let digest verdicts =
  String.concat ";" (List.map (Format.asprintf "%a" Verdict.pp) verdicts)

let digests results = List.map (fun (r : Orchestrator.result) -> digest r.final) results

let perf () =
  Gate.run ~section:"perf" ~title:"Perf: extraction throughput and corpus wall-clock"
  @@ fun () ->
  let module Log = Sherlock_trace.Log in
  let module Tm = Sherlock_telemetry.Metrics in
  let module Tspan = Sherlock_telemetry.Span in
  let extract ~reps log () =
    for _ = 1 to reps do
      ignore (Sherlock_trace.Windows.extract log)
    done
  in
  (* [Windows.extract] throughput after a warmup, against the seed
     commit's (pre-index full-scan) figure on the same workload. *)
  let throughput name log ~reps =
    extract ~reps:1 log ();
    let n = Log.length log in
    let tp = float n *. float reps /. Gate.time (extract ~reps log) in
    let seed = Gate.baseline "perf" ("seed_" ^ name ^ "_events_per_sec") in
    [
      ("events", count n);
      ("events_per_sec", num tp);
      ("speedup_vs_seed", num (tp /. seed));
    ]
  in
  let logs =
    List.concat_map
      (fun (a : App.t) ->
        List.map (fun l -> (a.id, l)) (Orchestrator.run_test_logs (App.subject a)))
      apps
  in
  let largest_id, largest =
    List.fold_left
      (fun (bi, bl) (i, l) -> if Log.length l > Log.length bl then (i, l) else (bi, bl))
      (List.hd logs) (List.tl logs)
  in
  let stress_log =
    Sherlock_sim.Runtime.run ~seed:7
      ~instrument:(Sherlock_sim.Runtime.tracing ())
      (stress ~workers:6 ~iters:400)
  in
  let largest_fields = throughput "largest" largest ~reps:50 in
  let stress_fields = throughput "stress" stress_log ~reps:10 in
  (* Telemetry overhead on the hot path: the stress-log extraction with
     the metrics registry enabled and a span collector installed, paired
     trial by trial with the same extraction with both off. *)
  let[@warning "-8"] [ off; on ] =
    Gate.interleave ~k:9
      [
        (fun () ->
          Tm.set_enabled false;
          Tspan.set_collector None;
          Gate.time (extract ~reps:10 stress_log) /. 10.0);
        (fun () ->
          Tspan.set_collector (Some (Tspan.create_collector ()));
          Tm.set_enabled true;
          Gate.time (extract ~reps:10 stress_log) /. 10.0);
      ]
  in
  Tm.set_enabled false;
  Tspan.set_collector None;
  Tm.reset Tm.default;
  let overhead = List.map2 ( /. ) on off in
  let pct r = num (100.0 *. (r -. 1.0)) in
  (* Two-plus domains are requested, but the orchestrator clamps to the
     host's core count (oversubscription is strictly slower under OCaml
     5's stop-the-world minor GC), so on a single-core host this measures
     the clamp's parity with the sequential path; [cores] is recorded
     alongside so the number can be read correctly. *)
  let cores = Domain.recommended_domain_count () in
  let domains = max 2 cores in
  let time_infer parallelism () =
    let config = { Config.default with parallelism } in
    Gate.time (fun () ->
        List.iter
          (fun (a : App.t) -> ignore (Orchestrator.infer ~config (App.subject a)))
          apps)
  in
  let[@warning "-8"] [ sequential; parallel ] =
    Gate.interleave ~k:3 [ time_infer 1; time_infer domains ]
  in
  ( [
      ("largest_corpus_log", Json.Obj (("id", Json.Str largest_id) :: largest_fields));
      ("stress", Json.Obj stress_fields);
      ( "telemetry",
        Json.Obj
          [
            ("off_s", num (Gate.best off));
            ("on_s", num (Gate.best on));
            ("overhead_pct_lower_quartile", pct (Gate.lower_quartile overhead));
            ("overhead_pct_median", pct (Gate.median overhead));
          ] );
      ( "orchestrator",
        Json.Obj
          [
            ("sequential_s", num (Gate.best sequential));
            ("parallel_s", num (Gate.best parallel));
            ("domains", count domains);
            ("cores", count cores);
          ] );
    ],
    [
      ( "telemetry overhead <= 5% (on/off lower quartile)",
        Gate.within ~limit:1.05 overhead );
    ] )

(* LP engine gate: the full corpus inferred and classified (the Table 2
   pipeline) with cross-round warm starts on and off, sequentially so the
   timing compares solver work rather than domain scheduling.  Warm
   starts must keep the verdicts identical and use at most half the
   corpus pivots of the cold arm when it still ran the one-shot encoder
   with presolve ([cold_pivots] in baseline.json; the cold arm now runs
   the same incremental encoder on a fresh state and pivots far less, so
   halving the live cold count would be a moving, easier target).  Warm
   pivots and warm time must also stay within slack of the checked-in
   [warm_pivots] and [table2_s].  The basis-engine counters and the live
   warm/cold pivot ratio are recorded, not gated. *)
let lp_gate () =
  Gate.run ~section:"lp" ~title:"LP engine: warm starts vs cold solves (8-app corpus)"
  @@ fun () ->
  let corpus config () =
    List.map
      (fun (a : App.t) ->
        let r = Orchestrator.infer ~config (App.subject a) in
        ignore (Report.classify a.truth r.final);
        r)
      apps
  in
  let config = { Config.default with parallelism = 1 } in
  let warm = ref [] and cold = ref [] in
  let[@warning "-8"] [ warm_s; cold_s ] =
    Gate.interleave ~k:7
      [
        (fun () -> Gate.calibrated (fun () -> warm := corpus config ()));
        (fun () ->
          Gate.calibrated (fun () ->
              cold := corpus { config with use_warm_start = false } ()));
      ]
  in
  let fold_lp f init results =
    List.fold_left
      (fun acc (r : Orchestrator.result) ->
        List.fold_left
          (fun acc (rr : Orchestrator.round_result) -> f acc rr.stats.lp)
          acc r.rounds)
      init results
  in
  let pivots results = fold_lp (fun acc l -> acc + l.Encoder.lp_pivots) 0 results in
  let warm_pivots = pivots !warm and cold_pivots = pivots !cold in
  let base = Gate.baseline "lp" in
  let cold_base = base "cold_pivots" and pivots_base = base "warm_pivots" in
  let time_base = base "table2_s" in
  ( [
      ("warm_s", num (Gate.median warm_s));
      ("cold_s", num (Gate.median cold_s));
      ("warm_pivots", count warm_pivots);
      ("cold_pivots", count cold_pivots);
      ("pivot_ratio", num (float cold_pivots /. float (max 1 warm_pivots)));
      ( "refactors",
        count (fold_lp (fun acc l -> acc + l.Encoder.lp_refactors) 0 !warm) );
      ("eta_len", count (fold_lp (fun acc l -> max acc l.Encoder.lp_eta_len) 0 !warm));
      ( "bound_rows_saved",
        count (fold_lp (fun acc l -> acc + l.Encoder.lp_bound_rows_saved) 0 !warm) );
    ],
    [
      ( "verdicts identical with warm starts on and off",
        digests !warm = digests !cold );
      ( Printf.sprintf "warm pivots <= half of the cold baseline %.0f" cold_base,
        float warm_pivots *. 2.0 <= cold_base );
      ( Printf.sprintf "warm pivots <= %.0f x 1.15 + 16" pivots_base,
        float warm_pivots <= (pivots_base *. 1.15) +. 16.0 );
      ( Printf.sprintf "warm time <= %.3f x 1.5 + 0.25 s (calibrated, lower quartile)"
          time_base,
        Gate.within ~limit:((time_base *. 1.5) +. 0.25) warm_s );
    ] )

(* Binary-format gate (DESIGN.md "Binary trace format"): the stress log
   saved in both formats and loaded back, with the binary loader
   required to ingest at least 10x the text loader's events/s (best of
   12 interleaved loads each), and the corpus verdicts required to be
   identical whether each test log reaches the solver through a text or
   a binary round-trip on disk. *)
let format_gate () =
  Gate.run ~section:"format" ~title:"Trace format: binary vs text ingest (stress log)"
  @@ fun () ->
  let module Log = Sherlock_trace.Log in
  let module Trace_io = Sherlock_trace.Trace_io in
  let stress_log =
    Sherlock_sim.Runtime.run ~seed:7
      ~instrument:(Sherlock_sim.Runtime.tracing ())
      (stress ~workers:6 ~iters:3000)
  in
  let events = Log.length stress_log in
  let text_file = Filename.temp_file "sherlock_bench" ".trace" in
  let bin_file = Filename.temp_file "sherlock_bench" ".btrace" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ text_file; bin_file ])
  @@ fun () ->
  Trace_io.save ~format:Trace_io.Text stress_log text_file;
  Trace_io.save ~format:Trace_io.Binary stress_log bin_file;
  (* Bulk-ingest GC configuration: a 4 MiW minor heap keeps the decoded
     event records out of the promotion/write-barrier path that
     otherwise dominates both loaders equally and flattens the ratio.
     Applied identically to both formats and restored afterwards, so
     the other artifacts keep their default-GC comparability. *)
  let minor_heap_words = 4 * 1024 * 1024 in
  let saved_gc = Gc.get () in
  let text_s, bin_s =
    Fun.protect ~finally:(fun () -> Gc.set saved_gc) @@ fun () ->
    Gc.set { saved_gc with Gc.minor_heap_size = minor_heap_words };
    let load file () = Gate.time (fun () -> Trace_io.load file) in
    ignore (load text_file ()) (* warmup *);
    ignore (load bin_file ());
    let[@warning "-8"] [ text; bin ] =
      Gate.interleave ~k:12 [ load text_file; load bin_file ]
    in
    (Gate.best text, Gate.best bin)
  in
  let speedup = text_s /. bin_s in
  (* Verdict identity: every corpus test log pushed through an on-disk
     round-trip in each format before observation and solving. *)
  let solve_via format =
    List.map
      (fun (a : App.t) ->
        let obs = Observations.create () in
        List.iter
          (fun log ->
            let file = Filename.temp_file "sherlock_roundtrip" ".trace" in
            Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
            @@ fun () ->
            Trace_io.save ~format log file;
            Observations.add_log obs ~near:Config.default.near
              ~cap:Config.default.window_cap ~refine:Config.default.use_refinement
              (Trace_io.load file))
          (Orchestrator.run_test_logs (App.subject a));
        digest (fst (Encoder.solve Config.default obs)))
      apps
  in
  ( [
      ("events", count events);
      ("text_bytes", count (Unix.stat text_file).st_size);
      ("binary_bytes", count (Unix.stat bin_file).st_size);
      ("text_load_s", num text_s);
      ("binary_load_s", num bin_s);
      ("text_events_per_sec", num (float events /. text_s));
      ("binary_events_per_sec", num (float events /. bin_s));
      ("speedup", num speedup);
      ("minor_heap_words", count minor_heap_words);
    ],
    [
      ("binary ingest >= 10x text (best of 12)", speedup >= 10.0);
      ( "corpus verdicts identical via text and binary round-trips",
        solve_via Trace_io.Text = solve_via Trace_io.Binary );
    ] )

(* Robustness gate: the whole corpus is inferred under a randomized
   fault plan (crashes, a hung thread, spurious wakeups) plus the step
   watchdog, and the run must demonstrate that no single failing test
   run can kill an inference: every app completes all rounds with its
   failures reported; an injected crash and a hang-class outcome
   (deadlock or watchdog stall) both fire; apps the plan never touched
   produce the no-fault verdicts (the fault lookup consumes no scheduler
   randomness); and the watchdog turns a livelocked stress run into
   [Runtime.Stalled] rather than spinning forever.

   The plan seed is pinned at 29, picked by scanning seeds 1-30: under
   it crashes and deadlocks both fire, yet one app stays untouched for
   the identity check. *)
let robustness () =
  Gate.run ~section:"robustness"
    ~title:"Robustness: corpus inference under a randomized fault plan"
  @@ fun () ->
  let fault_plan =
    Sherlock_sim.Fault.randomized ~seed:29 ~crashes:1 ~hangs:1 ~wakeups:1 ~max_tid:5
      ~max_op:150 ()
  in
  let config = { Config.default with fault_plan; retries = 1 } in
  let crashes = ref 0 and deadlocks = ref 0 and stalls = ref 0 in
  let unaffected = ref 0 and identical = ref 0 in
  let all_rounds = ref true and verdicts = ref 0 in
  List.iter
    (fun (a : App.t) ->
      let base = (infer a).final in
      let r = Orchestrator.infer ~config (App.subject a) in
      if List.length r.rounds <> config.rounds then all_rounds := false;
      verdicts := !verdicts + List.length r.final;
      let injected = ref 0 in
      List.iter
        (fun (rr : Orchestrator.round_result) ->
          injected := !injected + Orchestrator.injected_faults rr.run_reports;
          List.iter
            (fun (rep : Orchestrator.run_report) ->
              List.iter
                (function
                  | Orchestrator.Crashed _ -> incr crashes
                  | Orchestrator.Deadlocked _ -> incr deadlocks
                  | Orchestrator.Stalled _ -> incr stalls)
                rep.failures)
            rr.run_reports)
        r.rounds;
      (* "Unaffected" is strict: not one plan site fired in any round —
         not merely "no failure", since a fired wakeup perturbs the
         schedule without failing the run. *)
      if !injected = 0 then begin
        incr unaffected;
        if List.equal (fun v1 v2 -> Verdict.compare v1 v2 = 0) base r.final then
          incr identical
      end)
    apps;
  let stall_demo =
    match
      Sherlock_sim.Runtime.run ~seed:7
        ~instrument:(Sherlock_sim.Runtime.tracing ())
        ~max_steps:2_000 (stress ~workers:6 ~iters:400)
    with
    | _ -> false
    | exception Sherlock_sim.Runtime.Stalled _ -> true
  in
  ( [
      ( "fault_plan",
        Json.Str (String.concat " " (Sherlock_sim.Fault.to_specs fault_plan)) );
      ("crashes", count !crashes);
      ("deadlocks", count !deadlocks);
      ("stalls", count !stalls);
      ("apps", count (List.length apps));
      ("unaffected", count !unaffected);
      ("unaffected_identical", count !identical);
      ("final_verdicts", count !verdicts);
    ],
    [
      ("every app completes all rounds", !all_rounds);
      ("an injected crash fired", !crashes >= 1);
      ("a deadlock or watchdog stall fired", !deadlocks + !stalls >= 1);
      ("some app untouched by the plan", !unaffected > 0);
      ("untouched apps keep the no-fault verdicts", !identical = !unaffected);
      ("final verdicts produced", !verdicts > 0);
      ("watchdog stalls a livelocked stress run", stall_demo);
    ] )

(* Provenance gate: capture must be free when off and harmless when on.
   The whole corpus is inferred with capture off and on, interleaved:
   the verdicts must be identical — capture only reads duals after the
   pivot sequence is done — every captured verdict must carry evidence
   windows, and the capture-off wall-clock must stay within 2% of the
   checked-in [off_s]. *)
let provenance_gate () =
  Gate.run ~section:"provenance" ~title:"Provenance capture: off vs on (8-app corpus)"
  @@ fun () ->
  let module P = Sherlock_provenance.Provenance in
  let corpus provenance () =
    let config = { Config.default with parallelism = 1; provenance } in
    List.map (fun (a : App.t) -> Orchestrator.infer ~config (App.subject a)) apps
  in
  let off = ref [] and on = ref [] in
  let[@warning "-8"] [ off_s; on_s ] =
    Gate.interleave ~k:15
      [
        (fun () -> Gate.calibrated (fun () -> off := corpus false ()));
        (fun () -> Gate.calibrated (fun () -> on := corpus true ()));
      ]
  in
  let with_evidence, total =
    List.fold_left
      (fun (withe, total) (r : Orchestrator.result) ->
        match r.provenance with
        | None -> (withe, total + List.length r.final)
        | Some prov ->
          ( withe
            + List.length
                (List.filter
                   (fun (v : P.verdict_evidence) -> v.P.v_windows <> [])
                   prov.P.p_verdicts),
            total + List.length prov.P.p_verdicts ))
      (0, 0) !on
  in
  let base = Gate.baseline "provenance" "off_s" in
  ( [
      ("off_s", num (Gate.median off_s));
      ("on_s", num (Gate.median on_s));
      ( "off_overhead_pct_lower_quartile",
        num (100.0 *. ((Gate.lower_quartile off_s /. base) -. 1.0)) );
      ("verdicts_total", count total);
      ("verdicts_with_evidence", count with_evidence);
    ],
    [
      ( "verdicts identical with capture on and off",
        digests !off = digests !on );
      ("every captured verdict carries evidence", total > 0 && with_evidence = total);
      ( Printf.sprintf "capture-off time <= %.3f s + 2%% (calibrated, lower quartile)"
          base,
        Gate.within ~limit:(base *. 1.02) off_s );
    ] )

(* Extraction scaling gate: sequential [Windows.extract] on Synth logs of
   10k, 30k and 100k events at 500 events per address, default [near]
   (longer than any of these logs).  The output itself grows about
   quadratically with the log — every window's sides span up to the
   whole log — so throughput in events/s cannot stay flat for any
   extractor.  The gated figure is time per emitted side binding (one
   (op, count) entry of a release or acquire side): an extractor whose
   work is linear in its output keeps it flat.  7 interleaved trials;
   each trial's 100k figure over its own 10k figure is one paired
   ratio, and the lower quartile of the ratios must stay within 1.5.
   Each size also records its span-cache hit rate (hits of all span-side
   lookups), the figure that keeps the cache justified. *)
let extract_scaling () =
  Gate.run ~section:"extract_scaling"
    ~title:"Extraction scaling: Synth, 500 events per address"
  @@ fun () ->
  let module Windows = Sherlock_trace.Windows in
  let module Tm = Sherlock_telemetry.Metrics in
  let sizes = [ 10_000; 30_000; 100_000 ] in
  let logs =
    List.map
      (fun events ->
        Sherlock_trace.Synth.log ~seed:5 ~addrs:(events / 500) ~threads:8 ~events ())
      sizes
  in
  let c_hit = Tm.counter "windows.span_cache.hit" in
  let c_miss = Tm.counter "windows.span_cache.miss" in
  (* One untimed extraction: side bindings and span-cache hit rate. *)
  let profile log =
    let hit0 = Tm.Counter.value c_hit and miss0 = Tm.Counter.value c_miss in
    let windows, _ = Windows.extract log in
    let hits = Tm.Counter.value c_hit - hit0 in
    let lookups = hits + Tm.Counter.value c_miss - miss0 in
    ( List.fold_left
        (fun acc (w : Windows.t) ->
          acc + Opid.Map.cardinal w.rel + Opid.Map.cardinal w.acq)
        0 windows,
      float hits /. float (max 1 lookups) )
  in
  let times =
    Gate.interleave ~k:7
      (List.map (fun log () -> Gate.time (fun () -> Windows.extract log)) logs)
  in
  let rows =
    List.map2
      (fun log ts ->
        let n = Sherlock_trace.Log.length log and b, hit_rate = profile log in
        let ns = List.map (fun s -> 1e9 *. s /. float (max 1 b)) ts in
        (n, Gate.median ts, b, ns, hit_rate))
      logs times
  in
  let ns_at target =
    let _, _, _, ns, _ = List.find (fun (n, _, _, _, _) -> n = target) rows in
    ns
  in
  (* One ratio per trial: both sizes ran back to back in it. *)
  let ratios = List.map2 ( /. ) (ns_at 100_000) (ns_at 10_000) in
  ( List.map
      (fun (n, s, b, ns, hit_rate) ->
        ( Printf.sprintf "e%d" n,
          Json.Obj
            [
              ("events_per_sec", num (float n /. s));
              ("side_bindings", count b);
              ("ns_per_binding", num (Gate.median ns));
              ("span_cache_hit_rate", num hit_rate);
            ] ))
      rows
    @ [
        ("ratio_100k_10k_lower_quartile", num (Gate.lower_quartile ratios));
        ("ratio_100k_10k_median", num (Gate.median ratios));
      ],
    [
      ( "ns per side binding at 100k <= 1.5x the 10k figure (lower quartile)",
        Gate.within ~limit:1.5 ratios );
    ] )

(* LP scaling gate: the stateless [Encoder.solve] (a cold solve on a
   fresh state, the solve-trace path) on Synth logs of 600, 1200, 2400
   and 4800 events (40 addresses, 8 threads, seeds 1 and 2), windows
   extracted once outside the timing.  5 interleaved trials of every
   (size, seed) solve, calibrated.  Per size it records the median
   solve time over both seeds and trials, pivots and refactors summed
   over the seeds, and µs per pivot; the 4800/600 µs-per-pivot ratio is
   recorded against the 3x target but not gated.  Gated: at 4800 events
   refactorizations stay at or under a tenth of the pivots (the
   eta-fill rule used to fire every ~7 pivots there, against an
   interval of 64), and the calibrated solve time (mean of the two
   seeds per trial, lower quartile over trials) stays within 0.6x of
   the checked-in [solve_4800_s]. *)
let lp_scaling () =
  Gate.run ~section:"lp_scaling" ~title:"LP scaling: cold solves of Synth logs"
  @@ fun () ->
  let sizes = [ 600; 1200; 2400; 4800 ] and seeds = [ 1; 2 ] in
  let config = Config.default in
  let cases =
    List.concat_map
      (fun events ->
        List.map
          (fun seed ->
            let log = Sherlock_trace.Synth.log ~seed ~addrs:40 ~threads:8 ~events () in
            let obs = Observations.create () in
            Observations.add_log obs ~near:config.near ~cap:config.window_cap
              ~refine:config.use_refinement log;
            (events, obs, ref None))
          seeds)
      sizes
  in
  let times =
    Gate.interleave ~k:5
      (List.map
         (fun (_, obs, lp) () ->
           Gate.calibrated (fun () ->
               let _, (st : Encoder.solve_stats) = Encoder.solve config obs in
               lp := Some st.lp))
         cases)
  in
  let runs =
    List.map2 (fun (events, _, lp) ts -> (events, Option.get !lp, ts)) cases times
  in
  let at events = List.filter (fun (n, _, _) -> n = events) runs in
  let sum f events = List.fold_left (fun acc (_, l, _) -> acc + f l) 0 (at events) in
  let pivots = sum (fun l -> l.Encoder.lp_pivots) in
  let refactors = sum (fun l -> l.Encoder.lp_refactors) in
  let median_s events =
    Gate.median (List.concat_map (fun (_, _, ts) -> ts) (at events))
  in
  let us_per_pivot events =
    1e6 *. median_s events *. float (List.length seeds) /. float (max 1 (pivots events))
  in
  (* One sample per trial: the mean of the seeds' solves in that trial. *)
  let per_trial_4800 =
    match at 4800 with
    | (_, _, first) :: rest ->
      List.fold_left (List.map2 ( +. )) first (List.map (fun (_, _, ts) -> ts) rest)
      |> List.map (fun s -> s /. float (List.length seeds))
    | [] -> []
  in
  let base = Gate.baseline "lp_scaling" "solve_4800_s" in
  ( List.map
      (fun events ->
        ( Printf.sprintf "e%d" events,
          Json.Obj
            [
              ("solve_s", num (median_s events));
              ("pivots", count (pivots events));
              ("refactors", count (refactors events));
              ("us_per_pivot", num (us_per_pivot events));
            ] ))
      sizes
    @ [
        ("us_per_pivot_ratio_4800_600", num (us_per_pivot 4800 /. us_per_pivot 600));
        ("us_per_pivot_ratio_target", num 3.0);
        ("solve_4800_s_lower_quartile", num (Gate.lower_quartile per_trial_4800));
      ],
    [
      ( "refactors <= pivots / 10 at 4800 events",
        refactors 4800 * 10 <= pivots 4800 );
      ( Printf.sprintf
          "4800-event solve <= 0.6 x %.3f s (calibrated, lower quartile)" base,
        Gate.within ~limit:(0.6 *. base) per_trial_4800 );
    ] )

(* Metrics-plane gate: the full corpus inferred inside
   [Snapshot.with_plane] — registry enabled, runtime gauges installed,
   per-round and 100 ms ticker snapshots, each exported snapshot
   atomically rewritten as OpenMetrics (exactly what `run --metrics-out`
   wires up), one plane lifetime per sweep.  Gated statistic: the
   plane's *direct* cost — CPU seconds spent capturing snapshots and
   rewriting the file, self-accounted by the plane
   ([Snapshot.busy_seconds]) — as a fraction of the sweep's wall-clock,
   which must stay within 3% (lower quartile of 5 sweeps interleaved
   with plane-off sweeps).  One corpus pass is shorter than a tick, so
   a sweep runs as many passes as the warmup says fill about a second,
   and the gate checks that the sweeps exported at least 5 snapshots
   each: a sweep of one pass held one or two, and its figure measured
   a single round's capture, not the ticker's.  The off-vs-on wall-clock
   A/B is recorded for context but not gated: the host's CPU quota
   jitters either side by +/- 25%, far past a 3% budget.  The plane must
   also not perturb inference — verdicts with the plane on must equal
   the plane-off verdicts — and every exported file must parse. *)
let stats_gate () =
  Gate.run ~section:"stats" ~title:"Stats plane: corpus inference with the plane on"
  @@ fun () ->
  let module Tm = Sherlock_telemetry.Metrics in
  let module Tsnap = Sherlock_telemetry.Snapshot in
  let module Om = Sherlock_telemetry.Openmetrics in
  let corpus () =
    List.map
      (fun (a : App.t) -> digest (Orchestrator.infer (App.subject a)).final)
      apps
  in
  let out = Filename.temp_file "sherlock_stats_bench" ".om" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  Tm.set_enabled false;
  (* The warmup (code paths, page cache) also sizes a sweep: enough
     corpus passes to span about ten ticks, so each sweep's figure
     holds its ticker's captures and rewrites, not one round's. *)
  let pass_s = Gate.time corpus in
  let passes = max 1 (int_of_float (Float.ceil (1.0 /. pass_s))) in
  let sweep () = List.concat (List.init passes (fun _ -> corpus ())) in
  let trials = 5 in
  let off_verdicts = ref [] and on_verdicts = ref [] in
  let busy = ref [] and snapshots = ref 0 and exported_ok = ref true in
  let sweep_off () = Gate.time (fun () -> off_verdicts := sweep ()) in
  let sweep_on () =
    let exports = ref 0 in
    let export p =
      incr exports;
      try Om.write_atomic out (Om.of_point p) with Sys_error _ -> ()
    in
    (* Cost and count are read before the plane's final snapshot, which
       falls outside the timed sweep. *)
    let s, b, n =
      Fun.protect ~finally:(fun () -> Tm.reset Tm.default) @@ fun () ->
      Tsnap.with_plane ~interval_ms:100 ~on_snapshot:export (fun plane ->
          let s = Gate.time (fun () -> on_verdicts := sweep ()) in
          (s, Tsnap.busy_seconds plane, !exports))
    in
    busy := !busy @ [ b ];
    snapshots := !snapshots + n;
    exported_ok := !exported_ok && Result.is_ok (Om.parse_file out);
    s
  in
  let[@warning "-8"] [ off_s; on_s ] =
    Gate.interleave ~k:trials [ sweep_off; sweep_on ]
  in
  let direct = List.map2 ( /. ) !busy on_s in
  ( [
      ("off_s", num (Gate.median off_s));
      ("on_s", num (Gate.median on_s));
      ( "ab_overhead_pct",
        num (100.0 *. ((Gate.median on_s /. Gate.median off_s) -. 1.0)) );
      ("passes_per_sweep", count passes);
      ("snapshots", count !snapshots);
      ("busy_s", num (List.fold_left ( +. ) 0.0 !busy));
      ("direct_overhead_pct_lower_quartile", num (100.0 *. Gate.lower_quartile direct));
      ("direct_overhead_pct_median", num (100.0 *. Gate.median direct));
      ("interval_ms", count 100);
    ],
    [
      ("verdicts identical with the plane on", !off_verdicts = !on_verdicts);
      ("exported OpenMetrics files parse", !exported_ok);
      ( Printf.sprintf "snapshots >= 5 x %d sweeps" trials,
        !snapshots >= 5 * trials );
      ( "direct plane cost <= 3% of wall-clock (lower quartile)",
        Gate.within ~limit:0.03 direct );
    ] )

(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let app2 = Registry.find "App-2" in
  let subject = App.subject app2 in
  let flag_log = List.hd (Orchestrator.run_test_logs subject) in
  let obs = Observations.create () in
  Observations.add_log obs ~near:1_000_000 ~cap:15 ~refine:true flag_log;
  let first_test = snd (List.hd app2.tests) in
  let verdicts = (infer app2).final in
  let tests =
    [
      Test.make ~name:"simulator: one App-2 test run"
        (Staged.stage (fun () ->
             ignore
               (Sherlock_sim.Runtime.run ~seed:1
                  ~instrument:(Sherlock_sim.Runtime.tracing ()) first_test)));
      Test.make ~name:"windows: extraction"
        (Staged.stage (fun () -> ignore (Sherlock_trace.Windows.extract flag_log)));
      Test.make ~name:"solver: App-2 LP"
        (Staged.stage (fun () -> ignore (Encoder.solve Config.default obs)));
      Test.make ~name:"fasttrack: one trace"
        (Staged.stage (fun () ->
             ignore (Detector.run (Sync_model.inferred verdicts) flag_log)));
    ]
  in
  let grouped = Test.make_grouped ~name:"sherlock" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "Microbenchmarks (Bechamel, monotonic clock):";
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> Printf.printf "  %-40s %12.1f ns/run\n" name ns
      | Some _ | None -> Printf.printf "  %-40s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ()

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("figure4", figure4);
    ("tables8_9", tables8_9);
    ("tsvd", tsvd_enhance);
    ("ablation_extras", ablation_extras);
    ("overhead", overhead);
    ("perf", perf);
    ("lp", lp_gate);
    ("format", format_gate);
    ("provenance", provenance_gate);
    ("extract_scaling", extract_scaling);
    ("lp_scaling", lp_scaling);
    ("stats", stats_gate);
    ("robustness", robustness);
    ("microbench", bechamel_suite);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "--list" :: _ -> List.iter (fun (name, _) -> print_endline name) artifacts
  | _ :: ((_ :: _) as names) ->
    List.iter
      (fun name ->
        match List.assoc_opt name artifacts with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown artifact %S (try --list)\n" name;
          exit 2)
      names
  | _ ->
    List.iter
      (fun (name, f) ->
        Printf.printf "==== %s ====\n%!" name;
        let t0 = Unix.gettimeofday () in
        f ();
        Printf.printf "(%s regenerated in %.1fs)\n\n%!" name
          (Unix.gettimeofday () -. t0))
      artifacts

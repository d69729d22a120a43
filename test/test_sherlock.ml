(* Tests for the inference core: the LP encoder on synthetic observations,
   the perturber, the multi-round orchestrator, and report scoring. *)

open Sherlock_trace
open Sherlock_core
open Sherlock_sim

let check = Alcotest.check

let ev ?(target = 1) ?(delayed_by = 0) time tid op =
  Event.make ~time ~tid ~op ~target ~delayed_by ()

let mklog events =
  Log.create ~events ~duration:1_000_000 ~threads:4
    ~volatile_addrs:(Hashtbl.create 1)

let obs_of_logs ?(config = Config.default) logs =
  let obs = Observations.create () in
  List.iter
    (fun log ->
      Observations.add_log obs ~near:config.near ~cap:config.window_cap
        ~refine:config.use_refinement log)
    logs;
  obs

let wf = Opid.write ~cls:"C" "f"

let rf = Opid.read ~cls:"C" "f"

(* --- Observations --- *)

let test_observations_merge () =
  let log () = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log (); log (); log () ] in
  check Alcotest.int "runs" 3 (Observations.runs obs);
  match Observations.windows obs with
  | [ w ] -> check Alcotest.int "merged weight" 3 w.weight
  | ws -> Alcotest.failf "expected one merged window, got %d" (List.length ws)

let test_observations_race_accumulates () =
  let racy = mklog [ ev 10 0 wf; ev 50 1 wf ] in
  let obs = obs_of_logs [ racy ] in
  check Alcotest.bool "racy pair recorded" true
    (Observations.is_racy_pair obs (wf, wf));
  check Alcotest.int "one race" 1 (List.length (Observations.racy_pairs obs))

let test_observations_avg_occurrence () =
  let log = mklog [ ev 10 0 wf; ev 20 1 rf; ev 30 1 rf ] in
  let obs = obs_of_logs [ log ] in
  (* Window 1 (ends @20): rf x1; window 2 (ends @30): rf x2. *)
  let occ = Observations.occurrence obs in
  check (Alcotest.float 1e-9) "avg" 1.5 (Observations.avg_occurrence occ rf);
  check (Alcotest.float 1e-9) "absent op" 0.0
    (Observations.avg_occurrence occ (Opid.read ~cls:"C" "g"))

let test_observations_candidate_count () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log ] in
  check Alcotest.int "candidates" 2 (Observations.candidate_count obs)

(* --- Encoder --- *)

let solve_logs ?(config = Config.default) logs =
  fst (Encoder.solve config (obs_of_logs ~config logs))

let test_encoder_flag_pair () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let verdicts = solve_logs [ log ] in
  check Alcotest.bool "write release" true (Verdict.mem wf Verdict.Release verdicts);
  check Alcotest.bool "read acquire" true (Verdict.mem rf Verdict.Acquire verdicts)

let test_encoder_no_protected_infers_nothing () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let verdicts =
    solve_logs ~config:{ Config.default with use_protected = false } [ log ]
  in
  check Alcotest.int "nothing inferred" 0 (List.length verdicts)

let test_encoder_role_property () =
  (* With the property on, a read can never be a release. *)
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let verdicts = solve_logs [ log ] in
  check Alcotest.bool "no read release" false (Verdict.mem rf Verdict.Release verdicts);
  check Alcotest.bool "no write acquire" false (Verdict.mem wf Verdict.Acquire verdicts)

let test_encoder_race_removal () =
  (* A pair observed racing contributes no protected windows. *)
  let racy1 = mklog [ ev 10 0 wf; ev 50 1 wf ] in
  let with_reads = mklog [ ev 10 0 wf; ev 30 1 (Opid.write ~cls:"C" "g") ; ev 50 1 wf ] in
  ignore with_reads;
  let verdicts = solve_logs [ racy1 ] in
  check Alcotest.int "nothing inferred from races" 0 (List.length verdicts)

let test_encoder_skips_racy_windows () =
  (* [protected] opens a (wf, wf) window whose sides are not racy by
     themselves (a private write releases, a private read acquires);
     [racy] makes the pair (wf, wf) racy.  A window whose pair has
     already raced when it is first encoded gets no candidates and no
     hinge; one encoded before its pair raced keeps them. *)
  let wx = Opid.write ~cls:"C" "x" and ry = Opid.read ~cls:"C" "y" in
  let protected =
    mklog [ ev 10 0 wf; ev ~target:2 20 0 wx; ev ~target:3 40 1 ry; ev 50 1 wf ]
  in
  let racy = mklog [ ev 10 0 wf; ev 50 1 wf ] in
  let obs = obs_of_logs [ racy; protected ] in
  let _, stats = Encoder.solve Config.default obs in
  check Alcotest.int "one window ([racy] only records a race)" 1
    (Observations.window_count obs);
  check Alcotest.int "no candidates from the skipped window" 0 stats.num_vars;
  check Alcotest.int "both its sides kept out" 2 stats.lp.lp_presolve_rows;
  let _, kept =
    Encoder.solve { Config.default with use_race_removal = false } obs
  in
  check Alcotest.bool "encoded without race removal" true (kept.num_vars > 0);
  let st = Encoder.create_state () in
  let obs = obs_of_logs [ protected ] in
  let _, first = Encoder.solve ~state:st Config.default obs in
  Observations.add_log obs ~near:Config.default.near
    ~cap:Config.default.window_cap ~refine:true racy;
  let _, later = Encoder.solve ~state:st Config.default obs in
  check Alcotest.bool "encoded before the race" true (first.num_vars > 0);
  check Alcotest.int "kept after the race" first.num_vars later.num_vars;
  check Alcotest.int "inactive once racy" 0 later.num_windows

let test_encoder_blind_write_forces_begin () =
  (* A journal written blindly by both sides right after the blocking
     call: the resulting write/write window's acquire side contains only
     the open frame's Begin, which is therefore forced to 1 — the forcing
     pattern the corpus applications rely on. *)
  let b = Opid.enter ~cls:"C" "Wait" and e = Opid.exit ~cls:"C" "Wait" in
  let wj = Opid.write ~cls:"C" "journal" in
  let mk t0 =
    mklog
      [
        ev ~target:3 (t0 + 5) 0 wj;
        ev t0 1 b;
        ev ~target:3 (t0 + 40) 1 wj;
        ev (t0 + 60) 1 e;
      ]
  in
  let verdicts = solve_logs [ mk 100; mk 1000; mk 5000 ] in
  check Alcotest.bool "blocking begin inferred" true
    (Verdict.mem b Verdict.Acquire verdicts)

let test_encoder_single_role_blocks_double () =
  (* A library API cannot be both Begin-acquire and End-release.  Both
     roles are forced by windows with no alternative candidate: a
     read-then-write pair leaves only the End on the release side, and a
     write/write pair leaves only the Begin on the acquire side. *)
  let cls = "System.Threading.Fancy" in
  let b = Opid.enter ~cls "Upgrade" and e = Opid.exit ~cls "Upgrade" in
  let rj = Opid.read ~cls:"C" "j" and wj = Opid.write ~cls:"C" "j" in
  let rk = Opid.read ~cls:"C" "k" and wk = Opid.write ~cls:"C" "k" in
  let log1 =
    mklog [ ev ~target:3 10 0 rj; ev 20 0 e; ev ~target:3 55 1 rj; ev ~target:3 60 1 wj ]
  in
  let log2 =
    mklog [ ev ~target:4 10 0 wk; ev 50 1 b; ev ~target:4 90 1 wk; ev ~target:4 95 1 rk ]
  in
  ignore rk;
  let config = Config.default in
  let verdicts = solve_logs ~config [ log1; log2 ] in
  let both =
    Verdict.mem b Verdict.Acquire verdicts && Verdict.mem e Verdict.Release verdicts
  in
  check Alcotest.bool "not both roles" false both;
  let verdicts_off =
    solve_logs ~config:{ config with use_single_role = false } [ log1; log2 ]
  in
  let both_off =
    Verdict.mem b Verdict.Acquire verdicts_off
    && Verdict.mem e Verdict.Release verdicts_off
  in
  check Alcotest.bool "both roles without constraint" true both_off

let test_encoder_single_role_soft () =
  (* Same forced double-role scenario as above: the soft variant lets
     both roles survive, paying the penalty instead. *)
  let cls = "System.Threading.Fancy" in
  let b = Opid.enter ~cls "Upgrade" and e = Opid.exit ~cls "Upgrade" in
  let rj = Opid.read ~cls:"C" "j" and wj = Opid.write ~cls:"C" "j" in
  let wk = Opid.write ~cls:"C" "k" and rk = Opid.read ~cls:"C" "k" in
  let log1 =
    mklog [ ev ~target:3 10 0 rj; ev 20 0 e; ev ~target:3 55 1 rj; ev ~target:3 60 1 wj ]
  in
  let log2 =
    mklog [ ev ~target:4 10 0 wk; ev 50 1 b; ev ~target:4 90 1 wk; ev ~target:4 95 1 rk ]
  in
  let verdicts =
    solve_logs ~config:{ Config.default with single_role_soft = true } [ log1; log2 ]
  in
  check Alcotest.bool "both roles under soft constraint" true
    (Verdict.mem b Verdict.Acquire verdicts && Verdict.mem e Verdict.Release verdicts)

let test_encoder_stats () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let _, stats = Encoder.solve Config.default (obs_of_logs [ log ]) in
  check Alcotest.bool "windows counted" true (stats.num_windows >= 1);
  check Alcotest.bool "vars counted" true (stats.num_vars >= 2);
  check Alcotest.bool "objective finite" true (Float.is_finite stats.objective)

(* --- Perturber --- *)

let test_perturber_plan () =
  let verdicts =
    [
      { Verdict.op = wf; role = Verdict.Release; probability = 1.0 };
      { Verdict.op = rf; role = Verdict.Acquire; probability = 1.0 };
      { Verdict.op = Opid.exit ~cls:"C" "m"; role = Verdict.Release; probability = 1.0 };
    ]
  in
  let plan = Perturber.of_verdicts ~delay_us:100_000 verdicts in
  check Alcotest.int "two delayed ops" 2 (Perturber.size plan);
  check Alcotest.int "write delayed directly" 100_000 (Perturber.delay_before plan wf);
  check Alcotest.int "acquire not delayed" 0 (Perturber.delay_before plan rf);
  (* An End-release delays the method's entry (the whole call). *)
  check Alcotest.int "end delays begin" 100_000
    (Perturber.delay_before plan (Opid.enter ~cls:"C" "m"));
  check Alcotest.int "end itself not delayed" 0
    (Perturber.delay_before plan (Opid.exit ~cls:"C" "m"))

let test_perturber_empty () =
  check Alcotest.int "empty" 0 (Perturber.size Perturber.empty);
  check Alcotest.int "no delay" 0 (Perturber.delay_before Perturber.empty wf)

(* --- Orchestrator on live programs --- *)

let flag_subject () =
  let test () =
    let flag = Heap.cell ~cls:"O.Flag" ~field:"ready" false in
    let data = Heap.cell ~cls:"O.Flag" ~field:"data" 0 in
    let t =
      Threadlib.create ~delegate:("O.Flag", "Setter") (fun () ->
          Runtime.cpu 100 300;
          Heap.write data 5;
          Heap.write flag true)
    in
    Threadlib.start t;
    Heap.spin_until flag (fun b -> b);
    assert (Heap.read data = 5);
    Threadlib.join t
  in
  { Orchestrator.subject_name = "flag"; tests = [ ("flag", test) ] }

let test_orchestrator_rounds () =
  let config = { Config.default with rounds = 3 } in
  let result = Orchestrator.infer ~config (flag_subject ()) in
  check Alcotest.int "three rounds" 3 (List.length result.rounds);
  check Alcotest.int "first round no delays" 0
    (List.hd result.rounds).delayed_ops;
  check Alcotest.bool "flag write inferred" true
    (Verdict.mem (Opid.write ~cls:"O.Flag" "ready") Verdict.Release result.final);
  check Alcotest.bool "flag read inferred" true
    (Verdict.mem (Opid.read ~cls:"O.Flag" "ready") Verdict.Acquire result.final)

let test_orchestrator_deterministic () =
  let r1 = Orchestrator.infer (flag_subject ()) in
  let r2 = Orchestrator.infer (flag_subject ()) in
  check Alcotest.int "same verdict count" (List.length r1.final)
    (List.length r2.final);
  List.iter2
    (fun (a : Verdict.t) (b : Verdict.t) ->
      check Alcotest.bool "same verdicts" true (Verdict.compare a b = 0))
    r1.final r2.final

let test_orchestrator_accumulate_off () =
  let config = { Config.default with accumulate = false } in
  let result = Orchestrator.infer ~config (flag_subject ()) in
  check Alcotest.int "observations from last round only" 1
    (Observations.runs result.observations)

let test_orchestrator_run_test_logs () =
  let logs = Orchestrator.run_test_logs (flag_subject ()) in
  check Alcotest.int "one log per test" 1 (List.length logs);
  check Alcotest.bool "traced" true (Log.length (List.hd logs) > 0)

let test_probabilistic_delays () =
  (* p = 0 means the plan never fires; the runs behave like round 1. *)
  let config = { Config.default with delay_probability = 0.0; rounds = 3 } in
  let result = Orchestrator.infer ~config (flag_subject ()) in
  check Alcotest.bool "still infers the flag" true
    (Verdict.mem (Opid.write ~cls:"O.Flag" "ready") Verdict.Release result.final)

let test_orchestrator_test_seed () =
  check Alcotest.bool "distinct seeds" true
    (Orchestrator.test_seed ~base:1 ~round:1 ~test_index:0
    <> Orchestrator.test_seed ~base:1 ~round:2 ~test_index:0)

let test_orchestrator_parallel_matches_sequential () =
  (* Worker domains run the tests, but the merge is sequential in test
     order, so every verdict — per round and final — must be identical to
     the single-domain path, probabilities included. *)
  List.iter
    (fun app_id ->
      let app = Sherlock_corpus.Registry.find app_id in
      let subject = Sherlock_corpus.App.subject app in
      let base = { Config.default with rounds = 2 } in
      let seq = Orchestrator.infer ~config:{ base with parallelism = 1 } subject in
      let par = Orchestrator.infer ~config:{ base with parallelism = 4 } subject in
      let same_verdicts label a b =
        check Alcotest.int (label ^ ": count") (List.length a) (List.length b);
        List.iter2
          (fun (x : Verdict.t) (y : Verdict.t) ->
            check Alcotest.bool (label ^ ": verdict") true (Verdict.compare x y = 0);
            check (Alcotest.float 0.0) (label ^ ": probability") x.probability
              y.probability)
          a b
      in
      same_verdicts (app_id ^ " final") seq.final par.final;
      List.iter2
        (fun (r1 : Orchestrator.round_result) (r2 : Orchestrator.round_result) ->
          same_verdicts
            (Printf.sprintf "%s round %d" app_id r1.round)
            r1.verdicts r2.verdicts)
        seq.rounds par.rounds)
    [ "App-1"; "App-2" ]

let test_extract_jobs_matches_sequential () =
  (* Sharded window extraction is deterministic, so with extraction
     parallelism on the whole corpus must produce identical verdicts —
     per round and final, probabilities included.  parallelism = 1 keeps
     the test-level parallel path off, which is the (only) configuration
     where the orchestrator enables extraction sharding. *)
  List.iter
    (fun app ->
      let app_id = app.Sherlock_corpus.App.id in
      let subject = Sherlock_corpus.App.subject app in
      let base = { Config.default with rounds = 2; parallelism = 1 } in
      let seq = Orchestrator.infer ~config:{ base with extract_jobs = 1 } subject in
      let par = Orchestrator.infer ~config:{ base with extract_jobs = 4 } subject in
      let same_verdicts label a b =
        check Alcotest.int (label ^ ": count") (List.length a) (List.length b);
        List.iter2
          (fun (x : Verdict.t) (y : Verdict.t) ->
            check Alcotest.bool (label ^ ": verdict") true (Verdict.compare x y = 0);
            check (Alcotest.float 0.0) (label ^ ": probability") x.probability
              y.probability)
          a b
      in
      same_verdicts (app_id ^ " final") seq.final par.final;
      List.iter2
        (fun (r1 : Orchestrator.round_result) (r2 : Orchestrator.round_result) ->
          same_verdicts
            (Printf.sprintf "%s round %d" app_id r1.round)
            r1.verdicts r2.verdicts)
        seq.rounds par.rounds)
    (Sherlock_corpus.Registry.all ())

(* --- Supervised orchestration (fault plans, degraded LP) --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The flag test plus two victims that both own a thread with tid 2 — the
   only tid the fault plans below target, so the flag test is provably
   untouched (its world has tids 0 and 1 only). *)
let resilient_subject () =
  let flag_test = List.assoc "flag" (flag_subject ()).tests in
  let pair_test () =
    (* Joins a hung thread: surfaces as Deadlock. *)
    let c = Heap.cell ~cls:"O.Pair" ~field:"n" 0 in
    let mk i =
      Threadlib.create ~delegate:("O.Pair", Printf.sprintf "W%d" i) (fun () ->
          for _ = 1 to 3 do
            Heap.write c (Heap.read c + 1)
          done)
    in
    let t1 = mk 1 and t2 = mk 2 in
    Threadlib.start t1;
    Threadlib.start t2;
    Threadlib.join t1;
    Threadlib.join t2
  in
  let spin_test () =
    (* Spins on a flag set by the hung thread: livelock, surfaces as
       Stalled via the step watchdog. *)
    let done_ = Heap.cell ~cls:"O.Spin" ~field:"done" false in
    let t1 =
      Threadlib.create ~delegate:("O.Spin", "Busy") (fun () -> Runtime.cpu 10 20)
    in
    let t2 =
      Threadlib.create ~delegate:("O.Spin", "Setter") (fun () ->
          Heap.write done_ true)
    in
    Threadlib.start t1;
    Threadlib.start t2;
    Heap.spin_until done_ (fun b -> b);
    Threadlib.join t1;
    Threadlib.join t2
  in
  {
    Orchestrator.subject_name = "resilient";
    tests = [ ("flag", flag_test); ("pair", pair_test); ("spin", spin_test) ];
  }

let hang_tid2_config =
  {
    Config.default with
    fault_plan = Fault.make [ { Fault.tid = 2; op = 1; action = Fault.Hang } ];
    max_steps = 5_000;
    retries = 1;
  }

let find_report name (r : Orchestrator.round_result) =
  List.find
    (fun (rep : Orchestrator.run_report) -> rep.test_name = name)
    r.run_reports

let test_orchestrator_survives_hangs () =
  (* A hang in two of three tests kills neither the round nor the
     inference; the failure classes match the workload shape. *)
  let result = Orchestrator.infer ~config:hang_tid2_config (resilient_subject ()) in
  check Alcotest.int "all rounds ran" Config.default.rounds
    (List.length result.rounds);
  List.iter
    (fun (r : Orchestrator.round_result) ->
      let flag = find_report "flag" r in
      check Alcotest.bool "flag completed" true flag.completed;
      check Alcotest.int "flag untouched" 0 flag.injected;
      check Alcotest.int "flag one attempt" 1 flag.attempts;
      let pair = find_report "pair" r in
      check Alcotest.bool "pair dropped" false pair.completed;
      check Alcotest.int "pair attempts" 2 pair.attempts;
      check Alcotest.bool "pair deadlocked" true
        (List.for_all
           (function Orchestrator.Deadlocked _ -> true | _ -> false)
           pair.failures);
      let spin = find_report "spin" r in
      check Alcotest.bool "spin dropped" false spin.completed;
      check Alcotest.bool "spin stalled" true
        (List.for_all
           (function Orchestrator.Stalled _ -> true | _ -> false)
           spin.failures);
      check Alcotest.int "failed attempts counted" 4
        (Orchestrator.failed_runs r.run_reports);
      check Alcotest.int "two tests lost" 2
        (Orchestrator.incomplete_runs r.run_reports))
    result.rounds;
  check Alcotest.bool "still infers the flag" true
    (Verdict.mem (Opid.write ~cls:"O.Flag" "ready") Verdict.Release result.final)

let test_orchestrator_failures_do_not_leak () =
  (* The dropped tests contribute no observations, and the flag test's
     runs are bitwise identical to the no-fault baseline (its tid-2-keyed
     plan never fires), so the verdicts must equal inferring over the
     flag test alone. *)
  let faulted =
    Orchestrator.infer ~config:hang_tid2_config (resilient_subject ())
  in
  let baseline =
    Orchestrator.infer
      ~config:{ hang_tid2_config with fault_plan = Fault.empty }
      (flag_subject ())
  in
  check Alcotest.int "same verdict count" (List.length baseline.final)
    (List.length faulted.final);
  List.iter2
    (fun (a : Verdict.t) (b : Verdict.t) ->
      check Alcotest.bool "same verdict" true (Verdict.compare a b = 0);
      check (Alcotest.float 0.0) "same probability" a.probability b.probability)
    baseline.final faulted.final

let test_orchestrator_injected_crash_reported () =
  let config =
    {
      Config.default with
      rounds = 1;
      retries = 1;
      fault_plan = Fault.make [ { Fault.tid = 1; op = 1; action = Fault.Crash } ];
    }
  in
  let result = Orchestrator.infer ~config (flag_subject ()) in
  match result.rounds with
  | [ r ] ->
    let rep = find_report "flag" r in
    check Alcotest.bool "dropped" false rep.completed;
    check Alcotest.bool "fault fired every attempt" true (rep.injected >= 2);
    check Alcotest.bool "reported as injected crash" true
      (List.for_all
         (function
           | Orchestrator.Crashed msg ->
             (* The message pinpoints the injected site. *)
             contains msg "tid 1" && contains msg "injected"
           | _ -> false)
         rep.failures);
    check Alcotest.int "no verdicts from nothing" 0 (List.length r.verdicts)
  | rs -> Alcotest.failf "expected one round, got %d" (List.length rs)

let with_lp_fault status f =
  Sherlock_lp.Problem.set_fault (Some status);
  Fun.protect ~finally:(fun () -> Sherlock_lp.Problem.set_fault None) f

let test_encoder_degrades_on_infeasible_lp () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log ] in
  let healthy, healthy_stats = Encoder.solve Config.default obs in
  check Alcotest.bool "healthy solve not degraded" false healthy_stats.degraded;
  check Alcotest.bool "healthy solve infers" true (healthy <> []);
  List.iter
    (fun status ->
      with_lp_fault status (fun () ->
          (* With previous verdicts: returns them, flagged degraded. *)
          let vs, stats = Encoder.solve ~previous:healthy Config.default obs in
          check Alcotest.bool "degraded" true stats.degraded;
          check Alcotest.bool "objective is nan" true (Float.is_nan stats.objective);
          check Alcotest.int "previous verdicts kept" (List.length healthy)
            (List.length vs);
          List.iter2
            (fun (a : Verdict.t) (b : Verdict.t) ->
              check Alcotest.bool "same verdict" true (Verdict.compare a b = 0))
            healthy vs;
          (* Without previous verdicts: empty, still no exception. *)
          let vs0, stats0 = Encoder.solve Config.default obs in
          check Alcotest.bool "degraded too" true stats0.degraded;
          check Alcotest.int "nothing to fall back on" 0 (List.length vs0)))
    [
      Sherlock_lp.Problem.Infeasible; Sherlock_lp.Problem.Unbounded;
      Sherlock_lp.Problem.Aborted;
    ]

(* Satellite of the pivot-cap fix: a *real* iteration-limit abort (not
   an injected fault) must come back as a degraded round carrying the
   previous verdicts, and the encoder must recover as soon as the cap
   lifts. *)
let test_encoder_degrades_on_pivot_cap () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log ] in
  let healthy, healthy_stats = Encoder.solve Config.default obs in
  check Alcotest.bool "healthy solve infers" true (healthy <> []);
  check Alcotest.bool "healthy not degraded" false healthy_stats.degraded;
  Fun.protect
    ~finally:(fun () ->
      Sherlock_lp.Simplex.set_pivot_limit Sherlock_lp.Simplex.default_pivot_limit)
    (fun () ->
      Sherlock_lp.Simplex.set_pivot_limit 1;
      let vs, stats = Encoder.solve ~previous:healthy Config.default obs in
      check Alcotest.bool "degraded under the pivot cap" true stats.degraded;
      check Alcotest.bool "objective is nan" true (Float.is_nan stats.objective);
      check Alcotest.int "previous verdicts kept" (List.length healthy)
        (List.length vs);
      List.iter2
        (fun (a : Verdict.t) (b : Verdict.t) ->
          check Alcotest.bool "same verdict" true (Verdict.compare a b = 0))
        healthy vs);
  let again, astats = Encoder.solve ~previous:healthy Config.default obs in
  check Alcotest.bool "recovers once the cap lifts" false astats.degraded;
  check Alcotest.int "verdicts restored" (List.length healthy) (List.length again)

(* A degraded round must not poison the reusable warm-start state: the
   next healthy solve on the same state reproduces the healthy verdicts. *)
let test_warm_state_survives_degraded_solve () =
  let log = mklog [ ev 10 0 wf; ev 50 1 rf ] in
  let obs = obs_of_logs [ log ] in
  let state = Encoder.create_state () in
  let healthy, hstats = Encoder.solve ~state Config.default obs in
  check Alcotest.bool "healthy warm solve" false hstats.degraded;
  with_lp_fault Sherlock_lp.Problem.Infeasible (fun () ->
      let vs, stats = Encoder.solve ~state ~previous:healthy Config.default obs in
      check Alcotest.bool "degraded under fault" true stats.degraded;
      check Alcotest.int "previous carried" (List.length healthy) (List.length vs));
  let again, astats = Encoder.solve ~state ~previous:healthy Config.default obs in
  check Alcotest.bool "recovered" false astats.degraded;
  check Alcotest.int "same verdict count" (List.length healthy) (List.length again);
  List.iter2
    (fun (a : Verdict.t) (b : Verdict.t) ->
      check Alcotest.bool "same verdict" true (Verdict.compare a b = 0))
    healthy again

let test_orchestrator_survives_infeasible_lp () =
  (* Every round's LP degrades; the inference still completes all rounds
     and simply carries the (empty) previous verdicts forward. *)
  with_lp_fault Sherlock_lp.Problem.Infeasible (fun () ->
      let result = Orchestrator.infer (flag_subject ()) in
      check Alcotest.int "all rounds ran" Config.default.rounds
        (List.length result.rounds);
      List.iter
        (fun (r : Orchestrator.round_result) ->
          check Alcotest.bool "round degraded" true r.stats.degraded)
        result.rounds;
      check Alcotest.int "no verdicts" 0 (List.length result.final))

(* --- Report / ground truth --- *)

let truth =
  let open Ground_truth in
  {
    syncs = [ entry wf Verdict.Release "w"; entry rf Verdict.Acquire "r" ];
    racy_fields = [ "C::racy" ];
    error_scope = [ "C.Hidden" ];
    field_guard = [ ("C::guarded", Dispose) ];
  }

let v op role = { Verdict.op; role; probability = 1.0 }

let test_report_classify () =
  let verdicts =
    [
      v wf Verdict.Release;
      v (Opid.read ~cls:"C" "racy") Verdict.Acquire;
      v (Opid.write ~cls:"C.Hidden" "x") Verdict.Release;
      v (Opid.read ~cls:"C" "other") Verdict.Acquire;
    ]
  in
  let r = Report.classify truth verdicts in
  check Alcotest.int "correct" 1 (Report.num_correct r);
  check Alcotest.int "racy" 1 (Report.count r Report.Data_racy);
  check Alcotest.int "instr" 1 (Report.count r Report.Instr_error);
  check Alcotest.int "notsync" 1 (Report.count r Report.Not_sync);
  check Alcotest.int "missed" 1 (List.length r.missed);
  check (Alcotest.float 1e-9) "precision" 0.25 (Report.precision r)

(* Regression: zero inferred verdicts used to render [precision]'s nan as
   "nan%"; the string form must say "n/a" instead. *)
let test_precision_string () =
  let empty = Report.classify truth [] in
  check Alcotest.bool "precision is nan" true (Float.is_nan (Report.precision empty));
  check Alcotest.string "empty renders n/a" "n/a" (Report.precision_string empty);
  let quarter =
    Report.classify truth
      [
        v wf Verdict.Release;
        v (Opid.read ~cls:"C" "racy") Verdict.Acquire;
        v (Opid.write ~cls:"C.Hidden" "x") Verdict.Release;
        v (Opid.read ~cls:"C" "other") Verdict.Acquire;
      ]
  in
  check Alcotest.string "1/4 renders 25%" "25%" (Report.precision_string quarter)

let test_report_role_mismatch_not_correct () =
  let r = Report.classify truth [ v wf Verdict.Acquire ] in
  check Alcotest.int "wrong role not correct" 0 (Report.num_correct r)

let test_fp_causes () =
  let cause op =
    Ground_truth.cause_name (Report.false_positive_cause truth (v op Verdict.Release))
  in
  check Alcotest.string "instr" "Instr. Errors" (cause (Opid.write ~cls:"C.Hidden" "x"));
  check Alcotest.string "double role" "Double Roles"
    (cause (Opid.exit ~cls:"X" "UpgradeToWriterLock"));
  check Alcotest.string "dispose" "Dispose" (cause (Opid.enter ~cls:"X" "Finalize"));
  check Alcotest.string "static" "Static Ctr." (cause (Opid.exit ~cls:"X" ".cctor"));
  check Alcotest.string "other" "Others" (cause (Opid.write ~cls:"X" "y"))

let test_guard_cause () =
  check Alcotest.string "guarded field" "Dispose"
    (Ground_truth.cause_name (Ground_truth.guard_cause truth "C::guarded"));
  check Alcotest.string "unknown field" "Others"
    (Ground_truth.cause_name (Ground_truth.guard_cause truth "C::zzz"))

(* --- Config / verdict --- *)

let test_config_defaults () =
  let c = Config.default in
  check (Alcotest.float 1e-9) "lambda" 0.2 c.lambda;
  check Alcotest.int "near 1s" 1_000_000 c.near;
  check Alcotest.int "cap" 15 c.window_cap;
  check Alcotest.int "delay 100ms" 100_000 c.delay_us;
  check Alcotest.int "rounds" 3 c.rounds

let test_verdict_helpers () =
  let vs = [ v wf Verdict.Release; v rf Verdict.Acquire ] in
  check Alcotest.int "releases" 1 (List.length (Verdict.releases vs));
  check Alcotest.int "acquires" 1 (List.length (Verdict.acquires vs));
  check Alcotest.bool "mem" true (Verdict.mem wf Verdict.Release vs);
  check Alcotest.bool "not mem" false (Verdict.mem wf Verdict.Acquire vs)

(* --- Properties --- *)

let prop_verdicts_respect_threshold =
  QCheck.Test.make ~name:"verdict probabilities reach the threshold" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let log =
        mklog [ ev 10 0 wf; ev (50 + (seed mod 40)) 1 rf ]
      in
      let verdicts = solve_logs [ log ] in
      List.for_all (fun (v : Verdict.t) -> v.probability >= Config.default.threshold)
        verdicts)

let prop_roles_respect_property =
  QCheck.Test.make ~name:"role property always respected" ~count:50
    QCheck.(int_range 0 1000)
    (fun salt ->
      let wg = Opid.write ~cls:"C" (Printf.sprintf "g%d" (salt mod 3)) in
      let rg = Opid.read ~cls:"C" (Printf.sprintf "g%d" (salt mod 3)) in
      let log = mklog [ ev ~target:2 10 0 wg; ev ~target:2 60 1 rg ] in
      let verdicts = solve_logs [ log ] in
      List.for_all
        (fun (v : Verdict.t) ->
          match (v.op.kind, v.role) with
          | (Opid.Read | Opid.Begin), Verdict.Acquire -> true
          | (Opid.Write | Opid.End), Verdict.Release -> true
          | _ -> false)
        verdicts)

(* The one-pass occurrence and CV-rank tables against the per-op folds
   in [Oracle], compared bit for bit: for every op in any window, every
   method with a sample, and one op and method never seen. *)
let tables_match_oracle obs =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let occ = Observations.occurrence obs in
  let ops =
    List.fold_left
      (fun acc (w : Observations.merged_window) ->
        let add op _ acc = Opid.Set.add op acc in
        Opid.Map.fold add w.rel (Opid.Map.fold add w.acq acc))
      (Opid.Set.singleton (Opid.read ~cls:"Never" "seen"))
      (Observations.windows obs)
  in
  let durs = Observations.durations obs in
  let ranks = Durations.cv_ranks durs in
  Opid.Set.for_all
    (fun op ->
      same (Observations.avg_occurrence occ op) (Oracle.avg_occurrence obs op))
    ops
  && List.for_all
       (fun key ->
         same (Durations.cv_percentile ranks key) (Oracle.cv_percentile durs key))
       ("Never::seen" :: Durations.methods durs)

let prop_tables_match_oracle_synth =
  QCheck.Test.make ~name:"occurrence and cv-rank tables match the oracle (synth)"
    ~count:25
    QCheck.(
      triple (int_range 1 1000) (int_range 1 3) (int_range 100 1500))
    (fun (seed, nlogs, events) ->
      let logs =
        List.init nlogs (fun i ->
            Synth.log ~seed:(seed + i) ~addrs:(4 + (seed mod 12))
              ~threads:(2 + (seed mod 5)) ~events ())
      in
      tables_match_oracle (obs_of_logs logs))

(* Hand-made logs over a few fields and methods: repeated runs merge into
   weighted windows, and equal durations tie in CV. *)
let gen_logs =
  QCheck.Gen.(
    let gen_event =
      let* time = int_range 1 2_000 in
      let* tid = int_range 0 3 in
      let* kind = int_range 0 3 in
      let* field = int_range 0 3 in
      let cls = Printf.sprintf "P.C%d" (field mod 2) in
      let name = Printf.sprintf "f%d" field in
      let op =
        match kind with
        | 0 -> Opid.read ~cls name
        | 1 -> Opid.write ~cls name
        | 2 -> Opid.enter ~cls name
        | _ -> Opid.exit ~cls name
      in
      return (ev ~target:(field + 1) time tid op)
    in
    list_size (int_range 1 4) (list_size (int_range 0 60) gen_event))

let prop_tables_match_oracle_generated =
  QCheck.Test.make
    ~name:"occurrence and cv-rank tables match the oracle (generated)"
    ~count:200 (QCheck.make gen_logs)
    (fun logs -> tables_match_oracle (obs_of_logs (List.map mklog logs)))

(* --- hygiene: fault paths log structurally --- *)

(* The orchestrator's failure handling (retries, drops, degradation,
   LP aborts) must report through Sherlock_telemetry.Log, not ad-hoc
   stderr prints.  Scan the library sources for [eprintf]; skipped when
   the sources aren't visible from the test's working directory. *)
let test_no_eprintf_in_sherlock () =
  let candidates = [ "../lib/sherlock"; "lib/sherlock"; "../../lib/sherlock" ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> ()
  | Some dir ->
    let contains_eprintf path =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      let needle = "eprintf" in
      let nl = String.length needle and sl = String.length s in
      let rec go i =
        i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
      in
      go 0
    in
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ml" && contains_eprintf (Filename.concat dir f)
        then
          Alcotest.failf
            "%s/%s uses eprintf; fault paths must emit structured events via \
             Sherlock_telemetry.Log"
            dir f)
      (Sys.readdir dir)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sherlock"
    [
      ( "observations",
        [
          Alcotest.test_case "merge identical windows" `Quick test_observations_merge;
          Alcotest.test_case "races accumulate" `Quick test_observations_race_accumulates;
          Alcotest.test_case "avg occurrence" `Quick test_observations_avg_occurrence;
          Alcotest.test_case "candidate count" `Quick test_observations_candidate_count;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "flag pair" `Quick test_encoder_flag_pair;
          Alcotest.test_case "no protected => nothing" `Quick
            test_encoder_no_protected_infers_nothing;
          Alcotest.test_case "role property" `Quick test_encoder_role_property;
          Alcotest.test_case "race removal" `Quick test_encoder_race_removal;
          Alcotest.test_case "skips already-racy windows" `Quick
            test_encoder_skips_racy_windows;
          Alcotest.test_case "blind write forces begin" `Quick
            test_encoder_blind_write_forces_begin;
          Alcotest.test_case "single role" `Quick test_encoder_single_role_blocks_double;
          Alcotest.test_case "single role soft" `Quick test_encoder_single_role_soft;
          Alcotest.test_case "stats" `Quick test_encoder_stats;
        ] );
      ( "perturber",
        [
          Alcotest.test_case "plan" `Quick test_perturber_plan;
          Alcotest.test_case "empty" `Quick test_perturber_empty;
        ] );
      ( "orchestrator",
        [
          Alcotest.test_case "rounds" `Quick test_orchestrator_rounds;
          Alcotest.test_case "deterministic" `Quick test_orchestrator_deterministic;
          Alcotest.test_case "accumulate off" `Quick test_orchestrator_accumulate_off;
          Alcotest.test_case "run_test_logs" `Quick test_orchestrator_run_test_logs;
          Alcotest.test_case "test seeds" `Quick test_orchestrator_test_seed;
          Alcotest.test_case "extract jobs match sequential" `Slow
            test_extract_jobs_matches_sequential;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_orchestrator_parallel_matches_sequential;
          Alcotest.test_case "probabilistic delays" `Quick test_probabilistic_delays;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "survives hangs" `Quick test_orchestrator_survives_hangs;
          Alcotest.test_case "failures don't leak into verdicts" `Quick
            test_orchestrator_failures_do_not_leak;
          Alcotest.test_case "injected crash reported" `Quick
            test_orchestrator_injected_crash_reported;
          Alcotest.test_case "encoder degrades on infeasible LP" `Quick
            test_encoder_degrades_on_infeasible_lp;
          Alcotest.test_case "encoder degrades on pivot cap" `Quick
            test_encoder_degrades_on_pivot_cap;
          Alcotest.test_case "inference survives infeasible LP" `Quick
            test_orchestrator_survives_infeasible_lp;
          Alcotest.test_case "warm state survives degraded solve" `Quick
            test_warm_state_survives_degraded_solve;
        ] );
      ( "report",
        [
          Alcotest.test_case "classify" `Quick test_report_classify;
          Alcotest.test_case "precision string" `Quick test_precision_string;
          Alcotest.test_case "role mismatch" `Quick test_report_role_mismatch_not_correct;
          Alcotest.test_case "fp causes" `Quick test_fp_causes;
          Alcotest.test_case "guard causes" `Quick test_guard_cause;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "verdict helpers" `Quick test_verdict_helpers;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "no eprintf in lib/sherlock" `Quick
            test_no_eprintf_in_sherlock;
        ] );
      ( "properties",
        qcheck
          [
            prop_verdicts_respect_threshold;
            prop_roles_respect_property;
            prop_tables_match_oracle_synth;
            prop_tables_match_oracle_generated;
          ] );
    ]

(* End-to-end benchmark of SherLock inference, with a per-layer ledger.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--reference FILE]      verdict reference (default below)
     bench.exe --workload W --seed N --inputs      print the drawn inputs
     bench.exe --write-reference FILE              regenerate the reference

   Every workload is a closed loop with one client in one process: the
   next operation starts only after the previous one completed.  The
   library runs [Config.default] with one domain for tests and one for
   extraction.  The seed picks the inputs from a fixed universe per
   workload; the reference file holds the verdicts [Orchestrator.infer]
   (or the solve-trace path) returned for every input of every
   universe, so each operation on any seed is checked against verdicts
   recorded at the commit that wrote the reference.

   With [--trace 0] the run reports the end-to-end metrics.  With
   [--trace 1] it drives the same pipeline from here through the public
   calls of each layer, times every call, and reports the per-layer
   ledger; afterwards it runs the untraced operation once per input and
   fails any operation whose verdicts differ.  Nothing in the library is
   instrumented for this.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  The exit code is 1
   when an operation failed. *)

open Sherlock_trace
open Sherlock_sim
open Sherlock_core
module Json = Sherlock_provenance.Json
module Rng = Sherlock_util.Rng

let config = { Config.default with Config.parallelism = 1; extract_jobs = 1 }

let default_seed = 42

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Inputs *)

type job =
  | Infer of { subject : Orchestrator.subject; seed : int; truth : Ground_truth.t }
  | Solve_trace of { path : string }

type input = { key : string; job : job }

(* A spec names one input of a workload's universe; [realize] builds
   its job (generating the subject, or writing the trace file). *)
type spec = { skey : string; realize : unit -> job }

let realize s = { key = s.skey; job = s.realize () }

(* A workload's universe is split into groups (an app, a log size) of
   equal length, a multiple of [picks].  A seed draws [picks] inputs
   from every group, stratified by the cost the reference recorded for
   each input: the group sorted by cost is cut into [picks] strata and
   the seed picks one input in each.  Every seed thus gets inputs of
   the same cost profile, which keeps seeds comparable, and the
   reference covers every input any seed can draw. *)
type workload = { name : string; groups : spec list list; picks : int }

let universe w = List.concat w.groups

let select w ~cost seed =
  let rng = Rng.create seed in
  let strata group =
    let sorted =
      List.sort
        (fun a b -> compare (cost a.skey, a.skey) (cost b.skey, b.skey))
        group
    in
    let per = List.length group / w.picks in
    Array.init w.picks (fun j ->
        List.nth sorted ((j * per) + Rng.int rng per))
  in
  let picked = List.map strata w.groups in
  let order = Array.init w.picks Fun.id in
  Rng.shuffle rng order;
  List.concat_map (fun j -> List.map (fun a -> a.(j)) picked) (Array.to_list order)

(* corpus: one op is one 3-round inference of one of the eight apps
   under one schedule seed (of 16).  A seed draws 8 schedule seeds per
   app and cycles through the apps. *)
let corpus =
  let spec (app : Sherlock_corpus.App.t) s =
    {
      skey = Printf.sprintf "%s@%d" app.id s;
      realize =
        (fun () -> Infer { subject = Sherlock_corpus.App.subject app; seed = s; truth = app.truth });
    }
  in
  {
    name = "corpus";
    groups =
      List.map
        (fun app -> List.init 16 (fun k -> spec app (default_seed + k)))
        (Sherlock_corpus.Registry.all ());
    picks = 8;
  }

(* long-tests: generated subjects whose worker threads hammer three
   lock-protected fields and read a published flag, with long private
   stretches on a per-thread cell in between.  Window sides then span
   thousands of events of few distinct ops, so extraction and the
   simulator dominate and the LP stays small.  The shape (tests,
   workers, iterations, mean stretch) is fixed; the generator seed
   varies which field each iteration takes and each stretch's length,
   so every subject costs about the same.  Each test has classes of its
   own, so one subject's verdicts sum several independent tests. *)
let long_tests, long_workers, long_iters, long_stretch, long_fields = (4, 4, 20, 40, 3)

let long_shared t = Printf.sprintf "Bench.Shared%d" t

let long_worker t = Printf.sprintf "Bench.Worker%d" t

let long_subject g =
  let rng = Rng.create (0x5107 + g) in
  let test t =
    let shared = long_shared t in
    let plan =
      Array.init long_workers (fun _ ->
          Array.init long_iters (fun _ ->
              (Rng.int rng long_fields, Rng.range rng (long_stretch / 2) (3 * long_stretch / 2))))
    in
    let body () =
      let lock = Monitor.create () in
      let fields =
        Array.init long_fields (fun i -> Heap.cell ~cls:shared ~field:(Printf.sprintf "f%d" i) 0)
      in
      let ready = Heap.cell ~cls:shared ~field:"ready" false in
      let limit = Heap.cell ~cls:shared ~field:"limit" 0 in
      let worker w =
        Threadlib.create ~delegate:(long_worker t, "Run") (fun () ->
            let scratch = Heap.cell ~cls:(long_worker t) ~field:"scratch" 0 in
            Heap.spin_until ready Fun.id;
            assert (Heap.read limit = long_iters);
            Array.iter
              (fun (f, stretch) ->
                for k = 1 to stretch do
                  if k land 1 = 0 then Heap.write scratch k else ignore (Heap.read scratch)
                done;
                Monitor.with_lock lock (fun () ->
                    Heap.write fields.(f) (Heap.read fields.(f) + 1)))
              plan.(w))
      in
      let workers = Array.init long_workers worker in
      Array.iter Threadlib.start workers;
      Heap.write limit long_iters;
      Heap.write ready true;
      Array.iter Threadlib.join workers;
      let total = Array.fold_left (fun acc c -> acc + Heap.read c) 0 fields in
      assert (total = long_workers * long_iters)
    in
    (Printf.sprintf "Hammer%d" t, body)
  in
  {
    Orchestrator.subject_name = Printf.sprintf "long-%d" g;
    tests = List.init long_tests test;
  }

let long_truth =
  let open Ground_truth in
  let per_test t =
    [
      entry (Opid.write ~cls:(long_shared t) "ready") Verdict.Release "write flag";
      entry (Opid.read ~cls:(long_shared t) "ready") Verdict.Acquire "read flag";
      entry (Opid.exit ~cls:(long_worker t) "Run") Verdict.Release "end of worker";
    ]
  in
  {
    empty with
    syncs =
      [
        entry (Opid.enter ~cls:Monitor.cls "Enter") Verdict.Acquire "acquire lock";
        entry (Opid.exit ~cls:Monitor.cls "Exit") Verdict.Release "release lock";
        entry (Opid.enter ~cls:Threadlib.cls "Join") Verdict.Acquire "wait for worker";
      ]
      @ List.concat_map per_test (List.init long_tests Fun.id);
  }

let long_tests_workload =
  let spec g =
    {
      skey = Printf.sprintf "long-%d" g;
      realize =
        (fun () -> Infer { subject = long_subject g; seed = default_seed; truth = long_truth });
    }
  in
  { name = "long-tests"; groups = [ List.init 64 (fun g -> spec (g + 1)) ]; picks = 32 }

(* offline-trace: the solve-trace path over Synth logs written as binary
   traces, at three log sizes (of 24 generator seeds each). *)
let work_dir = Filename.concat ".bench_work" "offline-trace"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let offline_sizes = [ 600; 1200; 2400 ]

let offline =
  let spec events g =
    let key = Printf.sprintf "synth-%d-%d" events g in
    {
      skey = key;
      realize =
        (fun () ->
          mkdir_p work_dir;
          let path = Filename.concat work_dir (key ^ ".btrace") in
          let log = Synth.log ~seed:g ~addrs:40 ~threads:8 ~events () in
          Trace_io.save ~format:Trace_io.Binary log path;
          Solve_trace { path });
    }
  in
  {
    name = "offline-trace";
    groups = List.map (fun e -> List.init 24 (fun g -> spec e (g + 1))) offline_sizes;
    picks = 12;
  }

let workloads = [ corpus; long_tests_workload; offline ]

(* ------------------------------------------------------------------ *)
(* Verdicts and the reference *)

let verdict_strings vs =
  List.sort compare
    (List.map (fun (v : Verdict.t) -> Verdict.role_name v.role ^ " " ^ Opid.to_string v.op) vs)

let digest_of_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let verdict_digest vs = digest_of_lines (verdict_strings vs)

(* What the reference recorded for one input: the digest of its
   verdicts, the verdicts themselves for Synth traces (which plant no
   syncs, so they are scored against these), and the median op time
   the selection stratifies by. *)
type expected = { digest : string; verdicts : string list; ms : float }

type reference = {
  inputs : (string, expected) Hashtbl.t;
  default_digest : string;  (** over the default seed's inputs *)
}

let load_reference path workload =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let fail why = failwith (Printf.sprintf "%s: %s" path why) in
  match Json.of_string text with
  | Error e -> fail e
  | Ok j ->
    let w = Json.member workload (Json.member "workloads" j) in
    let inputs = Hashtbl.create 64 in
    (match Json.member "inputs" w with
    | Json.Obj kvs ->
      List.iter
        (fun (k, v) ->
          match (Json.member "digest" v, Json.member "ms" v) with
          | Json.Str digest, Json.Num ms ->
            let verdicts =
              List.map (function Json.Str s -> s | _ -> fail k) (Json.to_list (Json.member "verdicts" v))
            in
            Hashtbl.replace inputs k { digest; verdicts; ms }
          | _ -> fail ("malformed entry " ^ k))
        kvs
    | _ -> fail ("no inputs for workload " ^ workload));
    let default_digest =
      match Json.member "default_digest" w with Json.Str s -> s | _ -> ""
    in
    { inputs; default_digest }

let cost reference key =
  match Hashtbl.find_opt reference.inputs key with
  | Some e -> e.ms
  | None -> failwith ("input missing from the reference: " ^ key)

(* ------------------------------------------------------------------ *)
(* The untraced operation: what a user of the library calls. *)

type outcome = {
  verdicts : Verdict.t list;
  events : int;  (** events simulated, or loaded for a trace *)
  problem : string option;  (** the op failed before any verdict check *)
  clean : bool;  (** no run attempt failed, not even a retried one *)
}

let run_op input =
  match input.job with
  | Infer { subject; seed; _ } ->
    let r = Orchestrator.infer ~config:{ config with seed } subject in
    let rounds = r.Orchestrator.rounds in
    let problem =
      if List.exists (fun (r : Orchestrator.round_result) -> r.stats.degraded) rounds then
        Some "degraded LP round"
      else if
        List.exists
          (fun (r : Orchestrator.round_result) -> Orchestrator.incomplete_runs r.run_reports > 0)
          rounds
      then Some "dropped test"
      else None
    in
    let clean =
      List.for_all
        (fun (r : Orchestrator.round_result) -> Orchestrator.failed_runs r.run_reports = 0)
        rounds
    in
    { verdicts = r.final; events = (Observations.metrics r.observations).events; problem; clean }
  | Solve_trace { path } ->
    let log = Trace_io.load path in
    let obs = Observations.create () in
    Observations.add_log obs ~near:config.near ~cap:config.window_cap
      ~refine:config.use_refinement log;
    let verdicts, stats = Encoder.solve config obs in
    {
      verdicts;
      events = Log.length log;
      problem = (if stats.degraded then Some "degraded LP" else None);
      clean = true;
    }

(* ------------------------------------------------------------------ *)
(* The traced operation: the same pipeline driven from here, one timed
   span around each call into a layer. *)

(* Log-size buckets for the scaling baseline: doubling from 1k events. *)
let buckets = [| "lt1k"; "1k_2k"; "2k_4k"; "4k_8k"; "8k_16k"; "16k_32k"; "32k_64k"; "ge64k" |]

let bucket events =
  let rec go b limit =
    if b = Array.length buckets - 1 || events < limit then b else go (b + 1) (2 * limit)
  in
  go 0 1_000

type ledger = {
  mutable op_wall : float;
  mutable sim_s : float;
  mutable sim_runs : int;
  mutable sim_failed : int;
  mutable sim_events : int;
  mutable extract_s : float;
  mutable extract_events : int;
  mutable pairs_considered : int;
  mutable pairs_capped : int;
  mutable dyn_windows : int;
  extract_b_s : float array;
  extract_b_events : int array;
  mutable merge_s : float;
  mutable merged_windows : int;
  mutable solve_s : float;
  mutable solve_calls : int;
  mutable solve_vars : int;
  mutable solve_windows : int;
  solve_b_s : float array;
  solve_b_calls : int array;
  mutable lp_pivots : int;
  mutable lp_solves : int;
  mutable lp_warm : int;
  mutable lp_cold_restarts : int;
  mutable lp_refactors : int;
  mutable lp_presolve_rows : int;
  mutable lp_degraded : int;
  mutable io_s : float;
  mutable io_events : int;
  mutable plan_s : float;
  mutable delayed_ops : int;
}

let new_ledger () =
  {
    op_wall = 0.;
    sim_s = 0.;
    sim_runs = 0;
    sim_failed = 0;
    sim_events = 0;
    extract_s = 0.;
    extract_events = 0;
    pairs_considered = 0;
    pairs_capped = 0;
    dyn_windows = 0;
    extract_b_s = Array.make (Array.length buckets) 0.;
    extract_b_events = Array.make (Array.length buckets) 0;
    merge_s = 0.;
    merged_windows = 0;
    solve_s = 0.;
    solve_calls = 0;
    solve_vars = 0;
    solve_windows = 0;
    solve_b_s = Array.make (Array.length buckets) 0.;
    solve_b_calls = Array.make (Array.length buckets) 0;
    lp_pivots = 0;
    lp_solves = 0;
    lp_warm = 0;
    lp_cold_restarts = 0;
    lp_refactors = 0;
    lp_presolve_rows = 0;
    lp_degraded = 0;
    io_s = 0.;
    io_events = 0;
    plan_s = 0.;
    delayed_ops = 0;
  }

(* Run [f], returning its result and its wall-clock seconds.  An
   exception propagates after nothing is recorded. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let extract_and_merge (l : ledger) obs log =
  let n = Log.length log in
  let x, dt =
    timed (fun () ->
        Observations.extract_log ~jobs:1 ~near:config.near ~cap:config.window_cap
          ~refine:config.use_refinement log)
  in
  l.extract_s <- l.extract_s +. dt;
  l.extract_events <- l.extract_events + n;
  let b = bucket n in
  l.extract_b_s.(b) <- l.extract_b_s.(b) +. dt;
  l.extract_b_events.(b) <- l.extract_b_events.(b) + n;
  let m0 = Metrics.copy (Observations.metrics obs) in
  let (), dt = timed (fun () -> Observations.add_extraction obs x) in
  l.merge_s <- l.merge_s +. dt;
  let m = Observations.metrics obs in
  l.pairs_considered <- l.pairs_considered + (m.pairs_considered - m0.pairs_considered);
  l.pairs_capped <- l.pairs_capped + (m.pairs_capped - m0.pairs_capped);
  l.dyn_windows <- l.dyn_windows + (m.windows - m0.windows)

let solve (l : ledger) ?state ?previous cfg obs =
  let events = (Observations.metrics obs).events in
  let (verdicts, (stats : Encoder.solve_stats)), dt =
    timed (fun () -> Encoder.solve ?state ?previous cfg obs)
  in
  l.solve_s <- l.solve_s +. dt;
  l.solve_calls <- l.solve_calls + 1;
  l.solve_vars <- l.solve_vars + stats.num_vars;
  l.solve_windows <- l.solve_windows + stats.num_windows;
  let b = bucket events in
  l.solve_b_s.(b) <- l.solve_b_s.(b) +. dt;
  l.solve_b_calls.(b) <- l.solve_b_calls.(b) + 1;
  l.lp_pivots <- l.lp_pivots + stats.lp.lp_pivots;
  l.lp_solves <- l.lp_solves + stats.lp.lp_solves;
  l.lp_warm <- l.lp_warm + stats.lp.lp_warm_solves;
  l.lp_cold_restarts <- l.lp_cold_restarts + stats.lp.lp_cold_restarts;
  l.lp_refactors <- l.lp_refactors + stats.lp.lp_refactors;
  l.lp_presolve_rows <- l.lp_presolve_rows + stats.lp.lp_presolve_rows;
  if stats.degraded then l.lp_degraded <- l.lp_degraded + 1;
  (verdicts, stats)

(* The orchestrator's sequential loop rebuilt from its public pieces:
   same seeds, same delay plan, same warm encoder state.  A failed run
   fails the op (the orchestrator would retry it; the reference universe
   has none). *)
let replica (l : ledger) ~seed (subject : Orchestrator.subject) =
  let cfg = { config with seed } in
  let obs = Observations.create () in
  let state = Encoder.create_state () in
  let rec go round plan previous problem =
    if round > cfg.rounds then (previous, problem)
    else begin
      let problem = ref problem in
      List.iteri
        (fun test_index (_name, body) ->
          let seed = Orchestrator.test_seed ~base:cfg.seed ~round ~test_index in
          let t0 = now () in
          let run () =
            Runtime.run ~seed
              ~instrument:(Runtime.tracing ~delay_before:(Perturber.delay_before plan) ())
              ~fault:cfg.fault_plan ~max_steps:cfg.max_steps body
          in
          match run () with
          | log ->
            l.sim_s <- l.sim_s +. (now () -. t0);
            l.sim_runs <- l.sim_runs + 1;
            l.sim_events <- l.sim_events + Log.length log;
            extract_and_merge l obs log
          | exception e ->
            l.sim_s <- l.sim_s +. (now () -. t0);
            l.sim_runs <- l.sim_runs + 1;
            l.sim_failed <- l.sim_failed + 1;
            problem := Some ("run failed: " ^ Printexc.to_string e))
        subject.tests;
      let verdicts, stats = solve l ~state ~previous cfg obs in
      if stats.degraded then problem := Some "degraded LP round";
      let plan, dt = timed (fun () -> Perturber.of_verdicts ~delay_us:cfg.delay_us verdicts) in
      l.plan_s <- l.plan_s +. dt;
      l.delayed_ops <- l.delayed_ops + Perturber.size plan;
      go (round + 1) plan verdicts !problem
    end
  in
  let verdicts, problem = go 1 Perturber.empty [] None in
  l.merged_windows <- l.merged_windows + Observations.window_count obs;
  { verdicts; events = (Observations.metrics obs).events; problem; clean = problem = None }

let traced_op (l : ledger) input =
  match input.job with
  | Infer { subject; seed; _ } -> replica l ~seed subject
  | Solve_trace { path } ->
    let log, dt = timed (fun () -> Trace_io.load path) in
    l.io_s <- l.io_s +. dt;
    l.io_events <- l.io_events + Log.length log;
    let obs = Observations.create () in
    extract_and_merge l obs log;
    l.merged_windows <- l.merged_windows + Observations.window_count obs;
    let verdicts, stats = solve l config obs in
    {
      verdicts;
      events = Log.length log;
      problem = (if stats.degraded then Some "degraded LP" else None);
      clean = true;
    }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* The highest percentile, to a tenth, with at least ten samples beyond
   it (at least the median).  It moves smoothly with the op count, so a
   run a little faster or slower reports nearly the same statistic. *)
let tail_percentile n = Float.max 50. (Float.floor (1000. *. (1. -. (10. /. float_of_int n))) /. 10.)

let ratio a b = if b = 0. then 0. else a /. b

let fratio a b = ratio (float_of_int a) (float_of_int b)

type metric = { mname : string; value : float; unit_ : string }

let m mname value unit_ = { mname; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "%-28s %.6g %s\n" x.mname x.value x.unit_) metrics;
  let num f = if Float.is_finite f then Json.Num f else Json.Null in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     (x.mname, Json.Obj [ ("value", num x.value); ("unit", Json.Str x.unit_) ]))
                   metrics) );
          ]))

(* ------------------------------------------------------------------ *)
(* Machine speed *)

(* The host's speed drifts by a fifth and more over seconds (other
   tenants share the cores), which would swamp any regression a bound
   could catch.  So the loop times a fixed stdlib-only kernel every
   0.2 s, and every reported time is scaled to a host on which the
   kernel takes [nominal_cal_s]: an op's raw seconds times
   [nominal_cal_s / median of the last five kernel times].  No library
   code runs in the kernel, so a change to the library cannot move the
   scale.  The raw figures are printed beside the scaled ones. *)
module Int_map = Map.Make (Int)

let nominal_cal_s = 0.003

let calibration_kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 5_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) i
  done;
  let m = ref Int_map.empty in
  for i = 0 to 2_500 do
    m := Int_map.add ((i * 31) land 8191) i !m
  done;
  let a = Array.init 5_000 (fun i -> (i * 2654435761) land 0xfffff) in
  Array.sort compare a;
  let l = List.init 5_000 string_of_int in
  ignore (Sys.opaque_identity (h, !m, a, List.rev_map String.length l))

let cal_samples = ref []

let calibrate () =
  let (), dt = timed calibration_kernel in
  cal_samples := dt :: !cal_samples

(* Multiply raw seconds by this to get scaled seconds: from the last
   five samples, or from all of them with [~all]. *)
let speed_scale ?(all = false) () =
  let recent = if all then !cal_samples else List.filteri (fun i _ -> i < 5) !cal_samples in
  nominal_cal_s /. median recent

let print_calibration () =
  Printf.printf "calibration kernel: median %.4f ms over %d samples (nominal %.1f ms)\n"
    (1000. *. median !cal_samples) (List.length !cal_samples) (nominal_cal_s *. 1000.)

(* ------------------------------------------------------------------ *)
(* Runs *)

(* One op of the loop.  Outcomes are not kept (a long run would grow
   the heap the benchmark measures); only each input's first one is. *)
type op_record = {
  op_key : string;
  latency : float;  (** raw seconds *)
  scaled : float;  (** seconds at the nominal host speed *)
  events : int;
  mutable ok : bool;
}

let check reference input out =
  match out.problem with
  | Some p -> Error p
  | None -> (
    match Hashtbl.find_opt reference.inputs input.key with
    | None -> Error "input missing from the reference"
    | Some expected ->
      if verdict_digest out.verdicts = expected.digest then Ok ()
      else Error "verdicts differ from the reference")

(* Closed loop: ops cycle through [inputs] until they have taken
   [seconds] of scaled time, then finish the cycle in progress, so every
   input runs equally often and the op count does not follow the host's
   speed.  (A host more than twice slower than nominal stops at the
   first cycle end after [2 * seconds] of wall-clock.)  A
   calibration sample is taken between ops every 0.2 s.  Returns every
   op's record and each input's first outcome, in selection order. *)
let loop ~seconds ~reference inputs op =
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let t_start = now () in
  let records = ref [] and firsts = ref [] in
  let i = ref 0 and last_cal = ref 0. and busy = ref 0. in
  calibrate ();
  while
    !i mod n <> 0 || !i = 0 || (!busy < seconds && now () -. t_start < 2. *. seconds)
  do
    if now () -. !last_cal >= 0.2 then begin
      calibrate ();
      last_cal := now ()
    end;
    let input = inputs.(!i mod n) in
    let out, latency =
      timed (fun () ->
          try op input
          with e ->
            { verdicts = []; events = 0; problem = Some (Printexc.to_string e); clean = false })
    in
    let ok =
      match check reference input out with
      | Ok () -> true
      | Error why ->
        Printf.printf "FAILED op %d (%s): %s\n%!" !i input.key why;
        false
    in
    if !i < n then firsts := (input, out) :: !firsts;
    let scaled = latency *. speed_scale () in
    busy := !busy +. scaled;
    records := { op_key = input.key; latency; scaled; events = out.events; ok } :: !records;
    incr i
  done;
  (List.rev !records, List.rev !firsts)

let workload_digest firsts =
  digest_of_lines (List.map (fun (input, out) -> input.key ^ " " ^ verdict_digest out.verdicts) firsts)

(* Precision and recall of the verdicts, one count per input: against
   the hand-written ground truth for corpus apps, the planted syncs for
   generated subjects, and the reference verdicts for Synth traces
   (which plant no syncs). *)
let scores reference firsts =
  let correct, inferred, truth =
    List.fold_left
      (fun (c, i, t) (input, out) ->
        match input.job with
        | Infer { truth = gt; _ } ->
          let rep = Report.classify gt out.verdicts in
          let nc = Report.num_correct rep in
          (c + nc, i + Report.num_inferred rep, t + nc + List.length rep.missed)
        | Solve_trace _ ->
          let got = verdict_strings out.verdicts in
          let expected =
            match Hashtbl.find_opt reference.inputs input.key with
            | Some e -> e.verdicts
            | None -> []
          in
          let hit = List.length (List.filter (fun v -> List.mem v expected) got) in
          (c + hit, i + List.length got, t + List.length expected))
      (0, 0, 0) firsts
  in
  (fratio correct inferred, fratio correct truth, (correct, inferred))

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Set-up: load the reference, build the seed's inputs (subjects, or
   Synth logs written as binary traces), and warm up with one op per
   group on the group's costliest input in the whole universe, the same
   for every seed, so that set-up time and the heap's high-water mark
   do not hinge on whether a seed drew that input.  Done five times,
   each after three calibration samples that scale it; returns the
   inputs, the reference, and the median raw and scaled set-up
   seconds. *)
let setup w ~seed ~reference_path =
  let once () =
    for _ = 1 to 3 do
      calibrate ()
    done;
    let t0 = now () in
    let reference = load_reference reference_path w.name in
    let inputs = List.map realize (select w ~cost:(cost reference) seed) in
    List.iter
      (fun group ->
        let costliest =
          List.fold_left
            (fun a b -> if cost reference b.skey > cost reference a.skey then b else a)
            (List.hd group) group
        in
        ignore (run_op (realize costliest)))
      w.groups;
    let dt = now () -. t0 in
    ((inputs, reference), dt, dt *. speed_scale ())
  in
  let runs = List.init 5 (fun _ -> once ()) in
  let (inputs, reference), _, _ = List.hd runs in
  (inputs, reference, median (List.map (fun (_, raw, _) -> raw) runs),
   median (List.map (fun (_, _, scaled) -> scaled) runs))

let untraced w ~seed ~seconds ~reference_path =
  let inputs, reference, setup_raw, setup_s = setup w ~seed ~reference_path in
  let records, firsts = loop ~seconds ~reference inputs run_op in
  let digest = workload_digest firsts in
  Printf.printf "workload %s seed %d: %d inputs, verdict digest %s\n" w.name seed
    (List.length inputs) digest;
  if seed = default_seed && digest <> reference.default_digest then begin
    Printf.printf "FAILED: verdict digest differs from the reference %s\n"
      reference.default_digest;
    List.iter (fun r -> r.ok <- false) records
  end;
  let n = List.length records in
  let failed = List.length (List.filter (fun r -> not r.ok) records) in
  let sorted_ms f =
    let a = Array.of_list (List.map (fun r -> 1000. *. f r) records) in
    Array.sort compare a;
    a
  in
  let raw = sorted_ms (fun r -> r.latency) and lat = sorted_ms (fun r -> r.scaled) in
  let p_tail = tail_percentile n in
  let events = List.fold_left (fun acc r -> acc + r.events) 0 records in
  let busy = List.fold_left (fun acc r -> acc +. r.scaled) 0. records in
  print_calibration ();
  Printf.printf "op_tail_ms is p%g of %d ops\n" p_tail n;
  Printf.printf "raw: op p50 %.4f ms, op p%g %.4f ms, setup %.4f s\n" (percentile raw 50.)
    p_tail (percentile raw p_tail) setup_raw;
  let precision, recall, (correct, inferred) = scores reference firsts in
  Printf.printf "verdicts: %d correct of %d inferred\n" correct inferred;
  let metrics =
    [
      m "setup_s" setup_s "s";
      m "op_p50_ms" (percentile lat 50.) "ms";
      m "op_tail_ms" (percentile lat p_tail) "ms";
      m "ops_per_s" (float_of_int n /. busy) "1/s";
      m "events_per_s" (float_of_int events /. busy) "1/s";
      m "peak_heap_mb" (heap_mb ()) "MB";
      m "ok_ratio" (fratio (n - failed) n) "ratio";
      m "verdict_precision" precision "ratio";
      m "verdict_recall" recall "ratio";
    ]
  in
  print_result ~correct:(failed = 0) ~attempted:n ~failed metrics;
  failed = 0

let traced w ~seed ~seconds ~reference_path =
  let inputs, reference, _, _ = setup w ~seed ~reference_path in
  let l = new_ledger () in
  let op input =
    let out, dt = timed (fun () -> traced_op l input) in
    l.op_wall <- l.op_wall +. dt;
    out
  in
  let records, firsts = loop ~seconds ~reference inputs op in
  (* Replica identity: every traced op's verdicts must equal those of
     the untraced op on the same input, run once per input here; the
     same pass times the untraced op (scaled, like the traced ones) for
     the overhead ratio. *)
  let traced_t = ref 0. and untraced_t = ref 0. in
  List.iter
    (fun (input, traced_out) ->
      let same = List.filter (fun r -> r.op_key = input.key) records in
      calibrate ();
      let out, dt = timed (fun () -> run_op input) in
      traced_t := !traced_t +. median (List.map (fun r -> r.scaled) same);
      untraced_t := !untraced_t +. (dt *. speed_scale ());
      (* Later traced ops of the input passed the reference check, as
         this first one must have, so comparing the first suffices. *)
      if verdict_strings traced_out.verdicts <> verdict_strings out.verdicts then begin
        Printf.printf "FAILED: traced ops on %s differ from the untraced op\n" input.key;
        List.iter (fun r -> r.ok <- false) same
      end)
    firsts;
  let n = List.length records in
  let failed = List.length (List.filter (fun r -> not r.ok) records) in
  let per_op x = x /. float_of_int n in
  let share x = ratio x l.op_wall in
  print_calibration ();
  let scale = speed_scale ~all:true () in
  let secs x = x *. scale in
  let attributed = l.sim_s +. l.extract_s +. l.merge_s +. l.solve_s +. l.io_s +. l.plan_s in
  let metrics =
    [
      m "sim.busy_s" (per_op (secs l.sim_s)) "s/op";
      m "sim.share" (share l.sim_s) "ratio";
      m "sim.runs" (per_op (float_of_int l.sim_runs)) "count/op";
      m "sim.failed_runs" (float_of_int l.sim_failed) "count";
      m "sim.events_per_s" (ratio (float_of_int l.sim_events) (secs l.sim_s)) "1/s";
      m "extract.busy_s" (per_op (secs l.extract_s)) "s/op";
      m "extract.share" (share l.extract_s) "ratio";
      m "extract.events_per_s" (ratio (float_of_int l.extract_events) (secs l.extract_s)) "1/s";
      m "extract.pairs_considered" (per_op (float_of_int l.pairs_considered)) "count/op";
      m "extract.windows" (per_op (float_of_int l.dyn_windows)) "count/op";
      m "extract.window_yield" (fratio l.dyn_windows l.pairs_considered) "ratio";
      m "extract.pairs_capped" (per_op (float_of_int l.pairs_capped)) "count/op";
      m "merge.busy_s" (per_op (secs l.merge_s)) "s/op";
      m "merge.share" (share l.merge_s) "ratio";
      m "merge.dedup_ratio" (fratio l.merged_windows l.dyn_windows) "ratio";
      m "solve.busy_s" (per_op (secs l.solve_s)) "s/op";
      m "solve.share" (share l.solve_s) "ratio";
      m "solve.calls" (per_op (float_of_int l.solve_calls)) "count/op";
      m "solve.vars" (fratio l.solve_vars l.solve_calls) "count/call";
      m "solve.windows" (fratio l.solve_windows l.solve_calls) "count/call";
      m "lp.pivots" (per_op (float_of_int l.lp_pivots)) "count/op";
      m "lp.solves" (per_op (float_of_int l.lp_solves)) "count/op";
      m "lp.warm_ratio" (fratio l.lp_warm l.lp_solves) "ratio";
      m "lp.cold_restarts" (per_op (float_of_int l.lp_cold_restarts)) "count/op";
      m "lp.refactors" (per_op (float_of_int l.lp_refactors)) "count/op";
      m "lp.presolve_rows" (per_op (float_of_int l.lp_presolve_rows)) "count/op";
      m "lp.degraded" (float_of_int l.lp_degraded) "count";
      m "trace_io.busy_s" (per_op (secs l.io_s)) "s/op";
      m "trace_io.share" (share l.io_s) "ratio";
      m "trace_io.events_per_s" (ratio (float_of_int l.io_events) (secs l.io_s)) "1/s";
      m "plan.busy_s" (per_op (secs l.plan_s)) "s/op";
      m "plan.delayed_ops" (per_op (float_of_int l.delayed_ops)) "count/op";
      m "unattributed_share" (1. -. share attributed) "ratio";
      m "trace_overhead_ratio" (ratio !traced_t !untraced_t) "ratio";
    ]
    @ List.concat
        (List.mapi
           (fun b name ->
             [
               m ("extract.events_per_s." ^ name)
                 (ratio (float_of_int l.extract_b_events.(b)) (secs l.extract_b_s.(b)))
                 "1/s";
               m ("solve.busy_s." ^ name)
                 (ratio (secs l.solve_b_s.(b)) (float_of_int l.solve_b_calls.(b)))
                 "s/call";
             ])
           (Array.to_list buckets))
  in
  Array.iteri
    (fun b name ->
      if l.solve_b_calls.(b) > 0 then
        Printf.printf "solve calls over logs of %s events: %d\n" name l.solve_b_calls.(b))
    buckets;
  print_result ~correct:(failed = 0) ~attempted:n ~failed metrics;
  failed = 0

(* Regenerate the reference: every input of every universe, run five
   times for its median scaled cost.  An input that fails (degraded LP, dropped
   test), needed a retry, or is not deterministic would make the
   benchmark fail on some seed, so it aborts the write. *)
let write_reference path =
  let workload_json w =
    let inputs =
      List.map
        (fun s ->
          let input = realize s in
          (* Each run's time is scaled by calibration samples taken right
             before it, so drift during the write does not skew costs. *)
          let scaled_run () =
            let cal = median (List.init 3 (fun _ -> snd (timed calibration_kernel))) in
            let out, dt = timed (fun () -> run_op input) in
            (out, dt *. nominal_cal_s /. cal)
          in
          let runs = List.init 5 (fun _ -> scaled_run ()) in
          let out = fst (List.hd runs) in
          let fail why = failwith (Printf.sprintf "%s: %s" input.key why) in
          (match out.problem with
          | Some p -> fail p
          | None -> if not out.clean then fail "a run was retried");
          let digest = verdict_digest out.verdicts in
          if List.exists (fun (o, _) -> verdict_digest o.verdicts <> digest) runs then
            fail "verdicts differ between runs";
          (* Rounded to the microsecond as written, so the default seed's
             selection below matches the one made from the file. *)
          let ms = Float.round (1e6 *. median (List.map snd runs)) /. 1000. in
          Printf.printf "%s %s: %d verdicts, %d events, %.1f ms\n%!" w.name input.key
            (List.length out.verdicts) out.events ms;
          let verdicts =
            match input.job with
            | Solve_trace _ -> verdict_strings out.verdicts
            | Infer _ -> []
          in
          (input.key, { digest; verdicts; ms }))
        (universe w)
    in
    let default_digest =
      digest_of_lines
        (List.map
           (fun s -> s.skey ^ " " ^ (List.assoc s.skey inputs).digest)
           (select w ~cost:(fun k -> (List.assoc k inputs).ms) default_seed))
    in
    let entry e =
      Json.Obj
        ([ ("digest", Json.Str e.digest); ("ms", Json.Num e.ms) ]
        @ if e.verdicts = [] then [] else [ ("verdicts", Json.Arr (List.map (fun v -> Json.Str v) e.verdicts)) ])
    in
    ( w.name,
      Json.Obj
        [
          ("default_digest", Json.Str default_digest);
          ("inputs", Json.Obj (List.map (fun (k, e) -> (k, entry e)) inputs));
        ] )
  in
  let j =
    Json.Obj
      [
        ("default_seed", Json.Num (float_of_int default_seed));
        ("workloads", Json.Obj (List.map workload_json workloads));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref 0 and reference_path = ref (Filename.concat "perfbench" "reference.json")
  and inputs_only = ref false and write_to = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME corpus | long-tests | offline-trace");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer ledger");
      ("--reference", Arg.Set_string reference_path, "FILE verdict reference");
      ("--inputs", Arg.Set inputs_only, " print the inputs the seed draws and exit");
      ("--write-reference", Arg.Set_string write_to, "FILE regenerate the reference");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !write_to <> "" then write_reference !write_to
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    | Some w ->
      if !inputs_only then begin
        let reference = load_reference !reference_path w.name in
        List.iter (fun s -> print_endline s.skey) (select w ~cost:(cost reference) !seed)
      end
      else begin
        let ok =
          (if !trace = 0 then untraced else traced)
            w ~seed:!seed ~seconds:!seconds ~reference_path:!reference_path
        in
        if not ok then exit 1
      end

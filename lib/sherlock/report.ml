open Sherlock_trace

type verdict_class =
  | Correct of Ground_truth.entry
  | Data_racy
  | Instr_error
  | Not_sync

type t = {
  classified : (Verdict.t * verdict_class) list;
  missed : Ground_truth.entry list;
}

let classify_one (gt : Ground_truth.t) (v : Verdict.t) =
  match Ground_truth.find gt v.op v.role with
  | Some entry -> Correct entry
  | None ->
    if Opid.is_access v.op && Ground_truth.is_racy_field gt (Opid.field_key v.op) then
      Data_racy
    else if List.mem v.op.cls gt.error_scope then Instr_error
    else Not_sync

let classify gt verdicts =
  let classified = List.map (fun v -> (v, classify_one gt v)) verdicts in
  let inferred_ok (entry : Ground_truth.entry) =
    List.exists
      (function
        | _, Correct (e : Ground_truth.entry) ->
          Opid.equal e.op entry.op && e.role = entry.role
        | _ -> false)
      classified
  in
  let missed = List.filter (fun e -> not (inferred_ok e)) gt.syncs in
  { classified; missed }

let count t cls =
  let matches = function
    | Correct _, Correct _ | Data_racy, Data_racy | Instr_error, Instr_error
    | Not_sync, Not_sync ->
      true
    | (Correct _ | Data_racy | Instr_error | Not_sync), _ -> false
  in
  List.length (List.filter (fun (_, c) -> matches (c, cls)) t.classified)

let num_correct t =
  List.length
    (List.filter (function _, Correct _ -> true | _ -> false) t.classified)

let num_inferred t = List.length t.classified

let precision t =
  if num_inferred t = 0 then nan
  else float_of_int (num_correct t) /. float_of_int (num_inferred t)

(* The [nan] from [precision] must not leak into user-facing output as
   "nan%": zero inferred verdicts prints as "n/a". *)
let precision_string t =
  if num_inferred t = 0 then "n/a"
  else Printf.sprintf "%.0f%%" (100.0 *. precision t)

let correct_ops t =
  List.filter_map (function v, Correct e -> Some (v, e) | _ -> None) t.classified

let false_positive_cause (gt : Ground_truth.t) (v : Verdict.t) =
  if List.mem v.op.cls gt.error_scope then Ground_truth.Instr_error
  else if
    v.op.member = "UpgradeToWriterLock" || v.op.member = "DowngradeFromWriterLock"
  then Ground_truth.Double_role
  else if v.op.member = "Finalize" || v.op.member = "Dispose" then Ground_truth.Dispose
  else if v.op.member = ".cctor" then Ground_truth.Static_ctor
  else Ground_truth.Other_cause

(* Each round's [stats.trace] is the cumulative metrics snapshot at that
   round's solve (which stays meaningful when [accumulate] is off and the
   observation state resets per round); every cell also shows the delta
   against the previous round, so round-over-round cost reads directly
   off the table. *)
let print_round_metrics ppf (rounds : Orchestrator.round_result list) =
  let table =
    Sherlock_util.Table.create
      ~title:"Per-round trace metrics (cumulative, +delta vs previous round)"
      ~header:
        [
          "Round"; "Events"; "Pairs"; "Capped"; "Windows"; "Races"; "Inj";
          "Failed"; "Lost"; "LP"; "Pivots"; "Rows out"; "Run s"; "Extract s";
          "Solve s";
        ]
  in
  let int_cell cum prev = Printf.sprintf "%d (+%d)" cum (cum - prev) in
  let sec_cell cum prev = Printf.sprintf "%.3f (+%.3f)" cum (cum -. prev) in
  (* The LP cells are per-round, not cumulative: each round's
     [stats.lp] already covers just that round's solve sequence. *)
  let lp_cell (l : Encoder.lp_stats) =
    if l.lp_warm_solves > 0 then "warm" else "cold"
  in
  let pivots_cell (l : Encoder.lp_stats) =
    let base =
      if l.lp_pivots_saved > 0 then
        Printf.sprintf "%d (-%d)" l.lp_pivots l.lp_pivots_saved
      else string_of_int l.lp_pivots
    in
    if l.lp_refactors > 0 then
      Printf.sprintf "%s f%d e%d" base l.lp_refactors l.lp_eta_len
    else base
  in
  (* Rows kept out of the simplex: hinge sides merged or skipped as
     already racy ([r]), and cap rows turned into column bounds ([b]). *)
  let rows_out_cell (l : Encoder.lp_stats) =
    Printf.sprintf "r%d b%d" l.lp_presolve_rows l.lp_bound_rows_saved
  in
  let prev = ref (Metrics.create ()) in
  List.iter
    (fun (r : Orchestrator.round_result) ->
      let m = r.stats.trace and p = !prev in
      Sherlock_util.Table.add_row table
        [
          string_of_int r.round;
          int_cell m.events p.events;
          int_cell m.pairs_considered p.pairs_considered;
          int_cell m.pairs_capped p.pairs_capped;
          int_cell m.windows p.windows;
          int_cell m.races p.races;
          string_of_int (Orchestrator.injected_faults r.run_reports);
          string_of_int (Orchestrator.failed_runs r.run_reports);
          string_of_int (Orchestrator.incomplete_runs r.run_reports);
          (if r.stats.degraded then "degraded" else lp_cell r.stats.lp);
          pivots_cell r.stats.lp;
          rows_out_cell r.stats.lp;
          sec_cell m.run_s p.run_s;
          sec_cell m.extract_s p.extract_s;
          sec_cell m.solve_s p.solve_s;
        ];
      prev := m)
    rounds;
  Format.fprintf ppf "%s@." (Sherlock_util.Table.render table)

(* Extraction-cache telemetry for the -v report.  The span-cache and
   shard counters are recorded unconditionally (cold aggregation, once
   per extraction), so this reads real numbers on plain runs — no
   --telemetry-out needed. *)
let print_extraction_summary ppf () =
  let module Tm = Sherlock_telemetry.Metrics in
  let v name = Tm.Counter.value (Tm.counter name) in
  let hits = v "windows.span_cache.hit" in
  let misses = v "windows.span_cache.miss" in
  let shards = v "windows.shards" in
  if hits + misses > 0 then
    Format.fprintf ppf "extraction: span cache %.1f%% hit (%d of %d lookups)%s@."
      (100.0 *. float_of_int hits /. float_of_int (hits + misses))
      hits (hits + misses)
      (if shards > 0 then Printf.sprintf ", %d parallel shards" shards else "")

(* One line per failed attempt, in (round, test) order; silent when the
   whole inference was clean. *)
let print_run_failures ppf (rounds : Orchestrator.round_result list) =
  let any =
    List.exists
      (fun (r : Orchestrator.round_result) ->
        Orchestrator.failed_runs r.run_reports > 0)
      rounds
  in
  if any then begin
    Format.fprintf ppf "Failed runs:@.";
    List.iter
      (fun (r : Orchestrator.round_result) ->
        List.iter
          (fun (rep : Orchestrator.run_report) ->
            List.iteri
              (fun attempt f ->
                Format.fprintf ppf "  round %d  %-24s attempt %d/%d: %s%s@."
                  r.round rep.test_name (attempt + 1) rep.attempts
                  (Orchestrator.failure_to_string f)
                  (if (not rep.completed) && attempt + 1 = rep.attempts then
                     "  [dropped]"
                   else ""))
              rep.failures)
          r.run_reports)
      rounds
  end

let print_sites ppf ~app verdicts gt =
  let describe (v : Verdict.t) =
    match Ground_truth.find gt v.op v.role with
    | Some e -> Printf.sprintf "%-70s %s" (Opid.to_string v.op) e.description
    | None -> Opid.to_string v.op
  in
  Format.fprintf ppf "App:%s@." app;
  Format.fprintf ppf "Releasing sites:@.";
  List.iter
    (fun v -> Format.fprintf ppf "  %s@." (describe v))
    (Verdict.releases verdicts);
  Format.fprintf ppf "Acquire sites:@.";
  List.iter
    (fun v -> Format.fprintf ppf "  %s@." (describe v))
    (Verdict.acquires verdicts)

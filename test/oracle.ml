open Sherlock_trace
module Observations = Sherlock_core.Observations
module Linexpr = Sherlock_lp.Linexpr

let percentile_rank xs x =
  match xs with
  | [] -> 0.0
  | _ ->
    let below = List.length (List.filter (fun y -> y < x) xs) in
    float_of_int below /. float_of_int (List.length xs)

let avg_occurrence obs op =
  let total, count =
    List.fold_left
      (fun (total, count) (w : Observations.merged_window) ->
        let tally side (total, count) =
          match Opid.Map.find_opt op side with
          | Some n -> (total + (n * w.weight), count + w.weight)
          | None -> (total, count)
        in
        tally w.rel (tally w.acq (total, count)))
      (0, 0) (Observations.windows obs)
  in
  if count = 0 then 0.0 else float_of_int total /. float_of_int count

let cv_percentile durs key =
  let all = List.map (Durations.cv durs) (Durations.methods durs) in
  percentile_rank all (Durations.cv durs key)

module Int_map = Map.Make (Int)

let linexpr_add a b =
  let coeffs e = Int_map.of_list (Linexpr.terms e) in
  let sum =
    Int_map.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y ->
          let s = x +. y in
          if s = 0.0 then None else Some s
        | (Some _ as x), None | None, (Some _ as x) -> x
        | None, None -> None)
      (coeffs a) (coeffs b)
  in
  (Int_map.bindings sum, Linexpr.constant a +. Linexpr.constant b)

(* The candidate scan as a nested loop over every later access in reach. *)
let scan_address ~near ~cap ~pair_counts ~on_capped ~emit
    (accesses : Event.t array) =
  let n = Array.length accesses in
  let count key =
    match Hashtbl.find_opt pair_counts key with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add pair_counts key r;
      r
  in
  let conflicting (a : Event.t) (b : Event.t) =
    a.op.kind = Opid.Write || b.op.kind = Opid.Write
  in
  let ops =
    Array.fold_left
      (fun acc (e : Event.t) -> if List.mem e.op acc then acc else e.op :: acc)
      [] accesses
  in
  let live = ref 0 in
  List.iter
    (fun (x : Opid.t) ->
      List.iter
        (fun (y : Opid.t) ->
          if (x.kind = Opid.Write || y.kind = Opid.Write) && !(count (x, y)) < cap
          then incr live)
        ops)
    ops;
  try
    if !live = 0 then raise Exit;
    for i = 0 to n - 1 do
      let a = accesses.(i) in
      let j = ref (i + 1) in
      while !j < n && accesses.(!j).time - a.time <= near do
        let b = accesses.(!j) in
        if a.tid <> b.tid && conflicting a b then begin
          let c = count (a.op, b.op) in
          if !c < cap then begin
            incr c;
            if !c = cap then begin
              on_capped ();
              decr live
            end;
            emit a b;
            if !live = 0 then raise Exit
          end
        end;
        incr j
      done
    done
  with Exit -> ()

let span_side (log : Log.t) ~tid ~lo ~hi =
  Array.fold_left
    (fun acc (e : Event.t) ->
      if e.tid = tid && e.time >= lo && e.time <= hi then
        Opid.Map.update e.op (function None -> Some 1 | Some n -> Some (n + 1)) acc
      else acc)
    Opid.Map.empty log.events

(* Today's schedule visits only the steps a column reaches; the dense
   scan before it visited every earlier step for every column. *)
let lu_factorize ~m ~col =
  Sherlock_lp.Lu.factorize_scheduled ~m ~col ~eliminate:(fun ~steps apply ->
      for s = 0 to steps - 1 do
        apply s
      done)

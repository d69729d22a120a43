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

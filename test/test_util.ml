(* Tests for the utility library: deterministic RNG, statistics, and the
   ASCII table renderer. *)

module Rng = Sherlock_util.Rng
module Stats = Sherlock_util.Stats
module Table = Sherlock_util.Table

let check = Alcotest.check

(* --- Rng --- *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues stream" (Rng.bits64 a) (Rng.bits64 b)

let test_split_diverges () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check Alcotest.bool "split independent" true (Rng.bits64 a <> Rng.bits64 b)

let test_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check Alcotest.bool "in [0,17)" true (v >= 0 && v < 17)
  done

let test_int_rejects_nonpositive () =
  let r = Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_range_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 500 do
    let v = Rng.range r 10 20 in
    check Alcotest.bool "in [10,20]" true (v >= 10 && v <= 20)
  done

let test_range_singleton () =
  let r = Rng.create 5 in
  check Alcotest.int "lo=hi" 4 (Rng.range r 4 4)

let test_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 500 do
    let v = Rng.float r 2.5 in
    check Alcotest.bool "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_shuffle_permutation () =
  let r = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_pick_member () =
  let r = Rng.create 17 in
  for _ = 1 to 100 do
    let v = Rng.pick r [ 1; 2; 3 ] in
    check Alcotest.bool "member" true (List.mem v [ 1; 2; 3 ])
  done

let test_pick_empty () =
  let r = Rng.create 17 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick r []))

let test_bool_mixes () =
  let r = Rng.create 23 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool r then incr trues
  done;
  check Alcotest.bool "roughly fair" true (!trues > 300 && !trues < 700)

(* --- Stats --- *)

let feq = Alcotest.float 1e-9

let test_mean () =
  check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check feq "mean empty" 0.0 (Stats.mean [])

let test_stddev () =
  check feq "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check feq "short" 0.0 (Stats.stddev [ 5.0 ]);
  check (Alcotest.float 1e-6) "known" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_cv () =
  check feq "zero mean" 0.0 (Stats.coefficient_of_variation [ 0.0; 0.0 ]);
  check (Alcotest.float 1e-6) "cv"
    (sqrt (2.0 /. 3.0) /. 2.0)
    (Stats.coefficient_of_variation [ 1.0; 2.0; 3.0 ])

let test_percentile_rank () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  check feq "below all" 0.0 (Oracle.percentile_rank xs 1.0);
  check feq "above all" 1.0 (Oracle.percentile_rank xs 5.0);
  check feq "middle" 0.5 (Oracle.percentile_rank xs 3.0);
  check feq "empty" 0.0 (Oracle.percentile_rank [] 3.0)

let test_median () =
  check feq "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check feq "empty" 0.0 (Stats.median [])

let test_sum () = check feq "sum" 6.0 (Stats.sum [ 1.0; 2.0; 3.0 ])

(* --- Table --- *)

let test_table_alignment () =
  let t = Table.create ~title:"T" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "xxx"; "y" ];
  Table.add_row t [ "z" ];
  let s = Table.render t in
  check Alcotest.bool "contains title" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check Alcotest.bool "has rows" true (List.length lines >= 5)

let test_table_separator () =
  let t = Table.create ~title:"T" ~header:[ "a" ] in
  Table.add_row t [ "1" ];
  Table.add_separator t;
  Table.add_row t [ "2" ];
  let s = Table.render t in
  let dashes = List.filter (fun l -> String.length l > 0 && l.[0] = '-')
      (String.split_on_char '\n' s) in
  check Alcotest.int "three rules" 3 (List.length dashes)

(* --- properties --- *)

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Stats.mean xs in
      m >= List.fold_left min infinity xs -. 1e-9
      && m <= List.fold_left max neg_infinity xs +. 1e-9)

let prop_stddev_nonneg =
  QCheck.Test.make ~name:"stddev non-negative" ~count:200
    QCheck.(list (float_range (-100.) 100.))
    (fun xs -> Stats.stddev xs >= 0.0)

let prop_percentile_in_unit =
  QCheck.Test.make ~name:"percentile rank in [0,1]" ~count:200
    QCheck.(pair (list (float_range 0. 10.)) (float_range 0. 10.))
    (fun (xs, x) ->
      let p = Oracle.percentile_rank xs x in
      p >= 0.0 && p <= 1.0)

(* --- worker pool --- *)

module Pool = Sherlock_util.Pool

(* A poisoned item must cancel everything not yet started: the failing
   map drains the shared counter, so with [domains:1] (the caller is the
   only participant, items claimed strictly in order) exactly one item
   executes before the exception re-raises. *)
let test_pool_poisoned_item_cancels () =
  let p = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.retire p) @@ fun () ->
  let n = 1000 in
  let executed = Atomic.make 0 in
  (match
     Pool.parallel_map ~pool:p ~domains:1
       (fun _ v ->
         ignore (Atomic.fetch_and_add executed 1);
         if v = 0 then failwith "poisoned";
         v)
       (Array.init n Fun.id)
   with
  | _ -> Alcotest.fail "poisoned map returned"
  | exception Failure msg -> check Alcotest.string "exception re-raised" "poisoned" msg);
  check Alcotest.int "outstanding items cancelled" 1 (Atomic.get executed)

(* Same poison under real parallelism: each in-flight domain may finish
   the item it already claimed, but the drain must stop the sweep well
   short of the full array. *)
let test_pool_poisoned_item_parallel () =
  let p = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.retire p) @@ fun () ->
  let n = 100_000 in
  let executed = Atomic.make 0 in
  (match
     Pool.parallel_map ~pool:p ~domains:4
       (fun _ v ->
         ignore (Atomic.fetch_and_add executed 1);
         if v = 0 then failwith "poisoned";
         v)
       (Array.init n Fun.id)
   with
  | _ -> Alcotest.fail "poisoned map returned"
  | exception Failure _ -> ());
  check Alcotest.bool "most items cancelled" true (Atomic.get executed < n)

let test_pool_occupancy_gauges () =
  let before_live = Pool.live_domains () in
  let p = Pool.create () in
  let seen_live = Atomic.make 0 and seen_busy = Atomic.make 0 in
  let bump a v = if v > Atomic.get a then Atomic.set a v in
  Pool.run p ~workers:1 (fun () ->
      bump seen_live (Pool.live_domains ());
      bump seen_busy (Pool.busy_domains ()));
  Pool.retire p;
  check Alcotest.bool "worker counted live" true
    (Atomic.get seen_live >= before_live + 1);
  check Alcotest.bool "participants counted busy" true (Atomic.get seen_busy >= 1);
  check Alcotest.int "retire returns to baseline" before_live (Pool.live_domains ())

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_diverges;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int rejects <= 0" `Quick test_int_rejects_nonpositive;
          Alcotest.test_case "range bounds" `Quick test_range_bounds;
          Alcotest.test_case "range singleton" `Quick test_range_singleton;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "pick member" `Quick test_pick_member;
          Alcotest.test_case "pick empty" `Quick test_pick_empty;
          Alcotest.test_case "bool mixes" `Quick test_bool_mixes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "cv" `Quick test_cv;
          Alcotest.test_case "percentile rank" `Quick test_percentile_rank;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "sum" `Quick test_sum;
        ] );
      ( "table",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "separator" `Quick test_table_separator;
        ] );
      ( "pool",
        [
          Alcotest.test_case "poisoned item cancels rest" `Quick
            test_pool_poisoned_item_cancels;
          Alcotest.test_case "poison cancels under parallelism" `Quick
            test_pool_poisoned_item_parallel;
          Alcotest.test_case "occupancy gauges" `Quick test_pool_occupancy_gauges;
        ] );
      ( "properties",
        qcheck
          [ prop_rng_int_uniformish; prop_mean_bounds; prop_stddev_nonneg;
            prop_percentile_in_unit ] );
    ]

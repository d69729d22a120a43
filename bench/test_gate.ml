(* The bench gates' interval rule must be able to fail: a real overhead
   over budget fails it, no overhead passes, noise straddling the budget
   passes; and a baseline file missing a key is an error, never a
   silent default. *)

let check = Alcotest.check

(* Paired samples: a drifting reference arm and a measured arm at
   [overhead] over it, with +/-2% trial-to-trial noise on the measured
   side. *)
let paired ~overhead =
  let reference = [ 1.00; 1.20; 0.90; 1.10; 1.05; 0.95; 1.00; 1.30; 1.02 ] in
  let noise = [ 1.00; 1.02; 0.98; 1.01; 0.99; 1.02; 0.98; 1.00; 1.01 ] in
  let measured = List.map2 (fun r e -> r *. (1.0 +. overhead) *. e) reference noise in
  List.map2 ( /. ) measured reference

let test_overhead_fails () =
  check Alcotest.bool "10% over a 5% budget fails" false
    (Gate.within ~limit:1.05 (paired ~overhead:0.10))

let test_no_overhead_passes () =
  check Alcotest.bool "0% passes a 5% budget" true
    (Gate.within ~limit:1.05 (paired ~overhead:0.0))

let test_straddle_passes () =
  (* A third of the trials are over budget, the lower quartile is not. *)
  let ratios = [ 1.00; 1.08; 1.03; 1.10; 1.04; 1.02; 1.07; 1.01; 1.04 ] in
  check Alcotest.bool "straddling samples pass" true (Gate.within ~limit:1.05 ratios)

let test_interleave_pairs () =
  let calls = ref [] in
  let arm name () =
    calls := name :: !calls;
    float (List.length !calls)
  in
  let samples = Gate.interleave ~k:3 [ arm "a"; arm "b" ] in
  check
    Alcotest.(list string)
    "order alternates" [ "a"; "b"; "b"; "a"; "a"; "b" ] (List.rev !calls);
  check
    Alcotest.(list (list (float 0.0)))
    "samples per arm in trial order"
    [ [ 1.0; 4.0; 5.0 ]; [ 2.0; 3.0; 6.0 ] ]
    samples

let with_file contents f =
  let file = Filename.temp_file "baseline" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Out_channel.with_open_bin file (fun oc -> output_string oc contents);
  f file

let fails f = match f () with _ -> false | exception Failure _ -> true

let test_baseline_keys () =
  with_file {|{"lp": {"warm_pivots": 2110, "table2_s": "fast"}}|} @@ fun file ->
  let lookup = Gate.baselines file in
  check (Alcotest.float 0.0) "present key" 2110.0 (lookup "lp" "warm_pivots");
  check Alcotest.bool "missing key" true (fails (fun () -> lookup "lp" "cold_pivots"));
  check Alcotest.bool "missing section" true
    (fails (fun () -> lookup "perf" "warm_pivots"));
  check Alcotest.bool "not a number" true (fails (fun () -> lookup "lp" "table2_s"))

let test_baseline_file () =
  check Alcotest.bool "missing file" true
    (fails (fun () -> Gate.baselines "no-such-baseline.json"));
  with_file "{\"lp\": " @@ fun file ->
  check Alcotest.bool "malformed file" true (fails (fun () -> Gate.baselines file))

let () =
  Alcotest.run "gate"
    [
      ( "interval rule",
        [
          Alcotest.test_case "10% overhead fails a 5% budget" `Quick
            test_overhead_fails;
          Alcotest.test_case "0% overhead passes" `Quick test_no_overhead_passes;
          Alcotest.test_case "straddling the budget passes" `Quick test_straddle_passes;
          Alcotest.test_case "interleave pairs trials" `Quick test_interleave_pairs;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "missing key is an error" `Quick test_baseline_keys;
          Alcotest.test_case "missing or malformed file is an error" `Quick
            test_baseline_file;
        ] );
    ]

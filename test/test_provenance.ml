(* Tests for the provenance subsystem: the hand-rolled JSON codec, the
   sidecar round trip (unit and property-based), the corpus-level
   guarantee that every verdict carries evidence, and the invariant that
   capture never changes the verdicts. *)

open Sherlock_core
module Json = Sherlock_provenance.Json
module Prov = Sherlock_provenance.Provenance

let check = Alcotest.check

(* --- JSON codec --- *)

let test_json_roundtrip_values () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Num 0.0;
      Json.Num (-1.5);
      Json.Num 1e300;
      Json.Num 3.141592653589793;
      Json.Str "";
      Json.Str "plain";
      Json.Str "quotes \" and \\ and \n tab \t";
      Json.Arr [];
      Json.Arr [ Json.Num 1.0; Json.Str "x"; Json.Null ];
      Json.Obj [];
      Json.Obj [ ("a", Json.Num 1.0); ("b", Json.Arr [ Json.Bool false ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' ->
        check Alcotest.bool (Printf.sprintf "roundtrip %s" s) true
          (compare v v' = 0)
      | Error e -> Alcotest.failf "parse of %s failed: %s" s e)
    cases

let test_json_integers_exact () =
  (* Integers must survive textually as integers (no ".0" / exponent): the
     sidecar's ids, rounds, and times all ride in Num. *)
  List.iter
    (fun i ->
      let s = Json.to_string (Json.Num (float_of_int i)) in
      check Alcotest.string "integer spelling" (string_of_int i) s)
    [ 0; 1; -1; 42; 1_000_000; -987654321 ]

let test_json_nonfinite_null () =
  List.iter
    (fun f ->
      check Alcotest.string "non-finite spelling" "null" (Json.to_string (Json.Num f)))
    [ nan; infinity; neg_infinity ]

let test_json_parse_errors_positioned () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "parsed malformed %S" s
      | Error e ->
        check Alcotest.bool
          (Printf.sprintf "error %S mentions a byte offset" e)
          true
          (String.length e >= 5 && String.sub e 0 5 = "byte "))
    [ "{"; "[1,"; "\"unterminated"; "tru"; "{\"a\" 1}"; "1 2" ]

let test_json_member_and_list () =
  let v = Json.Obj [ ("xs", Json.Arr [ Json.Num 1.0; Json.Num 2.0 ]) ] in
  check Alcotest.int "member/to_list" 2 (List.length (Json.to_list (Json.member "xs" v)));
  check Alcotest.bool "absent member is Null" true (Json.member "nope" v = Json.Null)

(* --- Provenance codec: unit round trip incl. nan --- *)

let sample_coord = { Prov.c_time1 = 10; c_tid1 = 0; c_time2 = 55; c_tid2 = 1 }

let sample_window =
  {
    Prov.w_id = 3;
    w_first = "Write-C::f";
    w_second = "Read-C::f";
    w_field = "C::f";
    w_side = "acq";
    w_count = 2;
    w_weight = 5;
    w_round = 1;
    w_coords = [ sample_coord; { sample_coord with Prov.c_time2 = 77 } ];
  }

let sample_constraint =
  {
    Prov.c_tag = "ub:v_acq";
    c_rel = "<=";
    c_rhs = 1.0;
    c_activity = 1.0;
    c_coeff = 1.0;
    c_dual = -0.25;
    c_binding = true;
  }

let sample_verdict =
  {
    Prov.v_op = "Read-C::f";
    v_role = "acquire";
    v_probability = 1.0;
    v_margin = 0.25;
    v_reduced_cost = 0.0;
    v_first_round = 1;
    v_stable_round = 2;
    v_windows = [ sample_window ];
    v_constraints = [ sample_constraint ];
  }

let sample_prov =
  {
    Prov.p_app = "TestApp";
    p_seed = 42;
    p_rounds =
      [
        {
          Prov.r_round = 1;
          r_windows_after = 12;
          r_objective = 3.25;
          r_degraded = false;
          r_verdicts = [ ("Read-C::f", "acquire") ];
          r_delays = [];
        };
        {
          Prov.r_round = 2;
          r_windows_after = 20;
          r_objective = nan;
          r_degraded = true;
          r_verdicts = [ ("Read-C::f", "acquire") ];
          r_delays = [ ("Write-C::f", 100_000) ];
        };
      ];
    p_verdicts = [ sample_verdict ];
  }

let test_provenance_roundtrip () =
  let s = Prov.to_string sample_prov in
  match Prov.of_string s with
  | Ok p ->
    check Alcotest.bool "equal after roundtrip (nan objective included)" true
      (Prov.equal sample_prov p)
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_provenance_rejects_foreign () =
  (match Prov.of_string "{\"format\":\"other\",\"version\":1}" with
  | Ok _ -> Alcotest.fail "accepted foreign format"
  | Error _ -> ());
  match Prov.of_string "[1,2,3]" with
  | Ok _ -> Alcotest.fail "accepted non-object"
  | Error _ -> ()

let test_provenance_sidecar_file () =
  let path = Filename.temp_file "sherlock_prov" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Prov.save path sample_prov;
      match Prov.load path with
      | Ok p -> check Alcotest.bool "file roundtrip" true (Prov.equal sample_prov p)
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_provenance_find () =
  let vs = Prov.find sample_prov "Read-C::f" in
  check Alcotest.int "exact match" 1 (List.length vs);
  let vs = Prov.find sample_prov "C::f" in
  check Alcotest.int "substring match" 1 (List.length vs);
  check Alcotest.int "no match" 0 (List.length (Prov.find sample_prov "zzz"))

(* --- qcheck round-trip property --- *)

let gen_name =
  QCheck.Gen.(
    let* n = int_range 0 12 in
    string_size ~gen:(map Char.chr (int_range 32 126)) (return n))

let gen_float =
  QCheck.Gen.oneofl
    [ 0.0; 1.0; -1.5; 0.1; 3.141592653589793; 1e-9; 1e300; -7.25; nan ]

let gen_coord =
  QCheck.Gen.(
    let* t1 = int_range 0 1_000_000 and* t2 = int_range 0 1_000_000 in
    let* tid1 = int_range 0 7 and* tid2 = int_range 0 7 in
    return { Prov.c_time1 = t1; c_tid1 = tid1; c_time2 = t2; c_tid2 = tid2 })

let gen_window =
  QCheck.Gen.(
    let* w_id = int_range 0 500 and* w_first = gen_name and* w_second = gen_name in
    let* w_field = gen_name and* side = bool in
    let* w_count = int_range 1 9 and* w_weight = int_range 1 9 in
    let* w_round = int_range 1 5 and* w_coords = list_size (int_range 0 4) gen_coord in
    return
      {
        Prov.w_id;
        w_first;
        w_second;
        w_field;
        w_side = (if side then "acq" else "rel");
        w_count;
        w_weight;
        w_round;
        w_coords;
      })

let gen_constraint =
  QCheck.Gen.(
    let* c_tag = gen_name and* r = int_range 0 2 in
    let* c_rhs = gen_float and* c_activity = gen_float in
    let* c_coeff = gen_float and* c_dual = gen_float and* c_binding = bool in
    return
      {
        Prov.c_tag;
        c_rel = List.nth [ "<="; ">="; "=" ] r;
        c_rhs;
        c_activity;
        c_coeff;
        c_dual;
        c_binding;
      })

let gen_verdict =
  QCheck.Gen.(
    let* v_op = gen_name and* acq = bool in
    let* v_probability = gen_float and* v_margin = gen_float in
    let* v_reduced_cost = gen_float in
    let* v_first_round = int_range 0 5 and* v_stable_round = int_range 0 5 in
    let* v_windows = list_size (int_range 0 3) gen_window in
    let* v_constraints = list_size (int_range 0 3) gen_constraint in
    return
      {
        Prov.v_op;
        v_role = (if acq then "acquire" else "release");
        v_probability;
        v_margin;
        v_reduced_cost;
        v_first_round;
        v_stable_round;
        v_windows;
        v_constraints;
      })

let gen_round =
  QCheck.Gen.(
    let* r_round = int_range 1 5 and* r_windows_after = int_range 0 500 in
    let* r_objective = gen_float and* r_degraded = bool in
    let* r_verdicts =
      list_size (int_range 0 3)
        (let* op = gen_name and* acq = bool in
         return (op, if acq then "acquire" else "release"))
    in
    let* r_delays =
      list_size (int_range 0 3)
        (let* op = gen_name and* us = int_range 0 1_000_000 in
         return (op, us))
    in
    return
      { Prov.r_round; r_windows_after; r_objective; r_degraded; r_verdicts; r_delays })

let gen_prov =
  QCheck.Gen.(
    let* p_app = gen_name and* p_seed = int_range 0 10_000 in
    let* p_rounds = list_size (int_range 0 4) gen_round in
    let* p_verdicts = list_size (int_range 0 5) gen_verdict in
    return { Prov.p_app; p_seed; p_rounds; p_verdicts })

let prop_provenance_roundtrip =
  QCheck.Test.make ~name:"provenance JSON roundtrip (semantic equality)"
    ~count:200 (QCheck.make gen_prov) (fun p ->
      match Prov.of_string (Prov.to_string p) with
      | Ok p' -> Prov.equal p p'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* --- pipeline integration over the corpus --- *)

let infer_with_provenance ?(app = "App-2") ?(rounds = 2) () =
  let app = Sherlock_corpus.Registry.find app in
  let config = { Config.default with rounds; provenance = true } in
  Orchestrator.infer ~config (Sherlock_corpus.App.subject app)

let test_corpus_every_verdict_has_evidence () =
  let result = infer_with_provenance () in
  let prov =
    match result.Orchestrator.provenance with
    | Some p -> p
    | None -> Alcotest.fail "provenance flag set but no provenance returned"
  in
  check Alcotest.int "one evidence record per final verdict"
    (List.length result.Orchestrator.final)
    (List.length prov.Prov.p_verdicts);
  check Alcotest.bool "has verdicts" true (prov.Prov.p_verdicts <> []);
  List.iter
    (fun (v : Prov.verdict_evidence) ->
      check Alcotest.bool (v.Prov.v_op ^ " has >=1 evidence window") true
        (List.length v.Prov.v_windows >= 1);
      check Alcotest.bool (v.Prov.v_op ^ " has >=1 constraint") true
        (List.length v.Prov.v_constraints >= 1);
      check Alcotest.bool (v.Prov.v_op ^ " margin is finite") true
        (Float.is_finite v.Prov.v_margin);
      check Alcotest.bool (v.Prov.v_op ^ " first_round in range") true
        (v.Prov.v_first_round >= 1 && v.Prov.v_first_round <= 2);
      check Alcotest.bool (v.Prov.v_op ^ " stable_round ordered") true
        (v.Prov.v_stable_round >= v.Prov.v_first_round);
      List.iter
        (fun (w : Prov.window_evidence) ->
          check Alcotest.bool "window round in range" true
            (w.Prov.w_round >= 1 && w.Prov.w_round <= 2);
          check Alcotest.bool "window has coords" true (w.Prov.w_coords <> []))
        v.Prov.v_windows)
    prov.Prov.p_verdicts;
  check Alcotest.int "one round trace per round" 2
    (List.length prov.Prov.p_rounds);
  (* The real sidecar must round-trip too, not just synthetic ones. *)
  match Prov.of_string (Prov.to_string prov) with
  | Ok p -> check Alcotest.bool "corpus sidecar roundtrip" true (Prov.equal prov p)
  | Error e -> Alcotest.failf "corpus sidecar decode failed: %s" e

let test_capture_does_not_change_verdicts () =
  let app = Sherlock_corpus.Registry.find "App-2" in
  let subject = Sherlock_corpus.App.subject app in
  let run provenance =
    let config = { Config.default with rounds = 2; provenance } in
    (Orchestrator.infer ~config subject).Orchestrator.final
  in
  let off = run false and on = run true in
  check Alcotest.int "same verdict count" (List.length off) (List.length on);
  List.iter2
    (fun (a : Verdict.t) (b : Verdict.t) ->
      check Alcotest.bool "same op/role" true (Verdict.compare a b = 0);
      check Alcotest.bool "bitwise identical probability" true
        (Int64.equal
           (Int64.bits_of_float a.probability)
           (Int64.bits_of_float b.probability)))
    off on

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "provenance"
    [
      ( "json",
        [
          Alcotest.test_case "value roundtrips" `Quick test_json_roundtrip_values;
          Alcotest.test_case "integers exact" `Quick test_json_integers_exact;
          Alcotest.test_case "non-finite prints null" `Quick test_json_nonfinite_null;
          Alcotest.test_case "errors positioned" `Quick test_json_parse_errors_positioned;
          Alcotest.test_case "member/to_list" `Quick test_json_member_and_list;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip incl. nan" `Quick test_provenance_roundtrip;
          Alcotest.test_case "rejects foreign JSON" `Quick test_provenance_rejects_foreign;
          Alcotest.test_case "sidecar file" `Quick test_provenance_sidecar_file;
          Alcotest.test_case "find" `Quick test_provenance_find;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "corpus verdicts carry evidence" `Slow
            test_corpus_every_verdict_has_evidence;
          Alcotest.test_case "capture keeps verdicts identical" `Slow
            test_capture_does_not_change_verdicts;
        ] );
      ("properties", qcheck [ prop_provenance_roundtrip ]);
    ]

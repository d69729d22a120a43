(* The harness behind every bench gate: how a gate measures, where its
   baselines come from, how it compares, records and fails.

   A gate is a function returning its measured fields and its named
   checks; [run] prints both as one table, merges the fields into
   BENCH_trace.json as the gate's section, and exits 1 after a
   "FAIL: <check>" line for each check that did not hold.

   Baselines come only from the checked-in bench/baseline.json, never
   from a previous run's output.  Wall-clock baselines are stored in
   calibrated seconds (see [calibrated]), and a timing gate fails only
   when the lower quartile of its paired samples is above its limit
   ([within]): one slow trial cannot fail it, a real slowdown that
   shifts most trials does. *)

module Json = Sherlock_provenance.Json
module Table = Sherlock_util.Table

(* ------------------------------------------------------------------ *)
(* Measuring *)

let time f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

(* The host's speed drifts by a fifth and more between runs (other
   tenants share the cores), so stored wall-clock values are kept for a
   host on which a fixed stdlib-only kernel takes [nominal_cal_s]: a
   sample's raw seconds times [nominal_cal_s / kernel seconds], the
   kernel timed (median of five) right before the sample.  No library
   code runs in the kernel, so a change to the library cannot move the
   scale.  The kernel and the nominal time are the benchmark's
   (perfbench/bench.ml), so the two scales agree. *)
module Int_map = Map.Make (Int)

let nominal_cal_s = 0.003

let kernel () =
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

let sorted xs = List.sort Float.compare xs

let median xs = List.nth (sorted xs) (List.length xs / 2)

let calibrated f =
  let cal = median (List.init 5 (fun _ -> time kernel)) in
  time f *. nominal_cal_s /. cal

(* [k] trials of every arm, round-robin, with the arm order reversed on
   every other trial so drift (frequency scaling, a neighbour) hits each
   arm alike, and each sample taken on a compacted heap so one sample's
   garbage does not tax the next.  Returns each arm's samples in trial
   order, so the i-th samples of two arms form a pair. *)
let interleave ~k arms =
  let arms = Array.of_list arms in
  let n = Array.length arms in
  let samples = Array.make_matrix n k 0.0 in
  for t = 0 to k - 1 do
    for j = 0 to n - 1 do
      let a = if t land 1 = 0 then j else n - 1 - j in
      Gc.compact ();
      samples.(a).(t) <- arms.(a) ()
    done
  done;
  Array.to_list (Array.map Array.to_list samples)

(* ------------------------------------------------------------------ *)
(* Comparing *)

let best xs = List.fold_left Float.min infinity xs

let lower_quartile xs = List.nth (sorted xs) ((List.length xs - 1) / 4)

(* The interval rule of every timing gate: pass unless the lower
   quartile of the samples (paired ratios, or calibrated seconds) is
   above [limit]. *)
let within ~limit xs = lower_quartile xs <= limit

(* ------------------------------------------------------------------ *)
(* Baselines *)

let read_json file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> failwith e
  | text -> (
    match Json.of_string text with
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "%s: %s" file e))

(* [baselines file section key] is a number from a baseline file.  A
   missing file, section or key, or a value that is not a number, is a
   [Failure]: a gate never falls back to a default. *)
let baselines file =
  let json = read_json file in
  fun section key ->
    match Json.member key (Json.member section json) with
    | Json.Num f -> f
    | _ -> failwith (Printf.sprintf "%s: no number at %s.%s" file section key)

(* bench/baseline.json, copied next to the executable by the build. *)
let baseline =
  let lookup =
    lazy
      (baselines
         (Filename.concat (Filename.dirname Sys.executable_name) "baseline.json"))
  in
  fun section key -> (Lazy.force lookup) section key

(* ------------------------------------------------------------------ *)
(* Recording and failing *)

(* Four significant digits are plenty for a record of timings, and keep
   its diffs readable. *)
let rec tidy = function
  | Json.Num f when Float.is_finite f && not (Float.is_integer f) ->
    Json.Num (float_of_string (Printf.sprintf "%.4g" f))
  | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, tidy v)) fields)
  | Json.Arr xs -> Json.Arr (List.map tidy xs)
  | v -> v

let rec rows prefix = function
  | Json.Obj fields ->
    List.concat_map
      (fun (k, v) -> rows (if prefix = "" then k else prefix ^ "." ^ k) v)
      fields
  | Json.Str s -> [ (prefix, s) ]
  | v -> [ (prefix, Json.to_string v) ]

(* BENCH_trace.json is one JSON object with one section per line, so
   each gate replaces its own section and keeps the others. *)
let trace_file = "BENCH_trace.json"

let record section value =
  let sections =
    if not (Sys.file_exists trace_file) then []
    else
      match read_json trace_file with
      | Json.Obj sections -> sections
      | _ -> failwith (trace_file ^ ": not a JSON object")
  in
  let sections =
    if List.mem_assoc section sections then
      List.map (fun (k, v) -> if k = section then (k, value) else (k, v)) sections
    else sections @ [ (section, value) ]
  in
  let last = List.length sections - 1 in
  Out_channel.with_open_bin trace_file (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "  %s: %s%s\n"
            (Json.to_string (Json.Str k))
            (Json.to_string v)
            (if i < last then "," else ""))
        sections;
      output_string oc "}\n");
  Printf.printf "wrote %s\n" trace_file

let run ~section ~title gate =
  let fields, checks = gate () in
  let checks_json = Json.Obj (List.map (fun (c, ok) -> (c, Json.Bool ok)) checks) in
  let value = tidy (Json.Obj (fields @ [ ("checks", checks_json) ])) in
  let t = Table.create ~title ~header:[ "measure"; "value" ] in
  List.iter (fun (m, v) -> Table.add_row t [ m; v ]) (rows "" value);
  Table.print t;
  record section value;
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (c, _) -> Printf.printf "FAIL: %s\n" c) failed;
  if failed <> [] then exit 1

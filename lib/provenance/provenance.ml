type coord = {
  c_time1 : int;
  c_tid1 : int;
  c_time2 : int;
  c_tid2 : int;
}

type window_evidence = {
  w_id : int;
  w_first : string;
  w_second : string;
  w_field : string;
  w_side : string;
  w_count : int;
  w_weight : int;
  w_round : int;
  w_coords : coord list;
}

type constraint_evidence = {
  c_tag : string;
  c_rel : string;
  c_rhs : float;
  c_activity : float;
  c_coeff : float;
  c_dual : float;
  c_binding : bool;
}

type verdict_evidence = {
  v_op : string;
  v_role : string;
  v_probability : float;
  v_margin : float;
  v_reduced_cost : float;
  v_first_round : int;
  v_stable_round : int;
  v_windows : window_evidence list;
  v_constraints : constraint_evidence list;
}

type round_trace = {
  r_round : int;
  r_windows_after : int;
  r_objective : float;
  r_degraded : bool;
  r_verdicts : (string * string) list;
  r_delays : (string * int) list;
}

type t = {
  p_app : string;
  p_seed : int;
  p_rounds : round_trace list;
  p_verdicts : verdict_evidence list;
}

(* Polymorphic compare orders nan equal to itself, which is exactly the
   semantic equality the round-trip property needs. *)
let equal a b = compare a b = 0

(* --- encoding --- *)

let int i = Json.Num (float_of_int i)

let coord_to_json c =
  Json.Obj
    [
      ("t1", int c.c_time1);
      ("tid1", int c.c_tid1);
      ("t2", int c.c_time2);
      ("tid2", int c.c_tid2);
    ]

let window_to_json w =
  Json.Obj
    [
      ("id", int w.w_id);
      ("first", Json.Str w.w_first);
      ("second", Json.Str w.w_second);
      ("field", Json.Str w.w_field);
      ("side", Json.Str w.w_side);
      ("count", int w.w_count);
      ("weight", int w.w_weight);
      ("round", int w.w_round);
      ("coords", Json.Arr (List.map coord_to_json w.w_coords));
    ]

let constraint_to_json c =
  Json.Obj
    [
      ("tag", Json.Str c.c_tag);
      ("rel", Json.Str c.c_rel);
      ("rhs", Json.Num c.c_rhs);
      ("activity", Json.Num c.c_activity);
      ("coeff", Json.Num c.c_coeff);
      ("dual", Json.Num c.c_dual);
      ("binding", Json.Bool c.c_binding);
    ]

let verdict_to_json v =
  Json.Obj
    [
      ("op", Json.Str v.v_op);
      ("role", Json.Str v.v_role);
      ("probability", Json.Num v.v_probability);
      ("margin", Json.Num v.v_margin);
      ("reduced_cost", Json.Num v.v_reduced_cost);
      ("first_round", int v.v_first_round);
      ("stable_round", int v.v_stable_round);
      ("windows", Json.Arr (List.map window_to_json v.v_windows));
      ("constraints", Json.Arr (List.map constraint_to_json v.v_constraints));
    ]

let round_to_json r =
  Json.Obj
    [
      ("round", int r.r_round);
      ("windows_after", int r.r_windows_after);
      ("objective", Json.Num r.r_objective);
      ("degraded", Json.Bool r.r_degraded);
      ( "verdicts",
        Json.Arr
          (List.map
             (fun (op, role) ->
               Json.Obj [ ("op", Json.Str op); ("role", Json.Str role) ])
             r.r_verdicts) );
      ( "delays",
        Json.Arr
          (List.map
             (fun (op, us) -> Json.Obj [ ("op", Json.Str op); ("us", int us) ])
             r.r_delays) );
    ]

let to_json t =
  Json.Obj
    [
      ("format", Json.Str "sherlock-provenance");
      ("version", int 1);
      ("app", Json.Str t.p_app);
      ("seed", int t.p_seed);
      ("rounds", Json.Arr (List.map round_to_json t.p_rounds));
      ("verdicts", Json.Arr (List.map verdict_to_json t.p_verdicts));
    ]

(* --- decoding --- *)

exception Bad of string

let get_str ctx = function
  | Json.Str s -> s
  | _ -> raise (Bad (ctx ^ ": expected string"))

let get_int ctx = function
  | Json.Num f when Float.is_integer f -> int_of_float f
  | _ -> raise (Bad (ctx ^ ": expected integer"))

let get_float ctx = function
  | Json.Num f -> f
  | Json.Null -> nan
  | _ -> raise (Bad (ctx ^ ": expected number"))

let get_bool ctx = function
  | Json.Bool b -> b
  | _ -> raise (Bad (ctx ^ ": expected bool"))

let coord_of_json j =
  {
    c_time1 = get_int "coord.t1" (Json.member "t1" j);
    c_tid1 = get_int "coord.tid1" (Json.member "tid1" j);
    c_time2 = get_int "coord.t2" (Json.member "t2" j);
    c_tid2 = get_int "coord.tid2" (Json.member "tid2" j);
  }

let window_of_json j =
  {
    w_id = get_int "window.id" (Json.member "id" j);
    w_first = get_str "window.first" (Json.member "first" j);
    w_second = get_str "window.second" (Json.member "second" j);
    w_field = get_str "window.field" (Json.member "field" j);
    w_side = get_str "window.side" (Json.member "side" j);
    w_count = get_int "window.count" (Json.member "count" j);
    w_weight = get_int "window.weight" (Json.member "weight" j);
    w_round = get_int "window.round" (Json.member "round" j);
    w_coords = List.map coord_of_json (Json.to_list (Json.member "coords" j));
  }

let constraint_of_json j =
  {
    c_tag = get_str "constraint.tag" (Json.member "tag" j);
    c_rel = get_str "constraint.rel" (Json.member "rel" j);
    c_rhs = get_float "constraint.rhs" (Json.member "rhs" j);
    c_activity = get_float "constraint.activity" (Json.member "activity" j);
    c_coeff = get_float "constraint.coeff" (Json.member "coeff" j);
    c_dual = get_float "constraint.dual" (Json.member "dual" j);
    c_binding = get_bool "constraint.binding" (Json.member "binding" j);
  }

let verdict_of_json j =
  {
    v_op = get_str "verdict.op" (Json.member "op" j);
    v_role = get_str "verdict.role" (Json.member "role" j);
    v_probability =
      get_float "verdict.probability" (Json.member "probability" j);
    v_margin = get_float "verdict.margin" (Json.member "margin" j);
    v_reduced_cost =
      get_float "verdict.reduced_cost" (Json.member "reduced_cost" j);
    v_first_round = get_int "verdict.first_round" (Json.member "first_round" j);
    v_stable_round =
      get_int "verdict.stable_round" (Json.member "stable_round" j);
    v_windows = List.map window_of_json (Json.to_list (Json.member "windows" j));
    v_constraints =
      List.map constraint_of_json (Json.to_list (Json.member "constraints" j));
  }

let round_of_json j =
  {
    r_round = get_int "round.round" (Json.member "round" j);
    r_windows_after =
      get_int "round.windows_after" (Json.member "windows_after" j);
    r_objective = get_float "round.objective" (Json.member "objective" j);
    r_degraded = get_bool "round.degraded" (Json.member "degraded" j);
    r_verdicts =
      List.map
        (fun v ->
          ( get_str "round.verdict.op" (Json.member "op" v),
            get_str "round.verdict.role" (Json.member "role" v) ))
        (Json.to_list (Json.member "verdicts" j));
    r_delays =
      List.map
        (fun d ->
          ( get_str "round.delay.op" (Json.member "op" d),
            get_int "round.delay.us" (Json.member "us" d) ))
        (Json.to_list (Json.member "delays" j));
  }

let of_json j =
  match
    (match get_str "format" (Json.member "format" j) with
    | "sherlock-provenance" -> ()
    | other -> raise (Bad (Printf.sprintf "unknown format %S" other)));
    {
      p_app = get_str "app" (Json.member "app" j);
      p_seed = get_int "seed" (Json.member "seed" j);
      p_rounds = List.map round_of_json (Json.to_list (Json.member "rounds" j));
      p_verdicts =
        List.map verdict_of_json (Json.to_list (Json.member "verdicts" j));
    }
  with
  | t -> Ok t
  | exception Bad msg -> Error msg

let to_string t = Json.to_string (to_json t)

let of_string s =
  match Json.of_string s with
  | Error e -> Error e
  | Ok j -> of_json j

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error e -> Error e

(* --- queries and rendering --- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  nl = 0
  ||
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let find t query =
  let exact, partial =
    List.partition (fun v -> v.v_op = query) t.p_verdicts
  in
  exact @ List.filter (fun v -> contains ~needle:query v.v_op) partial

let pp_coord ppf c =
  Format.fprintf ppf "t=%d/tid=%d -> t=%d/tid=%d" c.c_time1 c.c_tid1 c.c_time2
    c.c_tid2

let pp_window ppf (w : window_evidence) =
  Format.fprintf ppf "[w%d] %s -> %s  field %s  side=%s x%d  weight=%d  round %d"
    w.w_id w.w_first w.w_second w.w_field w.w_side w.w_count w.w_weight
    w.w_round;
  match w.w_coords with
  | [] -> ()
  | c :: rest ->
    Format.fprintf ppf "@,|      at %a" pp_coord c;
    if rest <> [] then Format.fprintf ppf " (+%d more)" (List.length rest)

let pp_constraint ppf (c : constraint_evidence) =
  Format.fprintf ppf "%s  %s %s  activity=%g  coeff=%g  dual=%g%s"
    (if c.c_tag = "" then "(untagged)" else c.c_tag)
    c.c_rel
    (Format.asprintf "%g" c.c_rhs)
    c.c_activity c.c_coeff c.c_dual
    (if c.c_binding then "  binding" else "")

let pp_verdict ppf (v : verdict_evidence) =
  Format.fprintf ppf "@[<v>%s verdict: %s  p=%.3f  margin=%.4g  rc=%.4g@,"
    v.v_role v.v_op v.v_probability v.v_margin v.v_reduced_cost;
  Format.fprintf ppf "|- windows (%d)@," (List.length v.v_windows);
  List.iter (fun w -> Format.fprintf ppf "|  @[<v>%a@]@," pp_window w) v.v_windows;
  Format.fprintf ppf "|- constraints (%d)@," (List.length v.v_constraints);
  List.iter
    (fun c -> Format.fprintf ppf "|  %a@," pp_constraint c)
    v.v_constraints;
  Format.fprintf ppf "`- rounds: first seen %d, stable from %d@]"
    v.v_first_round v.v_stable_round

let pp ppf t =
  Format.fprintf ppf "@[<v>provenance for %s (seed %d): %d verdicts, %d rounds@,"
    t.p_app t.p_seed
    (List.length t.p_verdicts)
    (List.length t.p_rounds);
  List.iter
    (fun (r : round_trace) ->
      Format.fprintf ppf "round %d: %d windows, %d verdicts, %d delays%s@,"
        r.r_round r.r_windows_after
        (List.length r.r_verdicts)
        (List.length r.r_delays)
        (if r.r_degraded then " (degraded)"
         else Format.asprintf ", objective %.6g" r.r_objective))
    t.p_rounds;
  List.iter (fun v -> Format.fprintf ppf "@,%a@," pp_verdict v) t.p_verdicts;
  Format.fprintf ppf "@]"

module Json = Sherlock_provenance.Json

type ph =
  | Complete of int
  | Instant
  | Counter
  | Flow_start of int
  | Flow_end of int
  | Metadata

type event = {
  name : string;
  cat : string;
  ph : ph;
  ts : int;
  pid : int;
  tid : int;
  args : (string * Span.value) list;
}

let complete ?(cat = "") ?(args = []) ~name ~ts ~dur ~pid ~tid () =
  { name; cat; ph = Complete dur; ts; pid; tid; args }

let instant ?(cat = "") ?(args = []) ~name ~ts ~pid ~tid () =
  { name; cat; ph = Instant; ts; pid; tid; args }

let counter ?(cat = "counter") ~name ~ts ~pid ~value () =
  { name; cat; ph = Counter; ts; pid; tid = 0; args = [ ("value", Span.Int value) ] }

let flow_start ?(cat = "flow") ?(name = "flow") ~id ~ts ~pid ~tid () =
  { name; cat; ph = Flow_start id; ts; pid; tid; args = [] }

let flow_end ?(cat = "flow") ?(name = "flow") ~id ~ts ~pid ~tid () =
  { name; cat; ph = Flow_end id; ts; pid; tid; args = [] }

let process_name ~pid name =
  {
    name = "process_name";
    cat = "__metadata";
    ph = Metadata;
    ts = 0;
    pid;
    tid = 0;
    args = [ ("name", Span.Str name) ];
  }

let thread_name ~pid ~tid name =
  {
    name = "thread_name";
    cat = "__metadata";
    ph = Metadata;
    ts = 0;
    pid;
    tid;
    args = [ ("name", Span.Str name) ];
  }

let thread_sort_index ~pid ~tid index =
  {
    name = "thread_sort_index";
    cat = "__metadata";
    ph = Metadata;
    ts = 0;
    pid;
    tid;
    args = [ ("sort_index", Span.Int index) ];
  }

let prepare events =
  let clamp e =
    match e.ph with
    | Complete d when d < 0 -> { e with ph = Complete 0 }
    | Complete _ | Instant | Counter | Flow_start _ | Flow_end _ | Metadata -> e
  in
  let meta, rest = List.partition (fun e -> e.ph = Metadata) events in
  meta @ List.stable_sort (fun a b -> Int.compare a.ts b.ts) (List.map clamp rest)

(* One event as a trace-event object. *)
let to_json e =
  let int i = Json.Num (float_of_int i) in
  let ph, extra =
    match e.ph with
    | Complete dur -> ("X", [ ("dur", int dur) ])
    | Instant -> ("i", [ ("s", Json.Str "t") ])
    | Counter -> ("C", [])
    | Flow_start id -> ("s", [ ("id", int id) ])
    | Flow_end id -> ("f", [ ("id", int id); ("bp", Json.Str "e") ])
    | Metadata -> ("M", [])
  in
  let args =
    if e.args = [] then []
    else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Span.json_of_value v)) e.args)) ]
  in
  Json.Obj
    ((("name", Json.Str e.name)
     :: (if e.cat = "" then [] else [ ("cat", Json.Str e.cat) ]))
    @ (("ph", Json.Str ph) :: extra)
    @ [ ("ts", int e.ts); ("pid", int e.pid); ("tid", int e.tid) ]
    @ args)

let to_string events =
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.map to_json (prepare events)));
         ("displayTimeUnit", Json.Str "ms");
       ])
  ^ "\n"

let write path events =
  let oc = open_out path in
  output_string oc (to_string events);
  close_out oc

let of_spans collector =
  let epoch = Span.epoch collector in
  let us t = int_of_float ((t -. epoch) *. 1e6) in
  let spans = Span.closed_spans collector in
  let tracks = Hashtbl.create 8 in
  let events =
    List.map
      (fun (s : Span.closed) ->
        Hashtbl.replace tracks s.track ();
        let args =
          ("span_id", Span.Int s.id)
          :: (match s.parent with Some p -> [ ("parent", Span.Int p) ] | None -> [])
          @ s.attrs
        in
        complete ~cat:"span" ~args ~name:s.name ~ts:(us s.start_s)
          ~dur:(us s.end_s - us s.start_s) ~pid:0 ~tid:s.track ())
      spans
  in
  let meta =
    process_name ~pid:0 "sherlock (wall clock)"
    :: Hashtbl.fold
         (fun track () acc ->
           thread_name ~pid:0 ~tid:track (Printf.sprintf "domain %d" track) :: acc)
         tracks []
  in
  meta @ events

let of_points ~epoch points =
  let us t = int_of_float ((t -. epoch) *. 1e6) in
  List.concat_map
    (fun (p : Snapshot.point) ->
      let ts = max 0 (us p.p_ts) in
      instant ~cat:"sample" ~name:p.p_label ~ts ~pid:0 ~tid:0 ()
      :: List.map (fun (name, v) -> counter ~name ~ts ~pid:0 ~value:v ()) p.p_counters)
    points

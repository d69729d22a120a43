module Json = Sherlock_provenance.Json

type arg = Span.value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

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
  args : (string * arg) list;
}

let complete ?(cat = "") ?(args = []) ~name ~ts ~dur ~pid ~tid () =
  { name; cat; ph = Complete dur; ts; pid; tid; args }

let instant ?(cat = "") ?(args = []) ~name ~ts ~pid ~tid () =
  { name; cat; ph = Instant; ts; pid; tid; args }

let counter ?(cat = "counter") ~name ~ts ~pid ~value () =
  { name; cat; ph = Counter; ts; pid; tid = 0; args = [ ("value", Int value) ] }

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
    args = [ ("name", Str name) ];
  }

let thread_name ~pid ~tid name =
  {
    name = "thread_name";
    cat = "__metadata";
    ph = Metadata;
    ts = 0;
    pid;
    tid;
    args = [ ("name", Str name) ];
  }

let thread_sort_index ~pid ~tid index =
  {
    name = "thread_sort_index";
    cat = "__metadata";
    ph = Metadata;
    ts = 0;
    pid;
    tid;
    args = [ ("sort_index", Int index) ];
  }

let prepare events =
  let clamp e =
    match e.ph with
    | Complete d when d < 0 -> { e with ph = Complete 0 }
    | Complete _ | Instant | Counter | Flow_start _ | Flow_end _ | Metadata -> e
  in
  let meta, rest = List.partition (fun e -> e.ph = Metadata) events in
  meta @ List.stable_sort (fun a b -> Int.compare a.ts b.ts) (List.map clamp rest)

let add_arg buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%g" f)
    else Json.add_string buf (string_of_float f)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s -> Json.add_string buf s

let add_event buf e =
  let field name add_value =
    Json.add_string buf name;
    Buffer.add_char buf ':';
    add_value ()
  in
  Buffer.add_char buf '{';
  field "name" (fun () -> Json.add_string buf e.name);
  Buffer.add_char buf ',';
  if e.cat <> "" then begin
    field "cat" (fun () -> Json.add_string buf e.cat);
    Buffer.add_char buf ','
  end;
  let ph, extra =
    match e.ph with
    | Complete dur -> ("X", [ ("dur", `I dur) ])
    | Instant -> ("i", [ ("s", `S "t") ])
    | Counter -> ("C", [])
    | Flow_start id -> ("s", [ ("id", `I id) ])
    | Flow_end id -> ("f", [ ("id", `I id); ("bp", `S "e") ])
    | Metadata -> ("M", [])
  in
  field "ph" (fun () -> Json.add_string buf ph);
  Buffer.add_char buf ',';
  List.iter
    (fun (k, v) ->
      field k (fun () ->
          match v with
          | `I i -> Buffer.add_string buf (string_of_int i)
          | `S s -> Json.add_string buf s);
      Buffer.add_char buf ',')
    extra;
  field "ts" (fun () -> Buffer.add_string buf (string_of_int e.ts));
  Buffer.add_char buf ',';
  field "pid" (fun () -> Buffer.add_string buf (string_of_int e.pid));
  Buffer.add_char buf ',';
  field "tid" (fun () -> Buffer.add_string buf (string_of_int e.tid));
  if e.args <> [] then begin
    Buffer.add_char buf ',';
    field "args" (fun () ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Json.add_string buf k;
            Buffer.add_char buf ':';
            add_arg buf v)
          e.args;
        Buffer.add_char buf '}')
  end;
  Buffer.add_char buf '}'

let to_string events =
  let events = prepare events in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_event buf e)
    events;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

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
          ("span_id", Int s.id)
          :: (match s.parent with Some p -> [ ("parent", Int p) ] | None -> [])
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

let of_samples ~epoch samples =
  let us t = int_of_float ((t -. epoch) *. 1e6) in
  List.concat_map
    (fun (s : Metrics.sample) ->
      let ts = max 0 (us s.Metrics.sample_s) in
      instant ~cat:"sample" ~name:s.Metrics.sample_label ~ts ~pid:0 ~tid:0 ()
      :: List.map
           (fun (name, v) -> counter ~name ~ts ~pid:0 ~value:v ())
           s.Metrics.sample_counters)
    samples

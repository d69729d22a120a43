type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

let json_of_value : value -> Sherlock_provenance.Json.t = function
  | Int i -> Num (float_of_int i)
  | Float f -> Num f
  | Bool b -> Bool b
  | Str s -> Str s

type closed = {
  id : int;
  parent : int option;
  name : string;
  track : int;
  start_s : float;
  end_s : float;
  attrs : (string * value) list;
}

type collector = {
  epoch : float;
  mutex : Mutex.t;
  mutable spans : closed list;  (* reverse close order *)
  next_id : int Atomic.t;
}

type open_span = {
  oid : int;
  oparent : int option;
  oname : string;
  otrack : int;
  ostart : float;
  mutable oattrs : (string * value) list;  (* reverse attachment order *)
}

let create_collector () =
  {
    epoch = Unix.gettimeofday ();
    mutex = Mutex.create ();
    spans = [];
    next_id = Atomic.make 0;
  }

let epoch c = c.epoch

let closed_spans c =
  Mutex.lock c.mutex;
  let spans = c.spans in
  Mutex.unlock c.mutex;
  List.rev spans

let span_count c =
  Mutex.lock c.mutex;
  let n = List.length c.spans in
  Mutex.unlock c.mutex;
  n

(* The installed collector is read on every [with_span], possibly from
   several domains; an [Atomic.t] keeps the load well defined. *)
let installed : collector option Atomic.t = Atomic.make None

let set_collector c = Atomic.set installed c

let current_collector () = Atomic.get installed

(* Per-domain stack of open spans: nesting never crosses domains, so each
   worker gets an independent, well-nested track. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let open_depth () = List.length !(Domain.DLS.get stack_key)

let add_attr k v =
  match Atomic.get installed with
  | None -> ()
  | Some _ -> (
    match !(Domain.DLS.get stack_key) with
    | [] -> ()
    | sp :: _ -> sp.oattrs <- (k, v) :: sp.oattrs)

let close c stack sp =
  (stack := match !stack with _ :: tl -> tl | [] -> []);
  let span =
    {
      id = sp.oid;
      parent = sp.oparent;
      name = sp.oname;
      track = sp.otrack;
      start_s = sp.ostart;
      end_s = Unix.gettimeofday ();
      attrs = List.rev sp.oattrs;
    }
  in
  Mutex.lock c.mutex;
  c.spans <- span :: c.spans;
  Mutex.unlock c.mutex

let with_span ?(attrs = []) ~name f =
  match Atomic.get installed with
  | None -> f ()
  | Some c ->
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> None | p :: _ -> Some p.oid in
    let sp =
      {
        oid = Atomic.fetch_and_add c.next_id 1;
        oparent = parent;
        oname = name;
        otrack = (Domain.self () :> int);
        ostart = Unix.gettimeofday ();
        oattrs = List.rev attrs;
      }
    in
    stack := sp :: !stack;
    (match f () with
    | v ->
      close c stack sp;
      v
    | exception e ->
      close c stack sp;
      raise e)

type t = { samples : (string, float list ref) Hashtbl.t }

let create () = { samples = Hashtbl.create 64 }

let add t key d =
  match Hashtbl.find_opt t.samples key with
  | Some r -> r := d :: !r
  | None -> Hashtbl.add t.samples key (ref [ d ])

let samples_of_log log =
  (* Per-thread stacks of open frames; an End pops the nearest matching
     Begin, skipping mismatches defensively (a filtered-out frame can leave
     an unmatched Begin behind).  Frames containing an injected Perturber
     delay are excluded: the artificial 100 ms would swamp the method's
     natural duration variation.  The delay test is a binary search over
     the log's delayed-event index. *)
  let contains_delay tid t0 t1 =
    t1 > t0 && Log.has_delayed_in log ~tid ~lo:(t0 + 1) ~hi:t1
  in
  let stacks : (int, (string * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  let out = ref [] in
  Log.iter
    (fun (e : Event.t) ->
      match e.op.kind with
      | Opid.Begin ->
        let s = stack e.tid in
        s := (Opid.method_key e.op, e.time) :: !s
      | Opid.End ->
        let key = Opid.method_key e.op in
        let s = stack e.tid in
        let rec pop acc = function
          | [] -> None
          | (k, t0) :: rest when k = key -> Some (t0, List.rev_append acc rest)
          | frame :: rest -> pop (frame :: acc) rest
        in
        (match pop [] !s with
        | Some (t0, rest) ->
          s := rest;
          if not (contains_delay e.tid t0 e.time) then
            out := (key, float_of_int (e.time - t0)) :: !out
        | None -> ())
      | Opid.Read | Opid.Write -> ())
    log;
  List.rev !out

let add_samples t pairs = List.iter (fun (key, d) -> add t key d) pairs

let record_log t log = add_samples t (samples_of_log log)

let samples t key =
  match Hashtbl.find_opt t.samples key with Some r -> !r | None -> []

let cv t key = Sherlock_util.Stats.coefficient_of_variation (samples t key)

let methods t = Hashtbl.fold (fun k _ acc -> k :: acc) t.samples []

type cv_ranks = { cvs : (string, float) Hashtbl.t; sorted : float array }

(* Every method's CV once, plus the sorted CVs; a key's rank is then the
   count of strictly smaller CVs, found by binary search. *)
let cv_ranks t =
  let cvs = Hashtbl.create (Hashtbl.length t.samples) in
  Hashtbl.iter
    (fun k r ->
      Hashtbl.add cvs k (Sherlock_util.Stats.coefficient_of_variation !r))
    t.samples;
  let sorted = Array.of_seq (Hashtbl.to_seq_values cvs) in
  Array.sort Float.compare sorted;
  { cvs; sorted }

let cv_percentile r key =
  let n = Array.length r.sorted in
  if n = 0 then 0.0
  else begin
    let x = Option.value ~default:0.0 (Hashtbl.find_opt r.cvs key) in
    (* first index whose CV is not below [x] *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if r.sorted.(mid) < x then lo := mid + 1 else hi := mid
    done;
    float_of_int !lo /. float_of_int n
  end

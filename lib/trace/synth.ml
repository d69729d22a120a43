(* Deterministic synthetic stress logs for extraction benchmarks.

   The generator targets the workload shape window extraction is
   sensitive to, at a scale (1M+ events) no corpus app reaches:
   - many addresses x many threads, with a hot subset of addresses
     absorbing most accesses — so some locations cap out while the long
     tail stays under the cap;
   - cross-thread read/write mixes on each address, so most neighbouring
     access pairs conflict and fall within [near] of each other;
   - a coarse clock plus contended same-address bursts, so distinct
     candidate pairs share span endpoints (the span-cache workload);
   - method Begin/End frames per thread (some left open) exercising the
     open-frame acquire rule, and occasional injected delays exercising
     the refinement path.

   Everything derives from one splitmix64 stream, so the same parameters
   always produce the same log — bench runs are reproducible and the
   parallel-vs-sequential identity checks compare meaningful output. *)

let log ?(seed = 1) ~addrs ~threads ~events () =
  if addrs <= 0 || threads <= 0 || events < 0 then
    invalid_arg "Synth.log: addrs, threads must be positive";
  let rng = Sherlock_util.Rng.create seed in
  let rint = Sherlock_util.Rng.int rng in
  (* Static ops are interned once: a read/write pair per field (16 fields
     per class) and a few methods per thread's class.  The last 1/8 of
     the addresses *alias* the first fields — array-element style: one
     static op accessed at several addresses — so the global per-pair cap
     budget genuinely spans addresses (and, under sharded extraction,
     chunk boundaries) without dominating the workload. *)
  let nfields = max 1 (addrs - (addrs / 8)) in
  let fld a = a mod nfields in
  let read_ops =
    Array.init nfields (fun f ->
        Opid.read ~cls:(Printf.sprintf "C%d" (f / 16)) (Printf.sprintf "f%d" (f mod 16)))
  in
  let write_ops =
    Array.init nfields (fun f ->
        Opid.write ~cls:(Printf.sprintf "C%d" (f / 16)) (Printf.sprintf "f%d" (f mod 16)))
  in
  let frame_ops =
    Array.init 32 (fun m ->
        Opid.enter ~cls:(Printf.sprintf "C%d" (m / 4)) (Printf.sprintf "m%d" (m mod 4)))
  in
  let hot = max 1 (addrs / 16) in
  let builder = Log.Builder.create () in
  let time = ref 0 in
  let last_addr = ref 0 in
  let stacks = Array.make threads [] in
  for _ = 1 to events do
    (* Coarse clock: ~3/4 of steps reuse the previous timestamp, so
       events arrive in bursts sharing span endpoints — the repeated
       (tid, lo, hi) queries the span cache exists to absorb. *)
    (if rint 4 = 0 then time := !time + 1 + rint 8);
    let tid = rint threads in
    let r = rint 100 in
    if r < 3 && List.length stacks.(tid) < 4 then begin
      let op = frame_ops.(rint (Array.length frame_ops)) in
      stacks.(tid) <- op :: stacks.(tid);
      Log.Builder.add builder
        (Event.make ~time:!time ~tid ~op ~target:(1 + tid) ())
    end
    else
      match (r < 6, stacks.(tid)) with
      | true, op :: rest ->
        stacks.(tid) <- rest;
        Log.Builder.add builder
          (Event.make ~time:!time ~tid ~op:(Opid.counterpart op) ~target:(1 + tid) ())
      | _ ->
        (* Contended bursts: half the accesses revisit the previous
           address, so several threads touch one location inside a single
           clock tick.  Each such same-timestamp group makes every pair
           sharing its first access recompute one acquire span — the
           repeated (tid, lo, hi) query the span cache absorbs. *)
        let addr =
          if rint 100 < 50 then !last_addr
          else if rint 100 < 80 then rint hot
          else rint addrs
        in
        last_addr := addr;
        let f = fld addr in
        let op = if rint 100 < 40 then write_ops.(f) else read_ops.(f) in
        let delayed_by = if rint 2_000 = 0 then 50 + rint 200 else 0 in
        Log.Builder.add builder
          (Event.make ~time:!time ~tid ~op ~target:(1000 + addr) ~delayed_by ())
  done;
  (* Frames still open stay open: frame_stacks treats them as blocked
     forever, which is exactly the acquire-candidate case to stress. *)
  Log.Builder.finish builder ~duration:(!time + 1) ~threads
    ~volatile_addrs:(Hashtbl.create 1)

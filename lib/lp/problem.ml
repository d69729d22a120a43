type var = int

type row_id = int

type status =
  | Solved of float
  | Infeasible
  | Unbounded
  | Aborted

type solve_info = {
  pivots : int;
  warm : bool;
  pivots_saved : int;
  cold_restarts : int;
  refactors : int;
  eta_len : int;
  bound_rows_saved : int;
}

let no_info =
  {
    pivots = 0;
    warm = false;
    pivots_saved = 0;
    cold_restarts = 0;
    refactors = 0;
    eta_len = 0;
    bound_rows_saved = 0;
  }

type crow = {
  c_row : (int * float) list;
  c_rel : Simplex.relation;
  mutable c_rhs : float;
  c_tag : string;
  c_bound : var;
      (* >= 0: virtual upper-bound row of that variable.  Kept in the
         row list so ids, row_info and provenance stay stable, but the
         simplex gets a column bound instead of a row. *)
}

type row_info = {
  ri_tag : string;
  ri_terms : (var * float) list;
  ri_rel : Simplex.relation;
  ri_rhs : float;
}

type duals = {
  d_rows : float array;
  d_vars : float array;
}

(* Incremental-solve state: a live {!Simplex.t} plus watermarks tracking
   which of the problem's variables and rows have been pushed into it.
   Sync is lazy — [solve_incremental] pushes whatever accumulated since
   the previous call and reoptimizes from the existing basis. *)
type istate = {
  sx : Simplex.t;
  mutable vars_pushed : int;
  mutable rows_pushed : int;
  mutable col_of_var : int array;
  mutable row_ids : int array;
}

type t = {
  mutable names : string list; (* reversed *)
  mutable count : int;
  mutable rows : crow array; (* growable; [0, nconstrs) live *)
  mutable nconstrs : int;
  mutable ub_rows : int array; (* growable; per var, its ub row or -1 *)
  mutable ubs : float array; (* growable; per var, its cap or infinity *)
  mutable objective : Linexpr.t;
  mutable istate : istate option;
  mutable info : solve_info;
  mutable capture_duals : bool;
  mutable duals : duals option;
}

let create () =
  {
    names = [];
    count = 0;
    rows =
      Array.make 16
        { c_row = []; c_rel = Simplex.Le; c_rhs = 0.0; c_tag = ""; c_bound = -1 };
    nconstrs = 0;
    ub_rows = Array.make 16 (-1);
    ubs = Array.make 16 infinity;
    objective = Linexpr.zero;
    istate = None;
    info = no_info;
    capture_duals = false;
    duals = None;
  }

let grow_int a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) (-1) in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let push_constr t c =
  if t.nconstrs >= Array.length t.rows then begin
    let rows = Array.make (2 * Array.length t.rows) c in
    Array.blit t.rows 0 rows 0 t.nconstrs;
    t.rows <- rows
  end;
  t.rows.(t.nconstrs) <- c;
  t.nconstrs <- t.nconstrs + 1;
  t.nconstrs - 1

let add_constr ?(tag = "") ?(bound = -1) t expr relation rhs =
  push_constr t
    {
      c_row = Linexpr.terms expr;
      c_rel = relation;
      c_rhs = rhs -. Linexpr.constant expr;
      c_tag = tag;
      c_bound = bound;
    }

let grow_float a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) infinity in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_var t ?ub name =
  let v = t.count in
  t.count <- v + 1;
  t.names <- name :: t.names;
  t.ub_rows <- grow_int t.ub_rows (v + 1);
  t.ub_rows.(v) <- -1;
  t.ubs <- grow_float t.ubs (v + 1);
  t.ubs.(v) <- infinity;
  (match ub with
  | Some u ->
    t.ubs.(v) <- u;
    t.ub_rows.(v) <-
      add_constr ~tag:("ub:" ^ name) ~bound:v t (Linexpr.var v) Simplex.Le u
  | None -> ());
  v

let ub_row t v =
  if v >= 0 && v < t.count && t.ub_rows.(v) >= 0 then Some t.ub_rows.(v)
  else None

let name t v =
  let arr = Array.of_list (List.rev t.names) in
  if v >= 0 && v < Array.length arr then arr.(v) else Printf.sprintf "_v%d" v

let num_vars t = t.count

let num_rows t = t.nconstrs

let row_info t i =
  let r = t.rows.(i) in
  { ri_tag = r.c_tag; ri_terms = r.c_row; ri_rel = r.c_rel; ri_rhs = r.c_rhs }

let row_activity t i assign =
  List.fold_left (fun s (v, k) -> s +. (k *. assign v)) 0.0 t.rows.(i).c_row

let add_le ?tag t e rhs = ignore (add_constr ?tag t e Simplex.Le rhs)

let add_ge ?tag t e rhs = ignore (add_constr ?tag t e Simplex.Ge rhs)

let add_eq ?tag t e rhs = ignore (add_constr ?tag t e Simplex.Eq rhs)

let add_ge_row ?tag t e rhs = add_constr ?tag t e Simplex.Ge rhs

let set_row_rhs t id rhs =
  t.rows.(id).c_rhs <- rhs;
  match t.istate with
  | Some s when id < s.rows_pushed && s.row_ids.(id) >= 0 ->
    Simplex.set_rhs s.sx s.row_ids.(id) rhs
  | _ -> ()

let add_objective t e = t.objective <- Linexpr.add t.objective e

let set_objective t e = t.objective <- e

let hinge t ~weight nm e =
  let h = add_var t nm in
  (* h >= e, i.e. e - h <= 0; h >= 0 is implicit. *)
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var h)) 0.0;
  add_objective t (Linexpr.var ~coeff:weight h);
  h

let hinge_var t nm e =
  (* The constraint shape of {!hinge} without the objective term — for
     callers (the incremental encoder) that rebuild the objective each
     round with recomputed weights. *)
  let h = add_var t nm in
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var h)) 0.0;
  h

let abs t ~weight nm e =
  let a = add_var t nm in
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var a)) 0.0;
  add_le ~tag:nm t (Linexpr.sub (Linexpr.neg e) (Linexpr.var a)) 0.0;
  add_objective t (Linexpr.var ~coeff:weight a);
  a

let abs_var t nm e =
  let a = add_var t nm in
  add_le ~tag:nm t (Linexpr.sub e (Linexpr.var a)) 0.0;
  add_le ~tag:nm t (Linexpr.sub (Linexpr.neg e) (Linexpr.var a)) 0.0;
  a

let fault : status option ref = ref None

let set_fault s = fault := s

let last_info t = t.info

let set_capture_duals t b = t.capture_duals <- b

let last_duals t = t.duals

let record_info info =
  let module Tm = Sherlock_telemetry.Metrics in
  if Tm.enabled () then begin
    Tm.Counter.incr (Tm.counter "lp.solves");
    Tm.Histogram.observe_int (Tm.histogram "lp.pivots") info.pivots;
    (* Monotone total alongside the per-solve histogram, so the snapshot
       plane can derive pivots/second between any two points. *)
    if info.pivots > 0 then
      Tm.Counter.incr ~by:info.pivots (Tm.counter "lp.pivots.total");
    if info.refactors > 0 then
      Tm.Counter.incr ~by:info.refactors (Tm.counter "lp.refactors");
    if info.warm then begin
      Tm.Counter.incr (Tm.counter "lp.warm_start.hits");
      if info.pivots_saved > 0 then
        Tm.Counter.incr ~by:info.pivots_saved
          (Tm.counter "lp.warm_start.pivots_saved")
    end
  end

let record_abort () =
  let module Tm = Sherlock_telemetry.Metrics in
  if Tm.enabled () then Tm.Counter.incr (Tm.counter "lp.aborted")

(* Duals of an optimal solve, read off the live solver state and mapped
   back to problem coordinates through [row_ids]/[col_of_var].  A
   virtual bound row has no simplex row; its dual is synthesized from
   the bounded column exactly as the explicit cap row would have carried
   it — the variable's reduced cost when it sits at its upper bound (the
   cap binding, rc <= 0), 0 otherwise — and the variable's own reduced
   cost is reported 0 in that case, matching the basic variable of the
   explicit-row formulation.  Reading them never perturbs the basis, so
   verdicts are bitwise identical with capture on or off. *)
let capture s t =
  let rd = Simplex.row_duals s.sx in
  let rc = Simplex.reduced_costs s.sx in
  let at_upper v = Simplex.is_at_upper s.sx s.col_of_var.(v) in
  let d_rows =
    Array.init t.nconstrs (fun i ->
        let b = t.rows.(i).c_bound in
        if b >= 0 then if at_upper b then rc.(s.col_of_var.(b)) else 0.0
        else rd.(s.row_ids.(i)))
  in
  let d_vars =
    Array.init t.count (fun v ->
        if at_upper v then 0.0 else rc.(s.col_of_var.(v)))
  in
  t.duals <- Some { d_rows; d_vars }

let aborted t info =
  t.info <- info;
  record_info info;
  record_abort ();
  (let module L = Sherlock_telemetry.Log in
   L.warn "lp.aborted"
     [
       ("pivots", L.Int info.pivots);
       ("refactors", L.Int info.refactors);
       ("vars", L.Int t.count);
       ("constraints", L.Int t.nconstrs);
     ]);
  (Aborted, fun _ -> 0.0)

let stat_info base (st : Simplex.stats) =
  {
    base with
    pivots = st.pivots;
    warm = st.warm;
    pivots_saved = st.reused_basis;
    cold_restarts = st.cold_restarts;
    refactors = st.refactors;
    eta_len = st.eta_len;
  }

let solve_incremental t =
  t.duals <- None;
  match !fault with
  | Some s ->
    t.info <- no_info;
    (s, fun _ -> 0.0)
  | None ->
    let s =
      match t.istate with
      | Some s -> s
      | None ->
        let s =
          {
            sx = Simplex.create ();
            vars_pushed = 0;
            rows_pushed = 0;
            col_of_var = Array.make 64 (-1);
            row_ids = Array.make 64 (-1);
          }
        in
        t.istate <- Some s;
        s
    in
    (* Push whatever accumulated since the previous solve.  Virtual
       bound rows are skipped — their variable's column carries the cap
       directly. *)
    s.col_of_var <- grow_int s.col_of_var t.count;
    for v = s.vars_pushed to t.count - 1 do
      s.col_of_var.(v) <- Simplex.add_col ~ub:t.ubs.(v) s.sx
    done;
    s.vars_pushed <- t.count;
    s.row_ids <- grow_int s.row_ids t.nconstrs;
    let saved = ref 0 in
    for i = s.rows_pushed to t.nconstrs - 1 do
      let r = t.rows.(i) in
      if r.c_bound >= 0 then s.row_ids.(i) <- -1
      else begin
        let entries = List.map (fun (v, k) -> (s.col_of_var.(v), k)) r.c_row in
        s.row_ids.(i) <- Simplex.add_row s.sx entries r.c_rel r.c_rhs
      end
    done;
    s.rows_pushed <- t.nconstrs;
    for i = 0 to t.nconstrs - 1 do
      if s.row_ids.(i) < 0 then incr saved
    done;
    Simplex.set_objective s.sx
      (List.map (fun (v, k) -> (s.col_of_var.(v), k)) (Linexpr.terms t.objective));
    match Simplex.reoptimize s.sx with
    | exception Simplex.Iteration_limit ->
      (* The solver invalidated itself; the warm state stays usable for
         later rounds (the next reoptimize starts cold). *)
      aborted t { no_info with bound_rows_saved = !saved }
    | result ->
    let st = Simplex.last_stats s.sx in
    let info = stat_info { no_info with bound_rows_saved = !saved } st in
    t.info <- info;
    record_info info;
    (match result with
    | `Optimal obj ->
      if t.capture_duals then capture s t;
      let obj = obj +. Linexpr.constant t.objective in
      (* Snapshot: the solver state stays live inside [t] (later rhs
         edits move its basic solution), but the assignment handed out
         must keep describing THIS solve. *)
      let snap =
        Array.init t.count (fun v -> Simplex.value s.sx s.col_of_var.(v))
      in
      ( Solved obj,
        fun v -> if v >= 0 && v < Array.length snap then snap.(v) else 0.0 )
    | `Infeasible -> (Infeasible, fun _ -> 0.0)
    | `Unbounded -> (Unbounded, fun _ -> 0.0))

let pp_stats ppf t =
  Format.fprintf ppf "lp: %d vars, %d constraints" t.count t.nconstrs

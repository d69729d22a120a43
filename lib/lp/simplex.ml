type relation =
  | Le
  | Ge
  | Eq

type constr = {
  row : (int * float) list;
  relation : relation;
  rhs : float;
}

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Unbounded
  | Infeasible

type stats = {
  pivots : int;
  warm : bool;
  reused_basis : int;
  cold_restarts : int;
  refactors : int;
  eta_len : int;
}

let eps = 1e-9

let feas_tol = 1e-7

let dual_tol = 1e-7

(* Revised simplex over the sparse matrix in {!Sparse} with an
   LU-factorized basis ({!Lu}): the basis inverse is never formed;
   FTRAN/BTRAN against the factors (plus the product-form eta file)
   replace every former [binv] walk.  Pivots append an eta term and the
   factorization is rebuilt when the eta file passes a length/fill
   threshold.  Variables carry optional upper bounds handled directly in
   pricing and the ratio test — a nonbasic column sits at 0 or at its
   bound ([at_upper]) and rows are never spent on caps.  The state is
   incremental: columns and rows append (appended rows just grow the
   basis with their slack or a fresh artificial and invalidate the
   factorization — no O(m^2) border extension), right-hand sides may
   change in place, and the next [reoptimize] starts from the previous
   basis — primal if still feasible, a bounded-variable dual simplex
   under the last optimal cost vector if not, and a cold two-phase
   rebuild as the fallback of last resort. *)

type kind =
  | Structural
  | Slack
  | Artificial

type mstats = {
  mutable m_pivots : int;
  mutable m_warm : bool;
  mutable m_reused : int;
  mutable m_colds : int;
  mutable m_refactors : int;
  mutable m_eta_max : int;
}

type t = {
  mat : Sparse.t;
  (* per column *)
  mutable kind : kind array;
  mutable cost : float array;
  mutable ub : float array; (* upper bound, [infinity] when none *)
  mutable at_upper : bool array; (* nonbasic at its upper bound *)
  mutable dead : bool array; (* retired artificials: never eligible to enter *)
  mutable in_basis : int array; (* basic in this row, or -1 *)
  mutable art_entry : (int * float) array; (* row of the artificial, or (-1,_) *)
  (* per row *)
  mutable rel : relation array;
  mutable rhs : float array;
  mutable slack_of : int array; (* slack/surplus column, or -1 for Eq *)
  (* factorization *)
  mutable have_basis : bool;
  mutable basis : int array; (* per row: the basic column *)
  mutable factor : Lu.t option; (* [None]: needs (re)factorization *)
  mutable xb : float array;
  mutable xb_valid : bool;
  (* dual certificate: the cost vector (and column count) the current
     basis was last proven optimal for.  Reduced costs under it keep
     their signs across row appends (the appended basic columns are
     cost-free) and rhs edits, which is exactly dual feasibility — the
     dual simplex restores primal feasibility under that certificate. *)
  mutable have_opt : bool;
  mutable opt_cost : float array;
  mutable opt_ncols : int;
  stats : mstats;
}

(* Both knobs are set only from (sequential) tests; solver domains treat
   them as read-only configuration. *)
let default_pivot_limit = 500_000

let pivot_limit = ref default_pivot_limit

let set_pivot_limit n = pivot_limit := max 1 n

let default_refactor_interval = 64

(* Live eta-file length, visible to the snapshot ticker mid-solve: how
   far the current factorization has drifted since the last refactor.
   One atomic store per pivot — noise next to the FTRAN/BTRAN work. *)
let g_eta_len = Sherlock_telemetry.Metrics.gauge "lp.eta_len"

let refactor_interval = ref default_refactor_interval

let set_refactor_interval n = refactor_interval := max 1 n

let create () =
  {
    mat = Sparse.create ();
    kind = Array.make 8 Structural;
    cost = Array.make 8 0.0;
    ub = Array.make 8 infinity;
    at_upper = Array.make 8 false;
    dead = Array.make 8 false;
    in_basis = Array.make 8 (-1);
    art_entry = Array.make 8 (-1, 0.0);
    rel = Array.make 8 Le;
    rhs = Array.make 8 0.0;
    slack_of = Array.make 8 (-1);
    have_basis = false;
    basis = [||];
    factor = None;
    xb = [||];
    xb_valid = false;
    have_opt = false;
    opt_cost = [||];
    opt_ncols = 0;
    stats =
      {
        m_pivots = 0;
        m_warm = false;
        m_reused = 0;
        m_colds = 0;
        m_refactors = 0;
        m_eta_max = 0;
      };
  }

let grow (type a) (a : a array) n (fill : a) : a array =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let register_col t k =
  let c = Sparse.add_col t.mat in
  t.kind <- grow t.kind (c + 1) Structural;
  t.cost <- grow t.cost (c + 1) 0.0;
  t.ub <- grow t.ub (c + 1) infinity;
  t.at_upper <- grow t.at_upper (c + 1) false;
  t.dead <- grow t.dead (c + 1) false;
  t.in_basis <- grow t.in_basis (c + 1) (-1);
  t.art_entry <- grow t.art_entry (c + 1) (-1, 0.0);
  t.kind.(c) <- k;
  t.cost.(c) <- 0.0;
  t.ub.(c) <- infinity;
  t.at_upper.(c) <- false;
  t.dead.(c) <- false;
  t.in_basis.(c) <- -1;
  t.art_entry.(c) <- (-1, 0.0);
  c

let add_col ?(ub = infinity) t =
  let c = register_col t Structural in
  t.ub.(c) <- ub;
  c

(* Artificial columns live outside the CSR rows (a row's stored entries
   are its real coefficients); their single entry is kept aside and every
   column-view access goes through these two helpers. *)
let new_artificial t ~row ~coeff =
  let c = register_col t Artificial in
  t.art_entry.(c) <- (row, coeff);
  c

let iter_col_entries t j f =
  match t.kind.(j) with
  | Artificial ->
    let r, a = t.art_entry.(j) in
    if r >= 0 then f r a
  | Structural | Slack -> Sparse.iter_col t.mat j f

let col_dot t j v =
  match t.kind.(j) with
  | Artificial ->
    let r, a = t.art_entry.(j) in
    if r >= 0 then a *. v.(r) else 0.0
  | Structural | Slack -> Sparse.col_dot t.mat j v

let num_rows t = Sparse.nrows t.mat

let num_cols t = Sparse.ncols t.mat

(* An artificial's only feasible value is 0, so outside phase 1 it is a
   bounded column with ub 0: the ratio test then refuses to let a basic
   artificial grow (a degenerate pivot expels it instead), and the dual
   simplex treats a nonzero one — e.g. the residual of a freshly
   appended Eq row — as a bound violation to repair.  During phase 1 the
   bound must be off: artificials legitimately start at |b|. *)
let col_ub t ~phase1 j =
  if t.kind.(j) = Artificial then if phase1 then infinity else 0.0
  else t.ub.(j)

exception Iteration_limit

(* Internal: the factorization (or a pivot on it) went numerically bad.
   Warm paths fall back to a cold rebuild; a cold rebuild that still
   trips it gives up as {!Iteration_limit}. *)
exception Numerical_trouble

let get_factor t =
  match t.factor with
  | Some lu -> lu
  | None -> invalid_arg "Simplex: no factorization"

let refactor_now t =
  let m = num_rows t in
  match Lu.factorize ~m ~col:(fun k f -> iter_col_entries t t.basis.(k) f) with
  | None -> raise Numerical_trouble
  | Some lu ->
    t.factor <- Some lu;
    t.stats.m_refactors <- t.stats.m_refactors + 1;
    t.xb_valid <- false

(* Effective rhs: columns nonbasic at their bound contribute u_j A_j. *)
let compute_beff t =
  let m = num_rows t in
  let b = Array.sub t.rhs 0 m in
  for j = 0 to num_cols t - 1 do
    if t.at_upper.(j) then begin
      let u = t.ub.(j) in
      iter_col_entries t j (fun r a -> b.(r) <- b.(r) -. (u *. a))
    end
  done;
  b

let ensure_ready t =
  (match t.factor with
  | Some lu when Lu.size lu = num_rows t -> ()
  | Some _ | None -> refactor_now t);
  if not t.xb_valid then begin
    t.xb <- Lu.ftran (get_factor t) (compute_beff t);
    t.xb_valid <- true
  end

let maybe_refactor t =
  let lu = get_factor t in
  if
    Lu.eta_count lu >= !refactor_interval
    || Lu.eta_nnz lu > (2 * Lu.factor_nnz lu) + num_rows t
  then begin
    refactor_now t;
    ensure_ready t
  end

let add_row t entries relation rhs_v =
  let slack =
    match relation with
    | Le -> Some (register_col t Slack, 1.0)
    | Ge -> Some (register_col t Slack, -1.0)
    | Eq -> None
  in
  let full =
    match slack with Some (c, s) -> (c, s) :: entries | None -> entries
  in
  let i = Sparse.add_row t.mat full in
  t.rel <- grow t.rel (i + 1) Le;
  t.rhs <- grow t.rhs (i + 1) 0.0;
  t.slack_of <- grow t.slack_of (i + 1) (-1);
  t.rel.(i) <- relation;
  t.rhs.(i) <- rhs_v;
  t.slack_of.(i) <- (match slack with Some (c, _) -> c | None -> -1);
  if t.have_basis then begin
    (* The appended row's slack (or a fresh artificial for Eq) joins the
       basis; the factorization is simply invalidated and rebuilt lazily
       at the next solve — no O(m^2) border extension. *)
    let bcol =
      match slack with
      | Some (c, _) -> c
      | None -> new_artificial t ~row:i ~coeff:1.0
    in
    let m = Array.length t.basis in
    let basis = Array.make (m + 1) 0 in
    Array.blit t.basis 0 basis 0 m;
    basis.(m) <- bcol;
    t.basis <- basis;
    t.in_basis.(bcol) <- m;
    t.factor <- None;
    t.xb_valid <- false
  end;
  i

let set_rhs t i v =
  if v <> t.rhs.(i) then begin
    t.rhs.(i) <- v;
    t.xb_valid <- false
  end

let set_objective t terms =
  Array.fill t.cost 0 (Array.length t.cost) 0.0;
  List.iter (fun (c, k) -> t.cost.(c) <- t.cost.(c) +. k) terms

let value t c =
  let i = t.in_basis.(c) in
  if i >= 0 then t.xb.(i) else if t.at_upper.(c) then t.ub.(c) else 0.0

let is_at_upper t c = t.at_upper.(c)

let basic_objective t cost =
  let obj = ref 0.0 in
  for i = 0 to Array.length t.basis - 1 do
    obj := !obj +. (cost.(t.basis.(i)) *. t.xb.(i))
  done;
  for j = 0 to num_cols t - 1 do
    if t.at_upper.(j) then obj := !obj +. (cost.(j) *. t.ub.(j))
  done;
  !obj

let dual_y t cost =
  let m = Array.length t.basis in
  let cb = Array.make m 0.0 in
  for i = 0 to m - 1 do
    cb.(i) <- cost.(t.basis.(i))
  done;
  Lu.btran (get_factor t) cb

let compute_direction t j =
  let m = num_rows t in
  let a = Array.make m 0.0 in
  iter_col_entries t j (fun r v -> a.(r) <- a.(r) +. v);
  Lu.ftran (get_factor t) a

(* Row [r] of B^-1 as a row-space vector: rho = B^-T e_r, so that
   rho . A_j is entry [r] of the pivot direction for column [j]. *)
let btran_unit t r =
  let m = Array.length t.basis in
  let e = Array.make m 0.0 in
  e.(r) <- 1.0;
  Lu.btran (get_factor t) e

(* Basis change at position [row]: entering column [col] at value
   [enter_value], the other basic values having moved by
   [-. s *. delta *. w]; the leaving column lands at 0 or, when
   [leave_upper], at its bound. *)
let do_pivot t ~row ~col ~w ~s ~delta ~enter_value ~leave_upper =
  let m = Array.length t.basis in
  for i = 0 to m - 1 do
    if i <> row then t.xb.(i) <- t.xb.(i) -. (s *. delta *. w.(i))
  done;
  let leaving = t.basis.(row) in
  t.in_basis.(leaving) <- -1;
  t.at_upper.(leaving) <- leave_upper && t.kind.(leaving) <> Artificial;
  t.basis.(row) <- col;
  t.in_basis.(col) <- row;
  t.at_upper.(col) <- false;
  t.xb.(row) <- enter_value;
  let lu = get_factor t in
  Lu.update lu ~r:row ~w;
  t.stats.m_pivots <- t.stats.m_pivots + 1;
  t.stats.m_eta_max <- max t.stats.m_eta_max (Lu.eta_count lu);
  Sherlock_telemetry.Metrics.Gauge.set g_eta_len (Lu.eta_count lu);
  maybe_refactor t

(* Primal simplex on the current factorization, minimizing [cost], with
   bounded variables: a nonbasic column may enter rising from 0 (reduced
   cost < 0) or falling from its bound (reduced cost > 0), and the ratio
   test admits three events — a basic value hitting 0, a basic value
   hitting its own bound (it leaves at the bound), or the entering
   column traversing its whole range (a bound flip, no basis change).
   Dantzig pricing with a permanent switch to Bland's rule after a long
   degenerate streak, which restores the termination guarantee.  Returns
   [None] when unbounded. *)
let primal t ~cost ~phase1 =
  let ncols = num_cols t in
  let bland = ref false in
  let degen = ref 0 in
  let iters = ref 0 in
  let m () = Array.length t.basis in
  let allowed j =
    (not t.dead.(j))
    && t.in_basis.(j) < 0
    && (phase1 || t.kind.(j) <> Artificial)
  in
  let rec loop () =
    incr iters;
    if !iters > !pivot_limit then raise Iteration_limit;
    let y = dual_y t cost in
    let best_j = ref (-1) in
    let best_score = ref eps in
    (try
       for j = 0 to ncols - 1 do
         if allowed j then begin
           let d = cost.(j) -. col_dot t j y in
           let score = if t.at_upper.(j) then d else -.d in
           if score > !best_score then begin
             best_j := j;
             best_score := score;
             if !bland then raise Exit
           end
         end
       done
     with Exit -> ());
    if !best_j < 0 then Some (basic_objective t cost)
    else begin
      let j = !best_j in
      let from_upper = t.at_upper.(j) in
      let s = if from_upper then -1.0 else 1.0 in
      let w = compute_direction t j in
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      let leave_upper = ref false in
      let uq = col_ub t ~phase1 j in
      if uq < infinity then best_ratio := uq (* bound flip, no basis change *);
      let better ratio i =
        ratio < !best_ratio -. eps
        || ratio < !best_ratio +. eps
           && !best_row >= 0
           && t.basis.(i) < t.basis.(!best_row)
      in
      for i = 0 to m () - 1 do
        let swi = s *. w.(i) in
        if swi > eps then begin
          (* basic value falling toward 0 *)
          let ratio = t.xb.(i) /. swi in
          if better ratio i then begin
            best_row := i;
            best_ratio := ratio;
            leave_upper := false
          end
        end
        else if swi < -.eps then begin
          (* basic value rising toward its own bound *)
          let ubi = col_ub t ~phase1 t.basis.(i) in
          if ubi < infinity then begin
            let ratio = (ubi -. t.xb.(i)) /. -.swi in
            if better ratio i then begin
              best_row := i;
              best_ratio := ratio;
              leave_upper := true
            end
          end
        end
      done;
      if !best_ratio = infinity then None
      else begin
        let delta = max 0.0 !best_ratio in
        if delta <= feas_tol then begin
          incr degen;
          if !degen > 100 + (2 * m ()) then bland := true
        end
        else degen := 0;
        if !best_row < 0 then begin
          (* bound flip: x_j jumps between 0 and u_j *)
          for i = 0 to m () - 1 do
            t.xb.(i) <- t.xb.(i) -. (s *. delta *. w.(i))
          done;
          t.at_upper.(j) <- not from_upper;
          t.stats.m_pivots <- t.stats.m_pivots + 1
        end
        else
          do_pivot t ~row:!best_row ~col:j ~w ~s ~delta
            ~enter_value:(if from_upper then uq -. delta else delta)
            ~leave_upper:!leave_upper;
        loop ()
      end
    end
  in
  loop ()

(* Bounded-variable dual simplex under the last proven-optimal cost
   vector: picks the basic variable most outside its bounds as leaving,
   then the entering column by the dual ratio test, so reduced costs
   keep their certificate signs while primal feasibility is restored.
   Columns added after that optimum are excluded from entering (their
   reduced costs under the old prices are unknown), as are artificials.
   A certificate violation beyond tolerance — a nonbasic column whose
   reduced cost already has the wrong sign — aborts to a cold start
   instead of entering that column at ratio 0 (the old [max 0.0] clamp
   did exactly that and forced silent cold restarts downstream).
   Returns false — caller cold-restarts — when the restricted step has no
   eligible pivot; a restricted dead end says nothing about the full
   problem, so it must never be reported as infeasibility. *)
let dual_simplex t =
  let nold = min t.opt_ncols (num_cols t) in
  let cost_of j = if j < Array.length t.opt_cost then t.opt_cost.(j) else 0.0 in
  let full_cost = Array.init (num_cols t) cost_of in
  let m = Array.length t.basis in
  let cap = 200 + (8 * m) in
  let iters = ref 0 in
  let rec loop () =
    incr iters;
    if !iters > cap then false
    else begin
      let r = ref (-1) in
      let worst = ref feas_tol in
      let target = ref 0.0 in
      let above = ref false in
      for i = 0 to m - 1 do
        let ubi = col_ub t ~phase1:false t.basis.(i) in
        if -.t.xb.(i) > !worst then begin
          r := i;
          worst := -.t.xb.(i);
          target := 0.0;
          above := false
        end;
        if t.xb.(i) -. ubi > !worst then begin
          r := i;
          worst := t.xb.(i) -. ubi;
          target := ubi;
          above := true
        end
      done;
      if !r < 0 then true
      else begin
        let r = !r in
        let target = !target and above = !above in
        let rho = btran_unit t r in
        let y = dual_y t full_cost in
        let best_j = ref (-1) in
        let best_ratio = ref infinity in
        let best_alpha = ref 0.0 in
        let certified = ref true in
        for j = 0 to nold - 1 do
          if
            !certified
            && (not t.dead.(j))
            && t.in_basis.(j) < 0
            && t.kind.(j) <> Artificial
          then begin
            let d = cost_of j -. col_dot t j y in
            let upper = t.at_upper.(j) in
            if (not upper) && d < -.dual_tol then certified := false
            else if upper && d > dual_tol then certified := false
            else begin
              let alpha = col_dot t j rho in
              let eligible =
                if above then if upper then alpha < -.eps else alpha > eps
                else if upper then alpha > eps
                else alpha < -.eps
              in
              if eligible then begin
                (* snap within-tolerance noise, never a real violation *)
                let d = if upper then min 0.0 d else max 0.0 d in
                let ratio = abs_float d /. abs_float alpha in
                if
                  ratio < !best_ratio -. 1e-12
                  || ratio < !best_ratio +. 1e-12
                     && abs_float alpha > abs_float !best_alpha
                then begin
                  best_j := j;
                  best_ratio := ratio;
                  best_alpha := alpha
                end
              end
            end
          end
        done;
        if (not !certified) || !best_j < 0 then false
        else begin
          let q = !best_j in
          let w = compute_direction t q in
          let wr = w.(r) in
          if abs_float wr < eps then false
          else begin
            let delta = (t.xb.(r) -. target) /. wr in
            let from_upper = t.at_upper.(q) in
            do_pivot t ~row:r ~col:q ~w ~s:1.0 ~delta
              ~enter_value:((if from_upper then t.ub.(q) else 0.0) +. delta)
              ~leave_upper:above;
            loop ()
          end
        end
      end
    end
  in
  loop ()

let primal_feasible t =
  let ok = ref true in
  Array.iteri
    (fun i b ->
      let ubi = col_ub t ~phase1:false b in
      if t.xb.(i) < -.feas_tol || t.xb.(i) > ubi +. feas_tol then ok := false)
    t.basis;
  !ok

(* Verify the claimed optimum against the original rows and bounds;
   catches drift accumulated by long incremental pivot sequences. *)
let residuals_ok t =
  let ok = ref true in
  for i = 0 to num_rows t - 1 do
    if !ok then begin
      let s = ref 0.0 in
      Sparse.iter_row t.mat i (fun c a ->
          if t.kind.(c) = Structural then s := !s +. (a *. value t c));
      let slack = 1e-6 *. (1.0 +. abs_float t.rhs.(i)) in
      match t.rel.(i) with
      | Le -> if !s > t.rhs.(i) +. slack then ok := false
      | Ge -> if !s < t.rhs.(i) -. slack then ok := false
      | Eq -> if abs_float (!s -. t.rhs.(i)) > slack then ok := false
    end
  done;
  if !ok then
    for j = 0 to num_cols t - 1 do
      if t.kind.(j) = Structural then begin
        let v = value t j in
        if v < -.feas_tol || v > t.ub.(j) +. feas_tol then ok := false
      end
    done;
  !ok

(* Pivot basic artificials out after phase 1 where a live column with a
   nonzero tableau entry exists (a degenerate swap, the entering column
   staying at its current activity); rows with none are redundant and
   the artificial stays basic at zero, retired so it can never
   re-enter. *)
let expel_artificials t =
  let ncols = num_cols t in
  for i = 0 to Array.length t.basis - 1 do
    if t.kind.(t.basis.(i)) = Artificial then begin
      let rho = btran_unit t i in
      let found = ref (-1) in
      (try
         for j = 0 to ncols - 1 do
           if (not t.dead.(j)) && t.in_basis.(j) < 0 && t.kind.(j) <> Artificial
           then
             if abs_float (col_dot t j rho) > 1e-7 then begin
               found := j;
               raise Exit
             end
         done
       with Exit -> ());
      if !found >= 0 then begin
        let j = !found in
        let w = compute_direction t j in
        if abs_float w.(i) > 1e-7 then begin
          let from_upper = t.at_upper.(j) in
          let s = if from_upper then -1.0 else 1.0 in
          do_pivot t ~row:i ~col:j ~w ~s ~delta:0.0
            ~enter_value:(if from_upper then t.ub.(j) else 0.0)
            ~leave_upper:false
        end
      end
    end
  done

(* Cold start: rebuild the basis from slacks where the sign works, fresh
   artificials elsewhere, then the classic two phases.  All bounded
   columns start at their lower bound. *)
let cold_solve t =
  for c = 0 to num_cols t - 1 do
    if t.kind.(c) = Artificial then t.dead.(c) <- true;
    t.in_basis.(c) <- -1;
    t.at_upper.(c) <- false
  done;
  let m = num_rows t in
  t.basis <- Array.make m 0;
  let nart = ref 0 in
  for i = 0 to m - 1 do
    let b = t.rhs.(i) in
    let bcol =
      match t.rel.(i) with
      | Le when b >= 0.0 -> t.slack_of.(i)
      | Ge when b <= 0.0 -> t.slack_of.(i)
      | Le | Ge | Eq ->
        incr nart;
        let coeff = if b >= 0.0 then 1.0 else -1.0 in
        new_artificial t ~row:i ~coeff
    in
    t.basis.(i) <- bcol;
    t.in_basis.(bcol) <- i
  done;
  t.factor <- None;
  t.xb_valid <- false;
  t.have_basis <- true;
  ensure_ready t;
  let phase1_ok =
    if !nart = 0 then true
    else begin
      let cost1 = Array.make (num_cols t) 0.0 in
      for c = 0 to num_cols t - 1 do
        if t.kind.(c) = Artificial && not t.dead.(c) then cost1.(c) <- 1.0
      done;
      match primal t ~cost:cost1 ~phase1:true with
      | None -> assert false (* phase-1 objective is bounded below by 0 *)
      | Some v when v > 1e-6 -> false
      | Some _ ->
        expel_artificials t;
        for c = 0 to num_cols t - 1 do
          if t.kind.(c) = Artificial then t.dead.(c) <- true
        done;
        true
    end
  in
  if not phase1_ok then `Infeasible
  else
    match primal t ~cost:t.cost ~phase1:false with
    | None -> `Unbounded
    | Some obj -> `Optimal obj

let count_reused t =
  Array.fold_left
    (fun acc b -> if t.kind.(b) = Structural then acc + 1 else acc)
    0 t.basis

let reoptimize t =
  let s = t.stats in
  s.m_pivots <- 0;
  s.m_warm <- false;
  s.m_reused <- 0;
  s.m_colds <- 0;
  s.m_refactors <- 0;
  s.m_eta_max <- 0;
  let go_cold () =
    s.m_colds <- s.m_colds + 1;
    s.m_warm <- false;
    s.m_reused <- 0;
    cold_solve t
  in
  let result =
    try
      if not t.have_basis then cold_solve t
      else begin
        let warm_result =
          match
            ensure_ready t;
            if primal_feasible t then begin
              s.m_warm <- true;
              s.m_reused <- count_reused t;
              match primal t ~cost:t.cost ~phase1:false with
              | None -> Some `Unbounded
              | Some obj -> Some (`Optimal obj)
            end
            else if t.have_opt then begin
              s.m_warm <- true;
              s.m_reused <- count_reused t;
              if dual_simplex t && primal_feasible t then begin
                match primal t ~cost:t.cost ~phase1:false with
                | None -> Some `Unbounded
                | Some obj -> Some (`Optimal obj)
              end
              else None
            end
            else None
          with
          | r -> r
          | exception Numerical_trouble -> None
          | exception Iteration_limit -> None
        in
        match warm_result with
        | Some (`Optimal obj) when residuals_ok t -> `Optimal obj
        | Some (`Optimal _) -> go_cold ()
        | Some `Unbounded -> `Unbounded
        | None -> go_cold ()
      end
    with Iteration_limit | Numerical_trouble ->
      (* the cold path gave up: leave nothing half-built behind, the
         next solve must start from scratch *)
      t.have_basis <- false;
      t.have_opt <- false;
      t.factor <- None;
      raise Iteration_limit
  in
  (match result with
  | `Optimal _ ->
    t.have_opt <- true;
    t.opt_cost <- Array.sub t.cost 0 (num_cols t);
    t.opt_ncols <- num_cols t
  | `Unbounded | `Infeasible ->
    t.have_opt <- false;
    t.have_basis <- false;
    t.factor <- None);
  result

let last_stats t =
  {
    pivots = t.stats.m_pivots;
    warm = t.stats.m_warm;
    reused_basis = t.stats.m_reused;
    cold_restarts = t.stats.m_colds;
    refactors = t.stats.m_refactors;
    eta_len = t.stats.m_eta_max;
  }

let row_duals t =
  if t.have_basis && t.have_opt then begin
    ensure_ready t;
    dual_y t t.cost
  end
  else Array.make (num_rows t) 0.0

let reduced_costs t =
  if not (t.have_basis && t.have_opt) then Array.make (num_cols t) 0.0
  else begin
    ensure_ready t;
    let y = dual_y t t.cost in
    Array.init (num_cols t) (fun j ->
        if t.in_basis.(j) >= 0 then 0.0 else t.cost.(j) -. col_dot t j y)
  end

let dual_feasible t =
  if not (t.have_basis && t.have_opt) then true
  else begin
    ensure_ready t;
    let cost_of j =
      if j < Array.length t.opt_cost then t.opt_cost.(j) else 0.0
    in
    let full_cost = Array.init (num_cols t) cost_of in
    let y = dual_y t full_cost in
    let ok = ref true in
    for j = 0 to min t.opt_ncols (num_cols t) - 1 do
      if (not t.dead.(j)) && t.in_basis.(j) < 0 && t.kind.(j) <> Artificial
      then begin
        let d = cost_of j -. col_dot t j y in
        if t.at_upper.(j) then begin
          if d > 1e-6 then ok := false
        end
        else if d < -1e-6 then ok := false
      end
    done;
    !ok
  end

let solve_tableau ?ub ~num_vars ~objective constrs =
  let t = create () in
  for v = 0 to num_vars - 1 do
    let u =
      match ub with Some a when v < Array.length a -> a.(v) | _ -> infinity
    in
    ignore (add_col ~ub:u t)
  done;
  List.iter (fun c -> ignore (add_row t c.row c.relation c.rhs)) constrs;
  set_objective t objective;
  let outcome =
    match reoptimize t with
    | `Optimal objective ->
      Optimal { objective; solution = Array.init num_vars (value t) }
    | `Unbounded -> Unbounded
    | `Infeasible -> Infeasible
  in
  (outcome, last_stats t, t)

let solve ?ub ~num_vars ~objective constrs =
  let outcome, _, _ = solve_tableau ?ub ~num_vars ~objective constrs in
  outcome

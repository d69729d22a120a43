(** Sparse revised simplex over an LU-factorized basis.

    Solves [minimize c.x  subject to  A x (<=|>=|=) b,  0 <= x <= u]
    in floating point (upper bounds optional, per column).  The
    constraint matrix lives in {!Sparse} (CSR rows plus per-column
    occurrence lists); the basis is held factorized in {!Lu} —
    Markowitz-ordered LU plus a product-form eta file updated per
    pivot and rebuilt past a length/fill threshold — and every former
    dense-inverse walk is an FTRAN or BTRAN against it.  Upper bounds
    are handled directly in pricing and the ratio test (a nonbasic
    column sits at 0 or at its bound), so caps cost no rows.  Pricing
    uses Dantzig's rule with a permanent switch to Bland's anti-cycling
    rule after a long degenerate streak.

    Beyond the one-shot {!solve} (the drop-in replacement for the seed
    dense tableau, kept as a test oracle), the module exposes an
    incremental state: columns and rows append over time (an appended row's slack or
    artificial joins the basis and the factorization is rebuilt lazily),
    right-hand sides may be edited in place, and {!reoptimize} restarts
    from the previous optimal basis — primal if it is still feasible, a
    bounded-variable dual simplex under the last proven-optimal cost
    vector if not, and a cold two-phase rebuild as the fallback of last
    resort.  This is what cross-round warm starts in the encoder ride
    on. *)

type relation =
  | Le
  | Ge
  | Eq

type constr = {
  row : (int * float) list;  (** sparse row: (variable, coefficient) *)
  relation : relation;
  rhs : float;
}

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Unbounded
  | Infeasible

exception Iteration_limit
(** Raised by solves (and {!reoptimize}) when a pivot sequence exceeds
    the limit — see {!set_pivot_limit}.  The state invalidates itself
    first, so the next solve starts cold.  Callers
    ({!Problem.solve_incremental}) map it to a non-[Solved] status
    rather than letting it escape. *)

val solve :
  ?ub:float array ->
  num_vars:int ->
  objective:(int * float) list ->
  constr list ->
  outcome
(** [solve ~num_vars ~objective constrs] minimizes over variables
    [0 .. num_vars - 1], all implicitly bounded below by 0.  [ub.(v)],
    when given and finite, is an upper bound on variable [v] enforced
    without a constraint row.  The returned [solution] has length
    [num_vars]. *)

type stats = {
  pivots : int;  (** pivots performed by the last {!reoptimize} *)
  warm : bool;  (** the last solve started from a previous basis *)
  reused_basis : int;
      (** structural columns inherited in the starting basis — the work
          a cold start would have had to redo *)
  cold_restarts : int;  (** cold rebuilds the last solve fell back to *)
  refactors : int;  (** basis refactorizations during the last solve *)
  eta_len : int;
      (** longest product-form eta file reached before a rebuild *)
}

(** {1 Incremental state} *)

type t

val create : unit -> t

val add_col : ?ub:float -> t -> int
(** Append a structural column (a decision variable), returning its id.
    [ub] (default [infinity]) is its upper bound, enforced in the ratio
    test rather than by a row. *)

val add_row : t -> (int * float) list -> relation -> float -> int
(** Append a constraint over existing columns, returning its row id.  A
    slack/surplus column is added internally for inequalities.  If a
    basis exists, the new row's slack (or a fresh artificial for [Eq])
    joins it and the factorization is rebuilt lazily at the next
    {!reoptimize}, where feasibility is also repaired. *)

val set_rhs : t -> int -> float -> unit
(** Change a row's right-hand side in place (e.g. relaxing a rounding
    pin).  Basic values are recomputed by FTRAN at the next solve. *)

val set_objective : t -> (int * float) list -> unit
(** Replace the whole objective with the given [(column, cost)] terms. *)

val reoptimize : t -> [ `Optimal of float | `Unbounded | `Infeasible ]
(** Solve the current program, reusing the previous basis when one
    exists.  A restricted warm path that reaches a dead end falls back
    to a cold rebuild — it is never reported as [`Infeasible].  Raises
    {!Iteration_limit} when even the cold path exceeds the pivot cap. *)

val value : t -> int -> float
(** Value of a column at the last optimum (0 when nonbasic at its lower
    bound, its upper bound when nonbasic there). *)

val is_at_upper : t -> int -> bool
(** Whether a column sits nonbasic at its upper bound at the last
    optimum — the bounded-variable analogue of "the cap row is tight". *)

val row_duals : t -> float array
(** Simplex multipliers y = c_B B^-1 of the last optimum, indexed by row
    id.  For a binding [<=] row at a minimum the dual is [<= 0]; its
    negation is the rate at which the objective would rise per unit of
    rhs tightening.  All zeros when the state holds no proven optimum
    (after [`Unbounded]/[`Infeasible] or before the first solve). *)

val reduced_costs : t -> float array
(** Reduced costs d_j = c_j - y . A_j of the last optimum, indexed by
    column id; 0 for basic columns.  A column at its upper bound has
    d_j <= 0, and [-d_j] is the rate the objective would rise per unit
    of bound tightening — the former cap-row dual.  All zeros when the
    state holds no proven optimum. *)

val dual_feasible : t -> bool
(** Whether the current basis is dual-feasible under the cost vector it
    was last proven optimal for: every eligible nonbasic column at its
    lower bound has reduced cost >= -1e-6, every one at its upper bound
    <= 1e-6.  Vacuously true without a proven optimum.  Test hook for
    the warm-repair certificate. *)

val last_stats : t -> stats

val num_rows : t -> int

val num_cols : t -> int

val solve_tableau :
  ?ub:float array ->
  num_vars:int ->
  objective:(int * float) list ->
  constr list ->
  outcome * stats * t
(** {!solve}, additionally returning the solve statistics and the
    solver state the optimum was computed on, so callers can read {!row_duals} and
    {!reduced_costs} off it.  Row [i] of the state is [List.nth constrs i]
    (rows are pushed in list order). *)

(** {1 Engine knobs (test hooks)}

    Global configuration, read by every solve; set them only from
    sequential test code and restore the defaults afterwards. *)

val default_pivot_limit : int

val set_pivot_limit : int -> unit
(** Cap on pivots per simplex run before {!Iteration_limit} (default
    {!default_pivot_limit}).  Clamped to at least 1. *)

val default_refactor_interval : int

val set_refactor_interval : int -> unit
(** Eta-file length that triggers a basis refactorization (default
    {!default_refactor_interval}).  Clamped to at least 1. *)

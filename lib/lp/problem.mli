(** Linear-program builder.

    A thin modelling layer over {!Simplex}: named variables with bounds, a
    minimization objective accumulated term by term, and the two non-linear
    shapes the SherLock encoding needs, both with their standard exact LP
    reductions:

    - {!hinge} — [max(0, e)], for the Mostly-Protected terms (Equation 2);
    - {!abs} — [|e|], for the Mostly-Paired terms (Equations 6 and 7).

    All variables are bounded below by 0, matching their reading as
    probabilities or penalties.

    One solve path: {!solve_incremental} keeps a live {!Simplex.t}
    inside the problem.  The first call builds it from everything
    declared so far; each later call pushes only the variables,
    constraints, right-hand-side edits, and objective accumulated since
    the previous call and reoptimizes from the previous basis — the
    engine of the encoder's cross-round warm starts. *)

type t

type var = int

type row_id = int

type status =
  | Solved of float  (** optimal objective value *)
  | Infeasible
  | Unbounded
  | Aborted
      (** the solver hit its pivot cap ({!Simplex.Iteration_limit}) and
          gave up; treated by callers like any other non-[Solved]
          status (the encoder degrades to its previous verdicts) *)

(** Statistics from the most recent solve of a problem. *)
type solve_info = {
  pivots : int;
  warm : bool;  (** started from a previous basis *)
  pivots_saved : int;
      (** structural basis columns inherited at a warm start *)
  cold_restarts : int;  (** warm attempts that fell back to a cold build *)
  refactors : int;  (** basis refactorizations during the solve *)
  eta_len : int;  (** longest eta file reached before a rebuild *)
  bound_rows_saved : int;
      (** cap rows the bounded-variable encoding kept out of the sparse
          matrix *)
}

val create : unit -> t

val add_var : t -> ?ub:float -> string -> var
(** [add_var t name] declares a variable in [\[0, inf)]; [~ub] caps it
    (probability variables use [~ub:1.0]).  Names are for diagnostics and
    need not be unique.  The cap, when present, is recorded as a {e
    virtual} row tagged ["ub:" ^ name]: it keeps a stable {!row_id}
    (retrievable via {!ub_row}, visible to {!row_info} and provenance),
    but the simplex enforces it as a column bound in the ratio test — no
    matrix row — and its dual is synthesized from the bounded column's
    reduced cost. *)

val name : t -> var -> string

val num_vars : t -> int

val num_rows : t -> int

(** A constraint as stored, for provenance reporting. *)
type row_info = {
  ri_tag : string;  (** source tag given at creation ("" when untagged) *)
  ri_terms : (var * float) list;
  ri_rel : Simplex.relation;
  ri_rhs : float;
}

val row_info : t -> row_id -> row_info

val row_activity : t -> row_id -> (var -> float) -> float
(** Left-hand-side value of a row under an assignment. *)

val ub_row : t -> var -> row_id option
(** The row id of the variable's upper-bound cap, if it was declared with
    [~ub].  Its dual at a minimum is [<= 0] when binding; the negation is
    the confidence margin provenance reports per verdict. *)

val add_le : ?tag:string -> t -> Linexpr.t -> float -> unit
(** Constraint [e <= rhs] (any constant inside [e] is folded into [rhs]).
    [~tag] names the row's source for provenance ("" by default). *)

val add_ge : ?tag:string -> t -> Linexpr.t -> float -> unit

val add_eq : ?tag:string -> t -> Linexpr.t -> float -> unit

val add_ge_row : ?tag:string -> t -> Linexpr.t -> float -> row_id
(** {!add_ge} returning the constraint's id, for later {!set_row_rhs}
    (how rounding pins are later relaxed). *)

val set_row_rhs : t -> row_id -> float -> unit
(** Replace a constraint's right-hand side (the stored one — any constant
    folded out of the expression at creation stays folded). *)

val add_objective : t -> Linexpr.t -> unit
(** Accumulate a term into the minimization objective. *)

val set_objective : t -> Linexpr.t -> unit
(** Replace the whole objective (incremental encoders rebuild it each
    round with recomputed weights). *)

val hinge : t -> weight:float -> string -> Linexpr.t -> var
(** [hinge t ~weight name e] adds a fresh variable [h >= max(0, e)] and the
    objective term [weight * h]; at the optimum [h = max(0, e)] because [h]
    is minimized.  Returns [h]. *)

val hinge_var : t -> string -> Linexpr.t -> var
(** {!hinge} without the objective term, for callers that set the whole
    objective via {!set_objective}. *)

val abs : t -> weight:float -> string -> Linexpr.t -> var
(** [abs t ~weight name e] adds a fresh [a >= |e|] with objective term
    [weight * a]; at the optimum [a = |e|].  Returns [a]. *)

val abs_var : t -> string -> Linexpr.t -> var
(** {!abs} without the objective term. *)

val solve_incremental : t -> status * (var -> float)
(** Solve the accumulated program, keeping live solver state inside [t]:
    subsequent calls push only the delta since the previous call and
    warm-start from its basis.  A warm re-solve reaches the same optimal
    value as a fresh problem holding the same program (possibly a
    different optimal vertex when ties exist).  The assignment function
    returns 0 for every variable when the program is not [Solved]. *)

val last_info : t -> solve_info
(** Statistics of the most recent {!solve_incremental}; all zero after a
    fault-injected solve ({!set_fault}). *)

(** Simplex multipliers of the last optimum, in problem coordinates. *)
type duals = {
  d_rows : float array;
      (** per constraint (by {!row_id}): its dual value.  For a binding
          [<=] row at a minimum the dual is [<= 0]. *)
  d_vars : float array;  (** per variable: its reduced cost (0 when basic) *)
}

val set_capture_duals : t -> bool -> unit
(** When on, {!solve_incremental} snapshots the dual values and reduced
    costs of each optimal solve for {!last_duals}.  Off by default; when
    off it allocates nothing extra.  Capture never changes the pivot
    sequence, so assignments and objectives are bitwise identical either
    way.  Fault-injected solves never capture. *)

val last_duals : t -> duals option
(** Duals of the most recent solve; [None] when capture was off or the
    solve was not optimal. *)

val set_fault : status option -> unit
(** Fault-injection seam: while [Some s] is installed,
    {!solve_incremental} skips the simplex entirely and reports [s] with
    the all-zero assignment.  Used by tests and the bench robustness
    gate to exercise the pipeline's graceful-degradation path (an
    organically infeasible program cannot arise from the SherLock
    encoding, whose constraints are all satisfiable at zero).
    [set_fault None] restores normal solving.  Global, not domain-local:
    install only around single-domain runs. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line size summary (variables / constraints), for logs. *)

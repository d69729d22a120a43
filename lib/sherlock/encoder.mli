(** The LP encoding of the synchronization properties and hypotheses
    (paper §4.2, Equations 1–8).

    Each candidate operation gets up to two probability variables in
    [\[0,1\]] — acquire and release — restricted by the Read-Acquire &
    Write-Release property to the feasible role (reads and method entries
    acquire; writes and method exits release).  The hypotheses become:

    - Mostly Protected: a hinge term [max(0, 1 - sum of side variables)]
      per window side (Equation 2), weighted by the window's multiplicity;
    - Synchronizations are Rare: the regularizer [sum v] (Equation 3) and
      the occurrence penalty [0.1 * avg_occurrence * v] (Equation 4);
    - Acquisition-Time Mostly Varies: [(1 - percentile(CV)) * begin^acq]
      per method (Equation 5);
    - Mostly Paired: [|sum acq - sum rel|] per class and
      [|read^acq - write^rel|] per field (Equations 6–7);
    - Single Role: [begin(l)^acq + end(l)^rel <= 1] for library APIs.
      (The paper prints this constraint with the two structurally-zero
      variables; we encode the evidently intended pair — see DESIGN.md.)

    All non-protected terms are scaled by [lambda] (Equation 8).

    One encode path.  The LP lives in a {!state} across calls: round k+1
    appends only the windows added since round k (hinge rows for
    already-seen sides are shared, with weights summed; windows whose
    pair has already raced are never encoded), rebuilds the objective
    with recomputed weights, and warm-starts the simplex from round k's
    optimal basis.  A call without [?state] runs the same path on a
    fresh state. *)

(** LP-engine counters aggregated over one round's simplex calls (the
    base solve plus each rounding-pin re-solve). *)
type lp_stats = {
  lp_solves : int;
  lp_pivots : int;
  lp_warm_solves : int;
      (** solves that started from a previous round's basis *)
  lp_pivots_saved : int;
      (** structural basis columns inherited at warm starts *)
  lp_presolve_rows : int;
      (** duplicate or useless hinge rows kept out of the simplex this
          round: window sides merged onto an existing hinge, plus the
          sides of windows skipped because their pair already raced *)
  lp_cold_restarts : int;
      (** warm attempts that fell back to a from-scratch basis *)
  lp_refactors : int;  (** basis refactorizations across the solves *)
  lp_eta_len : int;
      (** longest product-form eta file any solve reached before a
          refactorization *)
  lp_bound_rows_saved : int;
      (** cap rows the bounded-variable encoding kept out of the sparse
          matrix (each [~ub] variable would otherwise be a row) *)
}

type solve_stats = {
  num_vars : int;
  num_windows : int;
  objective : float;  (** [nan] when degraded *)
  solve_s : float;  (** wall-clock of this LP build + solve *)
  degraded : bool;
      (** the LP came back infeasible / unbounded / aborted and the
          returned verdicts are the carried-over [previous] ones *)
  lp : lp_stats;
  trace : Sherlock_trace.Metrics.t;
      (** snapshot of the cumulative trace metrics (runs, extraction,
          solving) at the time of this solve *)
  evidence : Sherlock_provenance.Provenance.verdict_evidence list;
      (** per-verdict evidence (windows, LP rows with duals and
          activities, confidence margins), one entry per returned
          verdict in verdict order.  Captured only when
          [config.provenance] is set and the solve did not degrade;
          [[]] otherwise.  Round attribution fields ([w_round],
          [v_first_round], [v_stable_round]) are 0 placeholders here —
          the orchestrator, which owns round structure, fills them. *)
}

type state
(** Reusable cross-round encoder state: the live LP (with its simplex
    basis), the operation-variable table, and per-window hinge cells.
    A state follows one [Observations.t]: passing a physically different
    observations value resets it transparently (so [accumulate = false],
    which rebuilds observations per round, degrades to fresh-state
    solves). *)

val create_state : unit -> state

val solve :
  ?state:state ->
  ?previous:Verdict.t list ->
  Config.t ->
  Observations.t ->
  Verdict.t list * solve_stats
(** Build and solve the LP for the accumulated observations; operations
    whose variable reaches [config.threshold] become verdicts.  Windows
    whose static pair was ever observed racing are excluded from the
    protected terms when [use_race_removal] is set.

    With [?state], the encode is incremental and the solve warm-starts
    from the previous call's basis (same optimal objective; the verdict
    set is intended to be identical to a fresh-state solve and is
    checked by the equivalence suite).  Without it, a fresh state is
    used and discarded.

    If the LP comes back infeasible or unbounded the solve does not
    raise: it returns [previous] (default [\[\]] — typically the prior
    round's verdicts) and flags the round [degraded] in the stats.

    The call runs in a [solve] telemetry span with three children:
    [encode.sync] (new windows, balance terms, Single-Role rows),
    [encode.objective] (hinge weights and the objective rebuild) and
    [lp] (the simplex and its rounding pins). *)

(** Two-phase dense primal simplex — the seed reference engine.

    Solves [minimize c.x  subject to  A x (<=|>=|=) b,  x >= 0] exactly in
    floating point with a dense [m x (n+1)] tableau and Bland's
    anti-cycling rule.  Kept as the test oracle the sparse revised
    simplex in {!Sherlock_lp.Simplex} is equivalence-tested against. *)

val solve :
  num_vars:int ->
  objective:(int * float) list ->
  Sherlock_lp.Simplex.constr list ->
  Sherlock_lp.Simplex.outcome
(** Same contract as {!Sherlock_lp.Simplex.solve}. *)

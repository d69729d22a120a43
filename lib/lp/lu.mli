(** LU-factorized simplex basis with product-form updates.

    Factors the m x m basis matrix [B] (given column by column) as
    [P B Q = L U] with a Markowitz-style ordering: columns are
    eliminated sparsest-first, and within a column the pivot row is
    chosen by threshold partial pivoting (any row whose magnitude is
    within a factor of the column maximum is acceptable) preferring the
    row with the fewest occurrences across the basis, which is what
    keeps fill-in low on the hinge-shaped bases the encoder produces.

    After a simplex pivot the factorization is not rebuilt: an {e eta}
    matrix is appended (product form of the inverse), so
    [B_k = B_0 E_1 ... E_k] and both solves replay the eta file around
    the triangular solves.  The eta file grows by one sparse column per
    pivot; the caller refactorizes periodically ({!eta_count} /
    {!eta_nnz} feed its threshold) to keep solves O(nnz).

    Solves are the two classic simplex kernels:
    - {!ftran} — solve [B x = b] (entering-column direction, basic
      values);
    - {!btran} — solve [B^T y = c] (simplex multipliers, tableau rows).

    Vectors indexed "by row" live in constraint-row space; vectors
    indexed "by position" live in basis-position space (position [k]
    holds the column [basis.(k)] of the simplex). *)

type t

val factorize : m:int -> col:(int -> (int -> float -> unit) -> unit) -> t option
(** [factorize ~m ~col] factors the basis whose column at position [k]
    is enumerated by [col k f] ([f row coeff], rows in any order,
    duplicates summed).  Returns [None] when the basis is numerically
    singular (no acceptable pivot in some column).

    Elimination is left-looking: the column eliminated at step [k] is
    reduced by the earlier steps whose pivot rows it reaches, visited
    in ascending step order, so one factorization costs about the
    factor's nonzeros rather than [m²]. *)

val factorize_scheduled :
  eliminate:(steps:int -> (int -> unit) -> unit) ->
  m:int ->
  col:(int -> (int -> float -> unit) -> unit) ->
  t option
(** {!factorize} with the elimination schedule replaced (a test hook):
    at step [k], [eliminate ~steps:k apply] must call [apply s] in
    ascending order for a superset of the earlier steps the column
    reaches.  Applying a step the column does not reach changes
    nothing, so every such schedule yields bitwise-identical factors. *)

val size : t -> int
(** The dimension [m] the factorization was built for. *)

val ftran : t -> float array -> float array
(** [ftran t b] solves [B x = b].  [b] is indexed by row (length [m],
    not modified); the result is indexed by basis position. *)

val btran : t -> float array -> float array
(** [btran t c] solves [B^T y = c].  [c] is indexed by basis position
    (length [m], not modified); the result is indexed by row. *)

val update : t -> r:int -> w:float array -> unit
(** [update t ~r ~w] records the pivot that replaced the column at
    basis position [r], where [w = ftran t (entering column)] is the
    pivot direction.  Appends one eta term; O(nnz w).  The caller must
    have rejected pivots with [abs_float w.(r)] below its pivot
    tolerance. *)

val eta_count : t -> int
(** Number of eta terms accumulated since factorization. *)

val eta_nnz : t -> int
(** Total stored entries across the eta file. *)

val factor_nnz : t -> int
(** Entries in the L and U factors (fill-in included). *)

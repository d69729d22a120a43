(** Growable sparse constraint matrix.

    CSR-style rows plus per-column occurrence lists, both kept in sync on
    append.  This is the storage behind the revised simplex in {!Simplex}:
    pricing walks column occurrence lists ([col_dot]) against the dense
    working quantities and ratio tests walk them against the basis
    inverse.  Rows and columns are append-only, matching
    the incremental LP lifecycle (the encoding only ever gains variables
    and constraints across rounds). *)

type t

val create : unit -> t

val nrows : t -> int

val ncols : t -> int

val nnz : t -> int
(** Stored entries (exact zeros are dropped on row insertion). *)

val add_col : t -> int
(** Append an empty column, returning its index. *)

val add_row : t -> (int * float) list -> int
(** Append a row given as [(col, coeff)] pairs (any order; duplicate
    columns merge, near-zero coefficients drop).  Returns the row index.
    All referenced columns must already exist. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row t i f] calls [f col coeff] over row [i] in column order. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col t c f] calls [f row coeff] over column [c] in row order. *)

val row_nnz : t -> int -> int

val col_nnz : t -> int -> int

val col_dot : t -> int -> float array -> float
(** [col_dot t c v] is [A_c . v] over the rows — the pricing primitive. *)

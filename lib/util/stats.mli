(** Small statistics helpers used by the inference engine.

    The Acquisition-Time-Mostly-Varies hypothesis (paper §2) ranks methods
    by the coefficient of variation of their durations; the ranking
    itself lives in {!Sherlock_trace.Durations.cv_ranks}. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val coefficient_of_variation : float list -> float
(** [stddev xs /. mean xs]; 0 when the mean is 0 or the list is short.
    This is the paper's CV(duration(m)) in Equation (5). *)

val median : float list -> float
(** Median; 0 on the empty list. *)

val sum : float list -> float
(** Sum; 0 on the empty list. *)

(** Per-query reference implementations of the objective inputs and of
    window extraction's two costs.

    The library builds the Rare and Variation inputs as one-pass tables
    ({!Sherlock_core.Observations.occurrence},
    {!Sherlock_trace.Durations.cv_ranks}) and adds linear expressions
    with a map union.  Window extraction merges per-op access streams
    and answers long spans from per-thread occurrence summaries
    ({!Sherlock_trace.Windows.scan_address},
    {!Sherlock_trace.Windows.span_side}).  These are the direct
    definitions those fast paths are checked against, bit for bit. *)

val percentile_rank : float list -> float -> float
(** [percentile_rank xs x] is the fraction of elements of [xs] that are
    strictly below [x] (0 when [xs] is empty). *)

val avg_occurrence : Sherlock_core.Observations.t -> Sherlock_trace.Opid.t -> float
(** A fold over every merged window: the op's dynamic count times the
    window weight, summed over the sides mentioning it, over the summed
    weights of those sides. *)

val cv_percentile : Sherlock_trace.Durations.t -> string -> float
(** The method's CV ranked against every method's CV, each recomputed
    from all of its samples. *)

val linexpr_add :
  Sherlock_lp.Linexpr.t -> Sherlock_lp.Linexpr.t -> (int * float) list * float
(** Terms and constant of the sum, merging the operands' term maps key
    by key (coefficients summing to exactly zero dropped). *)

val scan_address :
  near:int -> cap:int ->
  pair_counts:(Sherlock_trace.Opid.t * Sherlock_trace.Opid.t, int ref) Hashtbl.t ->
  on_capped:(unit -> unit) ->
  emit:(Sherlock_trace.Event.t -> Sherlock_trace.Event.t -> unit) ->
  Sherlock_trace.Event.t array -> unit
(** The candidate scan of one address as the nested loop over every
    access and every later access within [near], with the same cap
    bookkeeping and early exit as {!Sherlock_trace.Windows.scan_address}. *)

val span_side :
  Sherlock_trace.Log.t -> tid:int -> lo:int -> hi:int -> Sherlock_trace.Windows.side
(** A scan of the whole log, counting the ops of [tid]'s events in
    [[lo, hi]]. *)

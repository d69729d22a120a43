(** Method-duration accounting for the Acquisition-Time-Mostly-Varies
    hypothesis (paper §2, Equation 5).

    Durations are recovered from the trace by pairing each method-exit
    event with the nearest unmatched entry of the same method on the same
    thread; the duration includes any time the method spent blocked, which
    is exactly why contended acquires show high variation. *)

type t

val create : unit -> t

val record_log : t -> Log.t -> unit
(** Fold one run's trace into the accumulated per-method samples.
    Observations accumulate across runs (paper §4.3).  Equivalent to
    [add_samples t (samples_of_log log)]. *)

val samples_of_log : Log.t -> (string * float) list
(** The per-method duration samples of one trace, in completion order.
    Pure with respect to the accumulator, so sample recovery can run on a
    worker domain while the merge into [t] stays sequential. *)

val add_samples : t -> (string * float) list -> unit

val samples : t -> string -> float list
(** Duration samples (microseconds) for a method key
    (see {!Opid.method_key}). *)

val cv : t -> string -> float
(** Coefficient of variation of the method's durations; 0 if unseen. *)

type cv_ranks
(** The CVs of every method over one snapshot of the samples. *)

val cv_ranks : t -> cv_ranks
(** Compute each method's CV once and sort them.  The table does not
    follow later samples: rebuild it after adding more. *)

val cv_percentile : cv_ranks -> string -> float
(** Percentile rank of this method's CV among all methods seen, in
    [\[0,1\]]: the fraction of methods with a strictly smaller CV, 0 for
    an unseen method.  This is the paper's [percentile(CV(duration(m)))]
    in Equation (5): a method whose CV beats most others ranks near 1 and
    so gets a near-zero acquire penalty.  O(log n). *)

val methods : t -> string list
(** All method keys with at least one complete sample. *)

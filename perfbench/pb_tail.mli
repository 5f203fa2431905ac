(** Latency summaries for the benchmark: the median, and the tail
    percentile that still has at least ten samples beyond it.

    Percentiles use the nearest-rank definition: the [p]-th percentile
    of [n] sorted samples is the sample of rank [ceil (p n / 100)].  The
    tail is the highest rank [r] such that at least ten samples are
    strictly greater than the rank-[r] sample, reported as the percentile [100 r / n] together with the sample count.  Because
    it is pinned to a count of samples beyond rather than to a fixed
    percentile, the tail reads the same slice of the distribution
    whether a run completes 40 or 40 000 operations. *)

type tail = {
  percentile : float;  (** [100 r / n]; 100 when no rank qualifies *)
  value : float;  (** the rank-[r] sample (the maximum in the fallback) *)
  beyond : int;  (** samples strictly greater than [value] *)
  count : int;  (** [n], all samples *)
}

val median : float array -> float
(** Median (mean of the two middle samples for even [n]); [nan] when
    empty.  Does not modify its argument. *)

val tail : float array -> tail
(** When fewer than eleven samples exist (or ties leave no qualifying
    rank) the tail falls back to the maximum with [percentile = 100.] and
    [beyond = 0]; [nan] [value] when empty.  Does not modify its argument. *)

val describe : tail -> string
(** e.g. ["p78.72 (n=47, 10 beyond)"]. *)

(** Single-flight deduplication: concurrent computations for the same
    key coalesce onto one in-flight call.

    The first thread to request a key becomes its {e leader} and runs
    the computation; every thread that requests the same key while the
    leader is still running blocks until the leader finishes and then
    shares its result (or re-raises its exception) without running the
    computation at all.  Once the leader finishes, the key leaves the
    in-flight map — the {e next} request for it starts a fresh
    computation, so a leader whose computation populates a cache before
    returning guarantees followers-turned-cache-hits with no window for
    duplicate work (docs/SERVE.md).

    Thread-safe; the computation itself runs outside the internal lock,
    so unrelated keys never serialize each other. *)

type 'a t

val create : unit -> 'a t

type 'a outcome = {
  value : 'a;
  coalesced : bool;
      (** [true] when this call shared a leader's result instead of
          computing *)
}

val run : 'a t -> string -> (unit -> 'a) -> 'a outcome
(** [run t key f] computes [f ()] as leader or waits for the current
    leader of [key].  If the leader's [f] raises, every coalesced
    waiter re-raises the same exception. *)

val in_flight : 'a t -> int
(** Number of keys currently being computed (for the queue-depth
    metrics). *)

val followers : 'a t -> string -> int
(** Number of callers currently waiting on the in-flight computation of
    [key] (0 when none is in flight). *)

(** Machine-speed normalisation of the benchmark's time metrics.

    A shared host's CPU speed drifts by a quarter and more over seconds
    to minutes, as neighbours load the cores, so wall-clock figures from
    runs minutes apart differ more than any change worth measuring.  A
    sampler thread runs a fixed reference kernel several times a second,
    next to the workload, and times each run in CPU time.  Each interval
    the benchmark times is then read in reference seconds: wall time
    scaled by the kernel's reference duration over its median duration
    near that interval, less the kernel's own runs inside it.  On a
    machine where the kernel takes {!reference_ms}, a reference second
    is a second.

    The kernel is the benchmark's own code, built with fixed compiler
    flags, so no change to the program moves it: a faster program reads
    faster, a slower host does not read slower. *)

val reference_ms : float
(** The kernel's duration that defines a reference second: its median
    on the machine the benchmark was recorded on (a 2-vCPU 2.1 GHz Xeon
    VM), rounded. *)

type t

val start : unit -> t
(** Take a few samples at once, then sample in a background thread
    until {!stop}. *)

type speed

val stop : t -> speed
(** Stop and join the sampler. *)

val of_samples : (float * float) list -> speed
(** The speed {!stop} reads from its samples: each a start on the
    monotonic clock and the kernel's CPU seconds.  Exposed for tests. *)

val seconds : speed -> float -> float -> float
(** [seconds sp a b]: reference seconds between monotonic clock
    readings [a] and [b] ({!Pb_common.now}).  Never negative. *)

val kernel_ms : speed -> float
(** Median kernel duration over the whole run, CPU ms. *)

val describe : speed -> string
(** Sample count, median and spread of the kernel's durations. *)

(** Deterministic splittable pseudo-random number generation.

    Every stochastic component of symnet (probabilistic FSSGA transitions,
    random schedulers, workload generators, fault schedules) draws its
    randomness from a [Prng.t] so that experiments are reproducible from a
    single integer seed.  The generator is splitmix64, which is fast,
    passes BigCrush, and — crucially for us — supports {e splitting}: a
    stream can fork an independent child stream, so each node of a network
    can own a private generator derived deterministically from the
    experiment seed. *)

type t
(** Mutable generator state: the splitmix64 counter and gamma, held
    unboxed, so the draws that return immediates ({!bits}, {!bool},
    {!int}, {!bernoulli}) and {!split_key_into} allocate nothing. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** [split g] advances [g] and returns a statistically independent child
    generator.  Distinct calls yield distinct streams. *)

val split_key : t -> key:int -> t
(** [split_key g ~key] derives an independent child stream as a {e pure
    function} of [g]'s current state and the non-negative [key], without
    advancing [g].  Distinct keys give independent streams; repeated calls
    with the same key replay the same stream.  This is how the engine
    gives every node of a network a private per-node stream (key = node
    id) whose draws do not depend on which domain, or in which order, the
    node is stepped — the determinism contract of the parallel engine.
    [split_key ~key:0] coincides with the stream the next {!split} would
    return.  @raise Invalid_argument on a negative key. *)

val split_key_into : t -> key:int -> into:t -> unit
(** [split_key_into g ~key ~into] overwrites [into] with the stream
    [split_key g ~key] would return, and allocates nothing: hot paths
    that derive a keyed stream per message or per round keep one
    caller-owned generator (any [t], e.g. from {!create}) and re-key it.
    [into] may be [g] itself, which walks a key chain in place.
    @raise Invalid_argument on a negative key. *)

val copy : t -> t
(** [copy g] duplicates the exact current state (same future outputs). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** The native-int fast path: the same stream step as {!bits64} truncated
    to the 63-bit native [int] (its low bits), uniform over the whole
    [int] range — mask with [land] for smaller draws.  Advances the state
    exactly one step, so [bits] and {!bits64} draws interleave
    reproducibly; {!bool} is [bits g land 1 = 1] and matches the historic
    [Int64] low-bit draw bit for bit. *)

val int : t -> int -> int
(** [int g n] is uniform on [0, n-1].  Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bernoulli : t -> p:float -> bool
(** [bernoulli g ~p] is [true] with probability [p]. *)

val geometric_bit : t -> max:int -> int option
(** Flajolet–Martin style draw: returns [Some i] (1-indexed) with
    probability [2{^-i}] for [1 <= i <= max], and [None] with the residual
    probability [2{^-max}].  Used by the census algorithm. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniform random permutation of [0..n-1]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val popcount : int64 -> int
(** Number of set bits, in constant time.  Splitting uses it to count a
    derived gamma's bit transitions; exposed so it can be checked
    against a bit-by-bit count. *)

(** A reusable fixed-size pool of OCaml 5 domains for synchronous-round
    data parallelism.

    The pool owns [size - 1] worker domains that live for the pool's
    lifetime (spawning a domain costs ~100µs — far too much to pay per
    round); the calling domain always executes shard 0 itself.  {!run}
    statically partitions an index range [0, n) into [size] contiguous
    chunks, hands chunk [s] to domain [s], and barriers until every chunk
    has finished.  The hand-off and the barrier are built from one
    mutex/condition pair per worker with the bounds stored in mutable
    [int] fields, so a round allocates nothing in the pool itself; pass a
    preallocated closure as the body to keep the whole round
    allocation-free.

    Static chunking is deliberate: the engine's phases write only the
    cells of their own chunk, and synchronous FSSGA rounds are
    embarrassingly uniform anyway (every live node does one bounded-view
    step).

    Mutex acquisition/release around the hand-off gives the usual
    happens-before edges: writes made by the caller before {!run} are
    visible to the shard bodies, and writes made by shard bodies are
    visible to the caller after {!run} returns. *)

type t

val create : int -> t
(** [create domains] spawns a pool of [max 1 domains] slots (i.e.
    [domains - 1] worker domains; [create 1] spawns nothing and {!run}
    degenerates to calling the body inline).  Shut the pool down when
    done — live domains keep the process alive. *)

val size : t -> int
(** Number of slots (chunks per {!run}), including the caller's. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — what [--domains 0] resolves to
    in the CLIs. *)

val run : t -> n:int -> (int -> int -> int -> unit) -> unit
(** [run pool ~n f] executes [f slot lo hi] for every slot's chunk of
    [0, n) — slot 0 on the calling domain, the rest on the pool's
    workers — and returns when all have finished.  If any body raised,
    the first exception (by slot order) is re-raised after the barrier.
    Not reentrant: calling [run] from inside a body raises
    [Invalid_argument]. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Idempotent; {!run} after
    shutdown raises [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, exceptions included. *)

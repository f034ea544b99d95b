(** The resident-network daemon.

    Keeps a network in memory while a {!Symnet_engine.Runner} session
    keeps stepping rounds, and answers {!Protocol} requests over
    {!Wire}-framed connections on a Unix or TCP socket.  Single-threaded
    by design (the target container has one core): one [select] loop
    interleaves accepting clients, answering ready requests, and
    stepping [rounds_per_tick] rounds — so every answer is computed
    between rounds, against a {!View} snapshot whose (version, epoch)
    stamp identifies a bit-exact network state.

    Mutations are applied directly to the resident graph; the session's
    next round reconciles its dirty set against the bumped graph
    version.  A mutation arriving after the session finished (the
    network quiesced) arms a fresh session over the same network, so the
    daemon converges again and keeps serving.  A mutation's reply takes
    no snapshot: it carries the current view's stamp while that view is
    still fresh, and otherwise the (version, epoch, rounds run) that a
    snapshot taken then would carry.

    The daemon keeps one {!View} and one restart checkpoint and brings
    both up to date in place ({!View.refresh},
    {!Symnet_engine.Network.refresh_checkpoint}) from the network's
    state write log and the graph's flip log, so a mutation and the
    rounds it wakes cost what they changed, not a copy of the network.
    The view is refreshed when a query finds it stale, the checkpoint
    when a session quiesces and every 256 ticks.

    Distance queries are answered by landmark-guided searches
    ({!Symnet_graph.Analysis.guided_distances}).  The daemon builds the
    landmark table on the first distance query, from the resident
    graph's structure, which no mutation changes, and hands it to every
    view it takes. *)

type address = Unix_sock of string | Tcp of string * int

val address_of_string : string -> (address, string) result
(** [unix:PATH] or [tcp:HOST:PORT] (empty host means 127.0.0.1; the
    host must be a literal IP). *)

val connect : address -> Unix.file_descr
(** Client-side dial (used by {!Hammer}, the CLI client and tests). *)

type 'q t

val create :
  ?recorder:Symnet_obs.Recorder.t ->
  ?rounds_per_tick:int ->
  ?read_deadline:float ->
  ?write_buf_limit:int ->
  state_json:('q -> Symnet_obs.Jsonx.t) ->
  session:(unit -> 'q Symnet_engine.Runner.session) ->
  address ->
  'q t
(** Bind and listen (a stale Unix socket path is unlinked first), and
    arm the first session.  [session] is called again whenever a
    mutation wakes a finished run; it must return sessions over the same
    resident network.  [state_json] renders a node's automaton state for
    [node_state] queries.  [rounds_per_tick] (default 1) rounds are
    stepped per loop iteration.  A [recorder] with live spans gets
    [Serve_snapshot]/[Serve_request] phases (plus the session's own
    round phases) for Chrome traces, and its restart checkpoints as
    [Checkpoint] spans.

    Resilience: client sockets are non-blocking, frames are reassembled
    incrementally, and responses go through a bounded per-connection
    write buffer.  Misbehaving connections are {e evicted} (recorded as
    [Evict_client] events / the [client_evictions] counter), never
    allowed to stall or crash the daemon:
    - an invalid frame length prefix — framing cannot resynchronise
      after garbage (reason [bad_frame]; malformed {e JSON} inside a
      well-formed frame still gets an error response);
    - more than [write_buf_limit] (default 4 MiB) undelivered response
      bytes (reason [slow_reader]);
    - a connection stalled mid-frame, either direction, for more than
      [read_deadline] seconds (default 30; reason [deadline]). *)

val serve_forever : ?supervise:bool -> 'q t -> unit
(** Loop until a [shutdown] request arrives, then close every
    connection, the listener, and unlink the socket path.

    With [supervise] (default [true]), an exception escaping the serve
    core restarts it instead of killing the daemon: the network is
    restored from the latest periodic checkpoint, a fresh session is
    armed, all connections are dropped (their protocol state is
    unknown), and serving resumes — recorded as a [serve_restart]
    recovery event and counted by {!restarts}.  After 16 restarts the
    exception propagates (a hot crash loop serves nothing).
    [Out_of_memory] and [Stack_overflow] always propagate. *)

val tick : ?timeout:float -> 'q t -> unit
(** One loop iteration (select + serve ready requests + step rounds);
    [timeout] (default 0.05s) bounds the select wait when the session
    has finished and there is nothing to step.  Exposed for callers
    embedding the daemon in their own loop (tests, benches). *)

val running : 'q t -> bool
val close : 'q t -> unit

val requests_served : 'q t -> int
val rounds_run : 'q t -> int
(** Cumulative rounds stepped, across session restarts — the [round]
    stamp on responses. *)

val restarts : 'q t -> int
(** Serve-core restarts performed by the supervisor (also reported in
    [status] and [telemetry] responses). *)

val landmarks : 'q t -> Symnet_graph.Analysis.landmarks option
(** The landmark table every view shares, once a distance query has
    built it. *)

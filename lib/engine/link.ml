(* Deterministic adversarial link layer over the sharded runtime's
   per-(src, dst) channels.

   The fault model perturbs the message stream of each channel — drop,
   duplicate, bounded reorder, delay-by-k-rounds — with every random
   draw taken from a pure [Prng.split_key] chain keyed by
   (src, dst, round, message index).  No draw depends on drain order,
   domain count, or wall time, so a given (seed, traffic) pair produces
   the same faults at every (shards, domains) configuration and across
   rollback replays.  The (src, dst) prefix of the chain is derived once
   per channel; the round and message keys are split into two
   generators the runtime owns, so keying costs no allocation.

   A channel with nothing to send and nothing in flight draws nothing
   and emits nothing, so the caller skips it ({!channel_busy}): an idle
   round costs a constant per channel, not three keyed splits.

   On top of the lossy channel sits an optional reliable-exchange
   protocol (the paper's S16 bounded channels made explicit): messages
   carry sequence numbers, the receiver delivers in order and buffers
   out-of-order arrivals, acks are cumulative and returned losslessly at
   end of round, and unacked messages retransmit with exponential
   backoff.  A per-channel in-flight cap defers excess traffic into a
   FIFO (backpressure).  Under reliable exchange every enqueued ghost
   update is eventually applied in order, so a self-stabilising
   computation converges to the same fixed point as the fault-free run. *)

module Prng = Symnet_prng.Prng
module Recorder = Symnet_obs.Recorder

type kind =
  | Drop
  | Duplicate
  | Reorder of { window : int }
  | Delay of { rounds : int }

type target = All_channels | Cut_channels

type fault = { kind : kind; p : float; target : target }

type spec = {
  faults : fault list;
  reliable : bool;
  cap : int;
  backoff : int;
}

let default_spec = { faults = []; reliable = false; cap = 16; backoff = 1 }
let active spec = spec.faults <> [] || spec.reliable

let kind_name = function
  | Drop -> "drop"
  | Duplicate -> "dup"
  | Reorder _ -> "reorder"
  | Delay _ -> "delay"

(* --- per-channel runtime state ----------------------------------------- *)

(* A sent-but-unacked message (reliable mode). *)
type 'q pending = {
  p_seq : int;
  p_slot : int;
  p_state : 'q;
  mutable p_sent : int;  (* round of the last transmission *)
  mutable p_attempts : int;  (* retransmissions so far *)
}

(* A copy in flight through the fault pipeline. *)
type 'q transit = {
  t_due : int;  (* delivery round *)
  t_pos : int;  (* order key within the arrival batch *)
  t_seq : int;
  t_slot : int;
  t_state : 'q;
}

type 'q channel = {
  src : int;
  dst : int;
  keyed : Prng.t;  (* the fault chain keyed by (src + 1, dst + 1) *)
  mutable next_seq : int;
  mutable expect : int;  (* receiver: next in-order seq *)
  mutable unacked : 'q pending list;  (* ascending seq *)
  mutable deferred : (int * 'q) list;  (* cap overflow FIFO (reversed) *)
  mutable transit : 'q transit list;
  mutable ooo : (int * int * 'q) list;  (* (seq, slot, state), ascending seq *)
  mutable quarantined : bool;
}

type 'q t = {
  k : int;
  spec : spec;
  round_rng : Prng.t;  (* re-keyed per (channel, round) *)
  msg_rng : Prng.t;  (* re-keyed per message *)
  channels : 'q channel array array;  (* channels.(src).(dst) *)
  mutable cut : (int * int) list;
  (* counters (all cumulative) *)
  mutable n_dropped : int;
  mutable n_duplicated : int;
  mutable n_retries : int;
  mutable n_stalls : int;
  mutable n_delivered : int;
}

let create ~seed ~shards spec =
  let base = Prng.create ~seed in
  let channel src dst =
    {
      src;
      dst;
      keyed = Prng.split_key (Prng.split_key base ~key:(src + 1)) ~key:(dst + 1);
      next_seq = 0;
      expect = 0;
      unacked = [];
      deferred = [];
      transit = [];
      ooo = [];
      quarantined = false;
    }
  in
  {
    k = shards;
    spec;
    round_rng = Prng.create ~seed;
    msg_rng = Prng.create ~seed;
    channels = Array.init shards (fun s -> Array.init shards (channel s));
    cut = [];
    n_dropped = 0;
    n_duplicated = 0;
    n_retries = 0;
    n_stalls = 0;
    n_delivered = 0;
  }

let spec t = t.spec
let set_cut t pairs = t.cut <- pairs

(* Loops and a pattern match rather than iterators and polymorphic
   [<> []]: the runtime asks every linked round, and asking allocates
   nothing. *)
let holds_traffic c =
  match c with
  | { unacked = []; deferred = []; transit = []; ooo = []; _ } -> false
  | _ -> true

let channel_busy t ~src ~dst = holds_traffic t.channels.(src).(dst)

let busy t =
  let b = ref false in
  for s = 0 to t.k - 1 do
    for d = 0 to t.k - 1 do
      if holds_traffic t.channels.(s).(d) then b := true
    done
  done;
  !b

let reset t =
  (* Drop all in-flight traffic and restart every channel's sequence
     space from zero.  Safe whenever the caller resynchronises ghosts
     from the authoritative flat states (resync / restore): the lost
     messages are redundant with the resync.  Quarantine flags survive —
     degradation is a one-way ladder within a run. *)
  Array.iter
    (Array.iter (fun c ->
         c.next_seq <- 0;
         c.expect <- 0;
         c.unacked <- [];
         c.deferred <- [];
         c.transit <- [];
         c.ooo <- []))
    t.channels

let quarantine_stalled t =
  (* Quarantine every channel still carrying traffic: subsequent rounds
     bypass the fault pipeline on them (the physical channel is taken
     out of the adversary's hands).  Returns the quarantined pairs; the
     caller is expected to resync ghosts and [reset] traffic. *)
  let out = ref [] in
  Array.iter
    (Array.iter (fun c ->
         if holds_traffic c && not c.quarantined then begin
           c.quarantined <- true;
           out := (c.src, c.dst) :: !out
         end))
    t.channels;
  List.rev !out

(* --- the per-channel round --------------------------------------------- *)

let fault_applies t c f =
  match f.target with
  | All_channels -> true
  | Cut_channels -> List.mem (c.src, c.dst) t.cut

(* Push [batch] (this round's outbox content, in enqueue order) through
   channel [c] and deliver what arrives this round.  All of a channel's
   state is touched only here, and the caller iterates channels in a
   fixed (dst ascending, src ascending) order on one domain, so the
   event stream and every counter are deterministic. *)
let exchange_channel t c ~round ~batch ~deliver ~recorder =
  let rel = t.spec.reliable in
  (* 1. admission: sequence the new batch, respecting the in-flight cap.
     The admitted messages are collected in order and appended to the
     unacked list once: O(in-flight + batch) per round, where appending
     each message would be quadratic in the in-flight count under the
     unbounded cap. *)
  let fresh = ref [] in
  if rel then begin
    List.iter (fun m -> c.deferred <- m :: c.deferred) batch;
    let queue = List.rev c.deferred in
    let cap = t.spec.cap in
    (* the in-flight count only matters under a cap (0 = unbounded) *)
    let in_flight = ref (if cap > 0 then List.length c.unacked else 0) in
    let still_deferred = ref [] in
    List.iter
      (fun (slot, state) ->
        if cap <= 0 || !in_flight < cap then begin
          let p =
            {
              p_seq = c.next_seq;
              p_slot = slot;
              p_state = state;
              p_sent = round;
              p_attempts = 0;
            }
          in
          c.next_seq <- c.next_seq + 1;
          incr in_flight;
          fresh := p :: !fresh
        end
        else still_deferred := (slot, state) :: !still_deferred)
      queue;
    if !fresh <> [] then c.unacked <- c.unacked @ List.rev !fresh;
    c.deferred <- !still_deferred;
    (* keep reversed-FIFO invariant *)
    if c.deferred <> [] then begin
      t.n_stalls <- t.n_stalls + 1;
      Recorder.backpressure_stall recorder
    end
  end
  else
    List.iter
      (fun (slot, state) ->
        let p =
          { p_seq = c.next_seq; p_slot = slot; p_state = state; p_sent = round;
            p_attempts = 0 }
        in
        c.next_seq <- c.next_seq + 1;
        fresh := p :: !fresh)
      batch;
  let fresh = List.rev !fresh in
  (* 2. retransmits: unacked messages whose backoff window elapsed *)
  let retx =
    if not rel then []
    else
      List.filter
        (fun p ->
          p.p_sent < round
          && round - p.p_sent >= t.spec.backoff * (1 lsl min p.p_attempts 6))
        c.unacked
  in
  List.iter
    (fun p ->
      p.p_attempts <- p.p_attempts + 1;
      p.p_sent <- round;
      t.n_retries <- t.n_retries + 1;
      Recorder.link_retry recorder ~src:c.src ~dst:c.dst ~seq:p.p_seq)
    retx;
  let outgoing =
    List.sort (fun a b -> compare a.p_seq b.p_seq) (retx @ fresh)
  in
  (* 3. fault pipeline: one keyed rng per (channel, round, message) *)
  Prng.split_key_into c.keyed ~key:round ~into:t.round_rng;
  let rng = t.msg_rng in
  List.iteri
    (fun i p ->
      Prng.split_key_into t.round_rng ~key:(i + 1) ~into:rng;
      let dropped = ref false in
      let copies = ref 1 in
      let due = ref round in
      let pos = ref i in
      if not c.quarantined then
        List.iter
          (fun f ->
            if fault_applies t c f then
              match f.kind with
              | Drop ->
                  if Prng.bernoulli rng ~p:f.p then begin
                    dropped := true;
                    t.n_dropped <- t.n_dropped + 1;
                    Recorder.link_drop recorder ~src:c.src ~dst:c.dst
                      ~kind:(kind_name Drop)
                  end
              | Duplicate ->
                  if Prng.bernoulli rng ~p:f.p then begin
                    incr copies;
                    t.n_duplicated <- t.n_duplicated + 1
                  end
              | Delay { rounds } ->
                  if Prng.bernoulli rng ~p:f.p then due := round + max 1 rounds
              | Reorder { window } ->
                  if Prng.bernoulli rng ~p:f.p then
                    pos := !pos + 1 + Prng.int rng (max 1 window))
          t.spec.faults;
      if not !dropped then
        for _ = 1 to !copies do
          c.transit <-
            { t_due = !due; t_pos = !pos; t_seq = p.p_seq; t_slot = p.p_slot;
              t_state = p.p_state }
            :: c.transit
        done)
    outgoing;
  (* 4. arrivals due this round, in deterministic (pos, seq) order *)
  let due, later = List.partition (fun m -> m.t_due <= round) c.transit in
  c.transit <- later;
  let due =
    List.sort
      (fun a b ->
        match compare a.t_pos b.t_pos with 0 -> compare a.t_seq b.t_seq | d -> d)
      due
  in
  let delivered = ref 0 in
  let apply ~slot ~state =
    deliver ~slot ~state;
    incr delivered;
    t.n_delivered <- t.n_delivered + 1
  in
  List.iter
    (fun m ->
      if not rel then apply ~slot:m.t_slot ~state:m.t_state
      else if m.t_seq < c.expect then () (* duplicate of an acked message *)
      else if m.t_seq = c.expect then begin
        apply ~slot:m.t_slot ~state:m.t_state;
        c.expect <- c.expect + 1;
        (* drain the out-of-order buffer while it continues the run *)
        let rec drain () =
          match c.ooo with
          | (seq, slot, state) :: rest when seq = c.expect ->
              c.ooo <- rest;
              apply ~slot ~state;
              c.expect <- c.expect + 1;
              drain ()
          | _ -> ()
        in
        drain ()
      end
      else if not (List.exists (fun (seq, _, _) -> seq = m.t_seq) c.ooo) then
        c.ooo <-
          List.sort
            (fun (a, _, _) (b, _, _) -> compare a b)
            ((m.t_seq, m.t_slot, m.t_state) :: c.ooo))
    due;
  (* 5. cumulative ack, returned losslessly at end of round *)
  if rel then
    c.unacked <- List.filter (fun p -> p.p_seq >= c.expect) c.unacked;
  !delivered

let exchange t ~round ~src ~dst ~batch ~deliver ~recorder =
  exchange_channel t t.channels.(src).(dst) ~round ~batch ~deliver ~recorder

(* --- accessors ---------------------------------------------------------- *)

let messages_dropped t = t.n_dropped
let duplicated t = t.n_duplicated
let retries t = t.n_retries
let stalls t = t.n_stalls
let delivered t = t.n_delivered

(* --- spec parsing / printing ------------------------------------------- *)

let grammar =
  "link=<drop|dup|reorder|delay>[:p=<float>][:target=<all|cut>]\
   [:window=<int>][:rounds=<int>][:reliable=<bool>][:cap=<int>][:backoff=<int>]"

let spec_of_string s =
  (* Accept ',' as a separator synonym for ':' so shell-quoted specs can
     avoid colons: [link=drop,p=0.05,target=cut]. *)
  let s = String.map (function ',' -> ':' | ch -> ch) s in
  let parts = String.split_on_char ':' s |> List.map String.trim in
  let known =
    [ "p"; "target"; "window"; "rounds"; "reliable"; "cap"; "backoff" ]
  in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match parts with
  | [] | [ "" ] -> err "link spec: empty (expected %s)" grammar
  | head :: kvs -> (
      let kind_of = function
        | "drop" -> Ok Drop
        | "dup" | "duplicate" -> Ok Duplicate
        | "reorder" -> Ok (Reorder { window = 4 })
        | "delay" -> Ok (Delay { rounds = 2 })
        | k -> err "link spec: unknown kind %S (expected %s)" k grammar
      in
      let head_kind =
        match String.index_opt head '=' with
        | Some i when String.sub head 0 i = "link" ->
            kind_of (String.sub head (i + 1) (String.length head - i - 1))
        | _ -> kind_of head
      in
      match head_kind with
      | Error _ as e -> e
      | Ok kind ->
          let kind = ref kind in
          let p = ref 0.05 in
          let target = ref All_channels in
          let reliable = ref None in
          let cap = ref None in
          let backoff = ref None in
          let rec go = function
            | [] -> Ok ()
            | "" :: rest -> go rest
            | kv :: rest -> (
                match String.index_opt kv '=' with
                | None -> err "link spec: expected key=value, got %S (%s)" kv grammar
                | Some i -> (
                    let k = String.sub kv 0 i in
                    let v = String.sub kv (i + 1) (String.length kv - i - 1) in
                    if not (List.mem k known) then
                      err "link spec: unknown key %S (valid keys: %s; grammar: %s)"
                        k (String.concat ", " known) grammar
                    else
                      let int () =
                        match int_of_string_opt v with
                        | Some n -> Ok n
                        | None -> err "link spec: %s expects an int, got %S" k v
                      in
                      let continue r =
                        match r with Error _ as e -> e | Ok () -> go rest
                      in
                      match k with
                      | "p" -> (
                          match float_of_string_opt v with
                          | Some f when f >= 0. && f <= 1. ->
                              p := f;
                              go rest
                          | _ -> err "link spec: p expects a float in [0,1], got %S" v)
                      | "target" -> (
                          match v with
                          | "all" -> target := All_channels; go rest
                          | "cut" -> target := Cut_channels; go rest
                          | _ -> err "link spec: target expects all|cut, got %S" v)
                      | "window" ->
                          continue
                            (Result.map
                               (fun n -> kind := Reorder { window = max 1 n })
                               (int ()))
                      | "rounds" ->
                          continue
                            (Result.map
                               (fun n -> kind := Delay { rounds = max 1 n })
                               (int ()))
                      | "reliable" -> (
                          match bool_of_string_opt v with
                          | Some b -> reliable := Some b; go rest
                          | None ->
                              err "link spec: reliable expects true|false, got %S" v)
                      | "cap" -> continue (Result.map (fun n -> cap := Some n) (int ()))
                      | "backoff" ->
                          continue
                            (Result.map (fun n -> backoff := Some (max 1 n)) (int ()))
                      | _ -> assert false))
          in
          Result.map
            (fun () ->
              ( { kind = !kind; p = !p; target = !target },
                !reliable,
                !cap,
                !backoff ))
            (go kvs))

let merge_spec spec (fault, reliable, cap, backoff) =
  {
    faults = spec.faults @ [ fault ];
    reliable = Option.value reliable ~default:spec.reliable;
    cap = Option.value cap ~default:spec.cap;
    backoff = Option.value backoff ~default:spec.backoff;
  }

let string_of_fault f =
  let base =
    match f.kind with
    | Drop -> "link=drop"
    | Duplicate -> "link=dup"
    | Reorder { window } -> Printf.sprintf "link=reorder:window=%d" window
    | Delay { rounds } -> Printf.sprintf "link=delay:rounds=%d" rounds
  in
  let target = match f.target with All_channels -> "all" | Cut_channels -> "cut" in
  Printf.sprintf "%s:p=%g:target=%s" base f.p target

let string_of_spec spec =
  match spec.faults with
  | [] -> ""
  | first :: rest ->
      let head =
        Printf.sprintf "%s:reliable=%b:cap=%d:backoff=%d" (string_of_fault first)
          spec.reliable spec.cap spec.backoff
      in
      String.concat ";" (head :: List.map string_of_fault rest)

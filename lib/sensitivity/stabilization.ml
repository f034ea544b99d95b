module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Runner = Symnet_engine.Runner
module Chaos = Symnet_engine.Chaos
module Fssga = Symnet_core.Fssga

type 'q verdict = {
  trials : int;
  recovered : int;
  mean_recovery_rounds : float;
}

let verdict_of ~trials ~recovered ~total_rounds =
  {
    trials;
    recovered;
    mean_recovery_rounds =
      (if recovered = 0 then nan
       else float_of_int total_rounds /. float_of_int recovered);
  }

let probe ~rng ~automaton ~graph ~corrupt ~legitimate ~trials ~max_rounds =
  let recovered = ref 0 in
  let total_rounds = ref 0 in
  for _ = 1 to trials do
    let g = graph () in
    let corrupt_rng = Prng.split rng in
    (* same automaton, adversarial initial states *)
    let corrupted =
      { automaton with Fssga.init = (fun g v -> corrupt corrupt_rng g v) }
    in
    let net = Network.init ~rng:(Prng.split rng) g corrupted in
    if legitimate net then incr recovered (* recovered in 0 rounds *)
    else begin
      let o =
        Runner.run ~max_rounds ~stop:(fun ~round:_ net -> legitimate net) net
      in
      (* [stopped] is the legitimacy predicate firing; a quiesced or
         budget-exhausted run ended illegitimate (a quiesced one provably
         never recovers — nothing will ever change again). *)
      if o.Runner.stopped then begin
        incr recovered;
        total_rounds := !total_rounds + o.Runner.rounds
      end
    end
  done;
  verdict_of ~trials ~recovered:!recovered ~total_rounds:!total_rounds

let mttr ~rng ~automaton ~graph ~chaos ?corrupt ~legitimate ?(settle_rounds = 500)
    ~trials ~max_rounds () =
  let recovered = ref 0 in
  let total_rounds = ref 0 in
  for _ = 1 to trials do
    let g = graph () in
    let net = Network.init ~rng:(Prng.split rng) g automaton in
    (* Phase 1: reach a legitimate configuration undisturbed.  Trials
       that never get there still proceed — the disturbance phase then
       measures recovery to first-ever legitimacy, which is the honest
       reading for algorithms without a guaranteed clean fixpoint. *)
    ignore
      (Runner.run ~max_rounds:settle_rounds
         ~stop:(fun ~round:_ net -> legitimate net)
         net
        : Runner.outcome);
    (* Phase 2: replay rounds under a bounded chaos process and measure
       rounds from the last possible fault to legitimacy. *)
    let seed = 1 + (Prng.bits rng land 0x3FFF_FFFF) in
    let c = Chaos.create ~seed chaos in
    let horizon =
      match Chaos.horizon c with
      | Some h -> h
      | None -> invalid_arg "Stabilization.mttr: chaos must be bounded (bursts)"
    in
    let o =
      Runner.run ~chaos:c ?corrupt ~max_rounds
        ~stop:(fun ~round net -> round >= horizon && legitimate net)
        net
    in
    if o.Runner.stopped then begin
      incr recovered;
      total_rounds := !total_rounds + max 0 (o.Runner.rounds - horizon)
    end
  done;
  verdict_of ~trials ~recovered:!recovered ~total_rounds:!total_rounds

module Prng = Symnet_prng.Prng

type t =
  | Synchronous
  | Rotor
  | Random_permutation
  | Uniform_singles
  | Adversarial of (round:int -> int list)

let name = function
  | Synchronous -> "synchronous"
  | Rotor -> "rotor"
  | Random_permutation -> "random_permutation"
  | Uniform_singles -> "uniform_singles"
  | Adversarial _ -> "adversarial"

let activate_all net order =
  List.fold_left (fun changed v -> Network.activate net v || changed) false order

let round ?pool ?dirty ?sharded t net ~round =
  (* Change-driven stepping engages automatically for the fixed-order
     disciplines running deterministic automata; it is provably
     outcome-preserving there and unsound elsewhere (probabilistic
     automata would see a shifted rng stream, random-order schedulers a
     shifted shuffle). *)
  let asked = dirty in
  let dirty =
    Option.value dirty ~default:true && Network.dirty_step_sound net
  in
  match t with
  | Synchronous -> (
      match sharded with
      | Some sh -> Sharded_network.step ?pool ~dirty sh
      | None ->
          (* the dirty set of synchronous rounds lives in a runtime: an
             explicit request without one would silently run naive *)
          if asked = Some true then
            invalid_arg
              "Scheduler.round: dirty synchronous rounds need a runtime";
          Network.sync_step net)
  | Rotor -> if dirty then Network.rotor_step_dirty net else Network.rotor_step net
  | Random_permutation ->
      let nodes = Array.of_list (Network.live_nodes net) in
      Prng.shuffle (Network.rng net) nodes;
      Array.fold_left
        (fun changed v -> Network.activate net v || changed)
        false nodes
  | Uniform_singles ->
      let nodes = Array.of_list (Network.live_nodes net) in
      if Array.length nodes = 0 then false
      else begin
        let rng = Network.rng net in
        let changed = ref false in
        for _ = 1 to Array.length nodes do
          if Network.activate net (Prng.choose rng nodes) then changed := true
        done;
        !changed
      end
  | Adversarial f -> activate_all net (f ~round)

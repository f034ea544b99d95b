module Graph = Symnet_graph.Graph
module Analysis = Symnet_graph.Analysis
module Prng = Symnet_prng.Prng

type action =
  | Kill_node of int
  | Kill_edge of int * int
  | Corrupt_state of int
  | Crash_restart of { node : int; downtime : int }

type event = { at_round : int; action : action }
type schedule = event list

(* Returns whether the action had any effect, so the runner can surface
   misconfigured schedules (dead targets, missing edges) instead of
   swallowing them.  State-level actions are delegated to [apply_state]
   because only the network knows how to rewrite a node's state; the
   graph half of [Crash_restart] is the crash — the revival is the
   runner's job (it knows the round clock). *)
let apply_one ~apply_state g = function
  | Kill_node v | Crash_restart { node = v; _ } ->
      let was_live = Graph.is_live_node g v in
      if was_live then Graph.remove_node g v;
      was_live
  | Kill_edge (u, v) -> (
      match Graph.edge_between g u v with
      | Some e ->
          Graph.remove_edge g e.Graph.id;
          true
      | None -> false)
  | Corrupt_state v -> apply_state v

(* Deletions shrink the views of the surviving neighbourhood: mark it
   dirty while it is still enumerable, i.e. before the action lands.
   Corruptions need nothing here — Network.set_state marks for them. *)
let mark_before net = function
  | Kill_node v | Crash_restart { node = v; _ } ->
      Network.mark_dirty_around net v
  | Kill_edge (u, v) ->
      Network.mark_dirty net u;
      Network.mark_dirty net v
  | Corrupt_state _ -> ()

let apply_due ?on_apply ?(apply_state = fun _ -> false) schedule ~round g =
  let due, pending =
    List.partition (fun e -> e.at_round <= round) schedule
  in
  List.iter
    (fun e ->
      let effective = apply_one ~apply_state g e.action in
      match on_apply with Some f -> f e.action ~effective | None -> ())
    due;
  pending

let sort_schedule s =
  List.stable_sort (fun a b -> compare a.at_round b.at_round) s

let random_edge_faults rng g ~count ~max_round ~keep_connected =
  let scratch = Graph.copy g in
  let events = ref [] in
  let attempts = ref 0 in
  let made = ref 0 in
  while !made < count && !attempts < 50 * (count + 1) do
    incr attempts;
    let live = Array.of_list (Graph.edges scratch) in
    if Array.length live > 0 then begin
      let e = Prng.choose rng live in
      let probe = Graph.copy scratch in
      Graph.remove_edge probe e.Graph.id;
      if (not keep_connected) || Analysis.is_connected probe then begin
        Graph.remove_edge scratch e.Graph.id;
        let at_round = 1 + Prng.int rng (max max_round 1) in
        events := { at_round; action = Kill_edge (e.Graph.u, e.Graph.v) } :: !events;
        incr made
      end
    end
  done;
  sort_schedule !events

let random_node_faults rng g ~count ~max_round ~forbidden ~keep_connected =
  let scratch = Graph.copy g in
  let events = ref [] in
  let attempts = ref 0 in
  let made = ref 0 in
  while !made < count && !attempts < 50 * (count + 1) do
    incr attempts;
    let candidates =
      Graph.nodes scratch
      |> List.filter (fun v -> not (List.mem v forbidden))
      |> Array.of_list
    in
    if Array.length candidates > 0 then begin
      let v = Prng.choose rng candidates in
      let probe = Graph.copy scratch in
      Graph.remove_node probe v;
      if
        Graph.node_count probe > 0
        && ((not keep_connected) || Analysis.is_connected probe)
      then begin
        Graph.remove_node scratch v;
        let at_round = 1 + Prng.int rng (max max_round 1) in
        events := { at_round; action = Kill_node v } :: !events;
        incr made
      end
    end
  done;
  sort_schedule !events

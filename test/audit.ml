(* The dirty-set soundness oracle.  Change-driven rounds rest on one
   invariant: for a deterministic automaton, re-stepping a clean live
   node against the authoritative states changes nothing.  A lost
   wake-up — a reader left clean while its view moved — breaks it
   before it shows in any final state, so the properties that drive
   dirty rounds check it after every round.

   The one exemption: a node with a live neighbour in another shard,
   while the runtime's link layer may still owe that neighbour's update
   (traffic in flight, or an unreliable link, which never redelivers a
   dropped one).  Such a node stepped against its shard's ghost, and
   the late delivery is what re-marks it. *)

module Graph = Symnet_graph.Graph
module View = Symnet_core.View
module Fssga = Symnet_core.Fssga
module Network = Symnet_engine.Network
module Sharded = Symnet_engine.Sharded_network
module Runner = Symnet_engine.Runner
module Link = Symnet_engine.Link

let cross_shard ?runtime g =
  match runtime with
  | None -> fun _ -> false
  | Some rt -> (
      match Sharded.link_runtime rt with
      | Some lk when Link.busy lk || not (Link.spec lk).Link.reliable ->
          let stats = Sharded.shard_stats rt in
          let owner v =
            let s = ref 0 in
            Array.iteri
              (fun i st -> if v >= st.Sharded.ss_lo && v < st.Sharded.ss_hi then s := i)
              stats;
            !s
          in
          fun v -> List.exists (fun w -> owner w <> owner v) (Graph.neighbours g v)
      | _ -> fun _ -> false)

(* The clean live nodes whose re-step would change their state; [[]]
   for a probabilistic automaton or before dirty tracking starts. *)
let stale_clean ?runtime net =
  let aut = Network.automaton net and dirty = Network.raw_dirty net in
  if (not (Fssga.is_deterministic aut)) || Array.length dirty = 0 then []
  else begin
    let g = Network.graph net in
    let exempt = cross_shard ?runtime g in
    List.filter
      (fun v ->
        (not dirty.(v))
        && (not (exempt v))
        &&
        let self = Network.state net v in
        let view = View.of_list (List.map (Network.state net) (Graph.neighbours g v)) in
        aut.Fssga.step ~self ~rng:(Network.rng net) view <> self)
      (Graph.nodes g)
  end

let check ?runtime net =
  match stale_clean ?runtime net with
  | [] -> ()
  | vs ->
      failwith
        ("dirty set unsound: clean nodes whose re-step changes them: "
        ^ String.concat " " (List.map string_of_int vs))

(* A session started by [start ~on_round], driven to its end with the
   oracle after every round and again after the end: the end drops the
   runtime and its channels, so no exemption applies any more. *)
let finish start =
  let runtime = ref None in
  let s = start ~on_round:(fun ~round:_ net -> check ?runtime:!runtime net) in
  runtime := Some (Runner.session_runtime s);
  let o = Runner.finish s in
  check (Runner.session_net s);
  o

module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng

type t = {
  graph : Graph.t;
  rng : Prng.t;
  mutable pos : int;
  mutable last : (Graph.edge * [ `Forward | `Backward ]) option;
}

let create ~rng graph ~start =
  if not (Graph.is_live_node graph start) then
    invalid_arg "Walk.create: start node is dead";
  { graph; rng; pos = start; last = None }

let position t = t.pos
let graph t = t.graph

let step_random t =
  let nbrs = Graph.neighbours t.graph t.pos in
  match nbrs with
  | [] -> None
  | _ ->
      let w = Prng.choose t.rng (Array.of_list nbrs) in
      (match Graph.edge_between t.graph t.pos w with
      | Some e ->
          let dir = if e.Graph.u = t.pos then `Forward else `Backward in
          t.last <- Some (e, dir);
          t.pos <- w
      | None -> assert false);
      Some t.pos

let last_edge t = t.last

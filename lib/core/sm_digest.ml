(* A digest automaton: an FSSGA whose transition factors through a
   monoid summary of the neighbour multiset.  This is the shape the
   divide-and-conquer backend exploits — the engine can keep the
   summary in a per-node segment tree and refresh it in O(log deg) per
   neighbour change instead of rescanning the whole view, while
   [to_fssga] recovers the ordinary O(deg) automaton so all three
   backends compute bit-identical transitions. *)

module Prng = Symnet_prng.Prng

type 'q t = {
  name : string;
  init : Symnet_graph.Graph.t -> int -> 'q;
  monoid : Sm_monoid.t;
  encode : 'q -> int;
  decide : self:'q -> rng:Prng.t -> Sm_monoid.summary -> 'q;
  deterministic : bool;
}

let make ~name ~init ~monoid ~encode ~decide ~deterministic =
  { name; init; monoid; encode; decide; deterministic }

let to_fssga d =
  let m = d.monoid in
  let step ~self ~rng view =
    (* One summary per activation: the baseline O(deg) rescan.  The
       allocation keeps the step reentrant under parallel shard reads;
       digest backends avoid both the allocation and the scan. *)
    let acc = Sm_monoid.identity m in
    View.fold_monoid
      (fun () q -> Sm_monoid.absorb m acc (d.encode q))
      () view;
    d.decide ~self ~rng acc
  in
  {
    Fssga.name = d.name;
    init = d.init;
    step;
    deterministic = d.deterministic;
  }

(* Frozen reference copy of the shortest-paths automaton as it stood
   before its states were shared per label: [init] and every relabel
   build a fresh record.  Do not edit — test_shortest_paths.ml requires
   [Shortest_paths.automaton] to reproduce this copy's final states,
   round, activation and transition counts and event traces under every
   execution plan, which is what keeps a representation change of the
   automaton from altering any run. *)

module View = Symnet_core.View
module Fssga = Symnet_core.Fssga
module Sp = Symnet_algorithms.Shortest_paths

let automaton ~sinks ~cap =
  if cap < 1 then invalid_arg "Shortest_paths.automaton: cap >= 1";
  let init _g v =
    if List.mem v sinks then { Sp.is_sink = true; label = 0 }
    else { Sp.is_sink = false; label = cap }
  in
  let relabel (self : Sp.state) label =
    if label = self.label then self else { self with label }
  in
  let step ~(self : Sp.state) view =
    if self.is_sink then relabel self 0
    else begin
      let m =
        View.fold_monoid
          (fun acc (s : Sp.state) -> if s.label < acc then s.label else acc)
          cap view
      in
      relabel self (if m < cap then m + 1 else cap)
    end
  in
  Fssga.deterministic ~name:"shortest-paths" ~init ~step

module View = Symnet_core.View
module Fssga = Symnet_core.Fssga
module Network = Symnet_engine.Network
module Graph = Symnet_graph.Graph

type state = { is_sink : bool; label : int }

let automaton ~sinks ~cap =
  if cap < 1 then invalid_arg "Shortest_paths.automaton: cap >= 1";
  let init _g v =
    if List.mem v sinks then { is_sink = true; label = 0 }
    else { is_sink = false; label = cap }
  in
  (* An unchanged label returns [self] itself, so a no-op activation
     allocates nothing and the engine's commit skips the deep compare. *)
  let relabel self label =
    if label = self.label then self else { self with label }
  in
  let step ~self view =
    (* a sink actively re-asserts label 0 ("each node in T fixes its
       label at 0"), which is also what makes the algorithm
       self-stabilizing from corrupted configurations *)
    if self.is_sink then relabel self 0
    else begin
      (* Smallest neighbour label + 1, capped.  min over the label
         multiset is the canonical infimum observation of §5 (on a
         finite label range it unfolds into the per-label thresh scan
         "is some neighbour labelled j?"), computed here in one
         allocation-free pass instead of cap view scans: a fold of
         min-with-[cap], which is order-independent, so no neighbour
         (or an empty view) leaves [cap]. *)
      let m =
        View.fold_monoid
          (fun acc s -> if s.label < acc then s.label else acc)
          cap view
      in
      relabel self (if m < cap then m + 1 else cap)
    end
  in
  Fssga.deterministic ~name:"shortest-paths" ~init ~step

let label s = s.label

let route_next net v =
  let s = Network.state net v in
  if s.is_sink then None
  else begin
    let best =
      Graph.fold_neighbours (Network.graph net) v ~init:None ~f:(fun acc w ->
          let lw = (Network.state net w).label in
          match acc with
          | Some (_, l) when l <= lw -> acc
          | _ -> Some (w, lw))
    in
    match best with
    | Some (w, lw) when lw < s.label -> Some w
    | _ -> None
  end

let route_path net ~src =
  let rec go v acc seen =
    if List.mem v seen then List.rev (v :: acc)
    else begin
      match route_next net v with
      | None -> List.rev (v :: acc)
      | Some w -> go w (v :: acc) (v :: seen)
    end
  in
  go src [] []

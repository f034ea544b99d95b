module View = Symnet_core.View
module Fssga = Symnet_core.Fssga
module Network = Symnet_engine.Network
module Graph = Symnet_graph.Graph

type state = { is_sink : bool; label : int }

(* The non-sink records of labels [1 .. length - 1] (slot 0 is unused),
   grown on demand by doubling: a wave reaches a few hundred labels, not
   [cap].  A grown table keeps every record of the one it replaces and
   is published by compare-and-set, so domains racing to grow it agree
   on one record per label (the loser retries against the winner's
   table). *)
let rec grown table ~cap label =
  let old = Atomic.get table in
  let n = Array.length old in
  if label < n then old
  else begin
    let a = Array.make (min cap (max (label + 1) (2 * n))) old.(0) in
    Array.blit old 0 a 0 n;
    for l = n to Array.length a - 1 do
      a.(l) <- { is_sink = false; label = l }
    done;
    if Atomic.compare_and_set table old a then a else grown table ~cap label
  end

let automaton ~sinks ~cap =
  if cap < 1 then invalid_arg "Shortest_paths.automaton: cap >= 1";
  (* States are immutable and shared: one sink record, one [cap] record,
     and one record per label in between, so [init] and [relabel]
     allocate nothing and a step reads a few hundred hot records.  The
     table is an [Atomic], so a domain that sees a grown array sees its
     records.  Nothing depends on the sharing for meaning: two equal
     records for one label (a corrupted state, or a copy made outside
     the automaton) are treated as unchanged by the engine's commit,
     which compares structurally. *)
  let sink = { is_sink = true; label = 0 } in
  let top = { is_sink = false; label = cap } in
  let table = Atomic.make [| top |] in
  let labelled label =
    if label = cap then top
    else if label > 0 && label < cap then begin
      let a = Atomic.get table in
      if label < Array.length a then a.(label)
      else (grown table ~cap label).(label)
    end
    else { is_sink = false; label }
  in
  let init _g v = if List.mem v sinks then sink else top in
  (* An unchanged label returns [self] itself, so a no-op activation
     allocates nothing and the engine's commit skips the deep compare.
     A sink only ever relabels to 0; a corrupted sink-flagged state at
     a non-sink node does too. *)
  let relabel self label =
    if label = self.label then self
    else if self.is_sink then sink
    else labelled label
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

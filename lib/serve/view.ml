module Graph = Symnet_graph.Graph
module Analysis = Symnet_graph.Analysis
module Network = Symnet_engine.Network

(* Component structure of the snapshot, derived once on first use:
   every node's component label (-1 for dead nodes), each component's
   size, and the largest live degree. *)
type derived = { labels : int array; sizes : int array; max_degree : int }

type 'q t = {
  v_states : 'q array;
  v_graph : Graph.t;
  v_version : int;
  v_epoch : int;
  v_round : int;
  (* Derived analyses are memoised per snapshot: they die with it, so a
     stale answer would require a version/epoch collision — which the
     strictly monotonic counters rule out. *)
  v_landmarks : Analysis.landmarks Lazy.t;
  mutable v_adj : Analysis.adjacency option;
  mutable v_scratch : Analysis.scratch option;
  mutable v_derived : derived option;
  mutable v_bridges : int list option;
}

let take ?landmarks ~round net =
  let g = Network.graph net in
  let v_graph = Graph.copy g in
  {
    v_states = Array.copy (Network.raw_states net);
    v_graph;
    v_version = Graph.version g;
    v_epoch = Network.state_epoch net;
    v_round = round;
    v_landmarks =
      (match landmarks with
      | Some l -> l
      | None -> lazy (Analysis.landmarks v_graph));
    v_adj = None;
    v_scratch = None;
    v_derived = None;
    v_bridges = None;
  }

let fresh v net =
  v.v_version = Graph.version (Network.graph net)
  && v.v_epoch = Network.state_epoch net

let version v = v.v_version
let epoch v = v.v_epoch
let round v = v.v_round
let graph v = v.v_graph
let state v i = v.v_states.(i)

let adjacency v =
  match v.v_adj with
  | Some a -> a
  | None ->
      let a = Analysis.freeze v.v_graph in
      v.v_adj <- Some a;
      a

let derived v =
  match v.v_derived with
  | Some d -> d
  | None ->
      let labels, k = Analysis.frozen_labels (adjacency v) in
      let sizes = Array.make k 0 in
      Array.iter (fun l -> if l >= 0 then sizes.(l) <- sizes.(l) + 1) labels;
      let d = { labels; sizes; max_degree = Graph.max_degree v.v_graph } in
      v.v_derived <- Some d;
      d

let max_degree v = (derived v).max_degree
let component_sizes v = (derived v).sizes

let component_of v node ~cap =
  let { labels; sizes; _ } = derived v in
  let l = labels.(node) in
  let size = sizes.(l) in
  (* the first [min size cap] members, found by scanning ids upwards *)
  let rec first i k acc =
    if k = 0 then List.rev acc
    else if labels.(i) = l then first (i + 1) (k - 1) (i :: acc)
    else first (i + 1) k acc
  in
  (size, first 0 (min size cap) [])

let bridges v =
  match v.v_bridges with
  | Some b -> b
  | None ->
      let b = Analysis.bridges v.v_graph in
      v.v_bridges <- Some b;
      b

let landmarks v = Lazy.force v.v_landmarks

let distances v ~sources ~targets =
  let lm = landmarks v in
  let cell =
    match v.v_scratch with
    | Some _ as c -> c
    | None -> Some (Analysis.scratch v.v_graph)
  in
  (* The scratch is out of the view while the search runs, so a search
     that raises takes its dirty cells with it and the next query builds
     an idle one. *)
  v.v_scratch <- None;
  let sc = Option.get cell in
  let d =
    match Analysis.guided_distances lm v.v_graph sc ~sources ~targets with
    | Some d -> d
    | None -> Analysis.target_distances (adjacency v) sc ~sources ~targets
  in
  v.v_scratch <- cell;
  d

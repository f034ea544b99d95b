module Graph = Symnet_graph.Graph
module Analysis = Symnet_graph.Analysis
module Network = Symnet_engine.Network

type 'q t = {
  v_states : 'q array;
  v_graph : Graph.t;
  mutable v_version : int;
  mutable v_epoch : int;
  mutable v_round : int;
  (* Derived analyses are memoised per (version, epoch) stamp: a stale
     answer would require a collision, which the strictly monotonic
     counters rule out.  A refresh keeps all of them when only states
     moved; when liveness moved it drops the frozen adjacency, the
     component structure and the bridges, keeping their buffers, and
     re-marks the scratch at the flipped nodes. *)
  v_landmarks : Analysis.landmarks Lazy.t;
  mutable v_adj : Analysis.adjacency option;
  mutable v_scratch : Analysis.scratch option;
  mutable v_labels : int array;
      (* every node's component label (-1 for dead nodes); [||] until
         the first labelling, then refilled in place *)
  mutable v_queue : int array;  (* the labelling's working queue *)
  mutable v_sizes : int array option;
      (* each component's size; [None] while the labels are stale *)
  mutable v_max_degree : int;
  mutable v_dfs : Analysis.dfs option;  (* the bridge walk's arrays *)
  mutable v_bridges : int list option;
}

(* One copy routine for a new view and a refreshed one: the states
   named by the write log since the view's epoch, or all of them when
   the log cannot tell; the graph copy patched from the flip log the
   same way, and with it the scratch's sentinels. *)
let refresh ~round v net =
  let states = Network.raw_states net and saved = v.v_states in
  if not (Network.iter_writes net ~since:v.v_epoch (fun i -> saved.(i) <- states.(i)))
  then Array.blit states 0 saved 0 (Array.length states);
  let g = Network.graph net in
  let version = Graph.version g in
  if v.v_version <> version then begin
    Graph.refresh v.v_graph ~from:g;
    (match v.v_scratch with
    | Some sc ->
        if
          not
            (Graph.iter_flips g ~since:v.v_version
               ~node:(Analysis.refresh_scratch sc v.v_graph)
               ~edge:ignore)
        then v.v_scratch <- None
    | None -> ());
    v.v_adj <- None;
    v.v_sizes <- None;
    v.v_bridges <- None;
    v.v_version <- version
  end;
  v.v_epoch <- Network.state_epoch net;
  v.v_round <- round

let take ?landmarks ~round net =
  let g = Network.graph net in
  let states = Network.raw_states net in
  let n = Array.length states in
  let v_graph = Graph.copy g in
  let v =
    {
      v_states = (if n = 0 then [||] else Array.make n states.(0));
      v_graph;
      v_version = Graph.version g;
      v_epoch = -1;
      v_round = round;
      v_landmarks =
        (match landmarks with
        | Some l -> l
        | None -> lazy (Analysis.landmarks v_graph));
      v_adj = None;
      v_scratch = None;
      v_labels = [||];
      v_queue = [||];
      v_sizes = None;
      v_max_degree = 0;
      v_dfs = None;
      v_bridges = None;
    }
  in
  refresh ~round v net;
  v

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

(* The component structure, relabelled into the view's own arrays. *)
let sizes v =
  match v.v_sizes with
  | Some sizes -> sizes
  | None ->
      let n = Graph.original_size v.v_graph in
      if Array.length v.v_labels <> n then begin
        v.v_labels <- Array.make n 0;
        v.v_queue <- Array.make n 0
      end;
      let labels = v.v_labels in
      let k = Analysis.relabel (adjacency v) ~labels ~queue:v.v_queue in
      let sizes = Array.make k 0 in
      Array.iter (fun l -> if l >= 0 then sizes.(l) <- sizes.(l) + 1) labels;
      v.v_max_degree <- Graph.max_degree v.v_graph;
      v.v_sizes <- Some sizes;
      sizes

let max_degree v =
  ignore (sizes v);
  v.v_max_degree

let component_sizes v = sizes v

let component_of v node ~cap =
  let sizes = sizes v in
  let labels = v.v_labels in
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
      let bufs =
        match v.v_dfs with
        | Some b -> b
        | None ->
            let b = Analysis.dfs v.v_graph in
            v.v_dfs <- Some b;
            b
      in
      let b = Analysis.bridges_in bufs v.v_graph in
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

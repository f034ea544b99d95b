module View = Symnet_core.View
module Fssga = Symnet_core.Fssga
module Network = Symnet_engine.Network
module Scheduler = Symnet_engine.Scheduler
module Sharded_network = Symnet_engine.Sharded_network
module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng

(* Signals live in cells.  "fwd" means moving away from the general end
   of the path (increasing distance), "bwd" toward it.  B-signals carry a
   mod-3 phase and advance one cell every third round. *)
type cell = {
  label : int option;  (** distance from the general, mod 3 *)
  general : bool;
  emitted : bool;  (** a general that already sent its signals *)
  fired : bool;
  a_fwd : bool;
  a_bwd : bool;
  b_fwd : int option;
  b_bwd : int option;
}

type state = cell

let has_fired s = s.fired
let is_general s = s.general

let blank =
  {
    label = None;
    general = false;
    emitted = false;
    fired = false;
    a_fwd = false;
    a_bwd = false;
    b_fwd = None;
    b_bwd = None;
  }

let automaton ~general =
  let init _g v =
    if v = general then { blank with label = Some 0; general = true } else blank
  in
  let step ~self view =
    (* Unique left (toward general) and right (away) neighbours by label
       arithmetic; [None] while unlabelled or absent. *)
    let find_dir target =
      let found = ref None in
      ignore
        (View.exists view (fun s ->
             match s.label with
             | Some l when l = target ->
                 found := Some s;
                 true
             | _ -> false));
      !found
    in
    match self.label with
    | None -> (
        (* the labelling wavefront: adopt label and absorb the signals the
           newly visible emitter or carrier hands over *)
        let labelled_nbr = ref None in
        ignore
          (View.exists view (fun s ->
               match s.label with
               | Some _ ->
                   labelled_nbr := Some s;
                   true
               | None -> false));
        match !labelled_nbr with
        | None -> self
        | Some l -> (
            match l.label with
            | None -> self
            | Some x ->
                let from_emitter = l.general && not l.emitted in
                let a_in = from_emitter || l.a_fwd in
                let b_in =
                  if from_emitter then Some 0
                  else
                    match l.b_fwd with
                    | Some 2 -> Some 0
                    | _ -> None
                in
                {
                  self with
                  label = Some ((x + 1) mod 3);
                  a_fwd = a_in;
                  b_fwd = b_in;
                }))
    | Some x ->
        if self.fired then self
        else begin
          let left = find_dir ((x + 2) mod 3) in
          let right = find_dir ((x + 1) mod 3) in
          (* The labelling wavefront is not a wall: an unlabelled
             neighbour is a future right neighbour, so A must keep
             travelling with the front rather than reflect off it. *)
          let unlabelled_ahead = View.exists view (fun s -> s.label = None) in
          let wall_left =
            match left with Some l -> l.general | None -> true
          in
          let wall_right =
            match right with
            | Some r -> r.general
            | None -> not unlabelled_ahead
          in
          if self.general then begin
            (* generals: mark emission done; fire when the whole
               neighbourhood is generals *)
            if View.for_all view (fun s -> s.general) then
              { self with fired = true; emitted = true }
            else { self with emitted = true }
          end
          else begin
            (* --- meets: create a general --------------------------- *)
            let same_cell_meet =
              (self.a_bwd && self.b_fwd <> None)
              || (self.a_fwd && self.b_bwd <> None)
            in
            let passing_meet =
              (* crossing-in-passing: the opposing A is adjacent and B is
                 about to step (phase 2), so next round they would swap
                 without ever sharing a cell — both cells become generals
                 (the even-split double general).  With B parked (phase
                 0/1) the A lands on B's cell next round instead: the odd
                 split's single midpoint general via [same_cell_meet]. *)
              (self.b_fwd = Some 2
              && match right with Some r -> r.a_bwd | None -> false)
              || (self.b_bwd = Some 2
                 && match left with Some l -> l.a_fwd | None -> false)
              || (self.a_bwd
                 && match left with Some l -> l.b_fwd = Some 2 | None -> false)
              || (self.a_fwd
                 && match right with Some r -> r.b_bwd = Some 2 | None -> false)
            in
            if same_cell_meet || passing_meet then
              {
                self with
                general = true;
                emitted = false;
                a_fwd = false;
                a_bwd = false;
                b_fwd = None;
                b_bwd = None;
              }
            else begin
              (* --- signal kinematics ------------------------------- *)
              let absorb_from_new_general dir_sig =
                match dir_sig with
                | `Fwd -> (
                    match left with
                    | Some l when l.general && not l.emitted -> true
                    | _ -> false)
                | `Bwd -> (
                    match right with
                    | Some r when r.general && not r.emitted -> true
                    | _ -> false)
              in
              (* An A sharing a cell with the opposing B is annihilating
                 there (the same-cell meet fires next round): it must not
                 also step onward. *)
              let a_fwd' =
                (match left with
                | Some l -> l.a_fwd && (not l.general) && l.b_bwd = None
                | None -> false)
                || (self.a_bwd && wall_left) (* reflection *)
                || absorb_from_new_general `Fwd
              in
              let a_bwd' =
                (match right with
                | Some r -> r.a_bwd && (not r.general) && r.b_fwd = None
                | None -> false)
                || (self.a_fwd && wall_right) (* reflection *)
                || absorb_from_new_general `Bwd
              in
              let b_fwd' =
                match self.b_fwd with
                | Some p when p < 2 -> Some (p + 1)
                | Some _ (* moving out *) | None -> (
                    if absorb_from_new_general `Fwd then Some 0
                    else
                      match left with
                      | Some l when l.b_fwd = Some 2 && not l.general -> Some 0
                      | _ -> None)
              in
              let b_bwd' =
                match self.b_bwd with
                | Some p when p < 2 -> Some (p + 1)
                | Some _ | None -> (
                    if absorb_from_new_general `Bwd then Some 0
                    else
                      match right with
                      | Some r when r.b_bwd = Some 2 && not r.general -> Some 0
                      | _ -> None)
              in
              {
                self with
                a_fwd = a_fwd';
                a_bwd = a_bwd';
                b_fwd = b_fwd';
                b_bwd = b_bwd';
              }
            end
          end
        end
  in
  Fssga.deterministic ~name:"firing-squad" ~init ~step

type outcome = {
  fire_round : int option;
  simultaneous : bool;
  rounds_run : int;
}

let run ~rng g ~general ?(recorder = Symnet_obs.Recorder.null)
    ?(max_rounds = 100_000) () =
  let net = Network.init ~rng g (automaton ~general) in
  Network.set_recorder net recorder;
  Symnet_obs.Recorder.run_start recorder ~nodes:(Graph.node_count g)
    ~edges:(Graph.edge_count g) ~scheduler:"synchronous";
  let n = Graph.node_count g in
  (* The automaton is deterministic, so the runtime's change-driven
     rounds are sound and most of the quiet path is skipped each
     round. *)
  let sharded = Sharded_network.create ~shards:1 net in
  let rounds = ref 0 in
  let fire_round = ref None in
  let simultaneous = ref true in
  while !fire_round = None && !rounds < max_rounds do
    Symnet_obs.Recorder.round_start recorder ~round:(!rounds + 1);
    let changed =
      Scheduler.round ~sharded Scheduler.Synchronous net ~round:(!rounds + 1)
    in
    incr rounds;
    Symnet_obs.Recorder.round_end recorder ~round:!rounds ~changed;
    let fired = Network.count_if net has_fired in
    if fired > 0 then
      if fired = n then fire_round := Some !rounds else simultaneous := false
  done;
  Symnet_obs.Recorder.run_end recorder ~round:!rounds
    ~reason:(if !fire_round <> None then "stopped" else "budget");
  { fire_round = !fire_round; simultaneous = !simultaneous; rounds_run = !rounds }

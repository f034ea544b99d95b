module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng

type condition = {
  in_state : int;
  at_label : int;
  present : int list;
  absent : int list;
}

type effect = { relabel : int; move_to : int option; next_state : int }
type rule = { cond : condition; eff : effect }

type program = {
  n_states : int;
  n_labels : int;
  start_state : int;
  rules : rule list;
}

let check_range name x bound =
  if x < 0 || x >= bound then
    invalid_arg (Printf.sprintf "Iwa: %s out of range: %d" name x)

let check_program p =
  if p.n_states < 1 || p.n_labels < 1 then
    invalid_arg "Iwa.check_program: empty alphabet";
  check_range "start_state" p.start_state p.n_states;
  List.iter
    (fun r ->
      check_range "rule state" r.cond.in_state p.n_states;
      check_range "rule label" r.cond.at_label p.n_labels;
      List.iter (fun l -> check_range "present label" l p.n_labels) r.cond.present;
      List.iter (fun l -> check_range "absent label" l p.n_labels) r.cond.absent;
      check_range "relabel" r.eff.relabel p.n_labels;
      (match r.eff.move_to with
      | Some l -> check_range "move label" l p.n_labels
      | None -> ());
      check_range "next state" r.eff.next_state p.n_states)
    p.rules

type run = {
  program : program;
  graph : Graph.t;
  node_labels : int array;
  rng : Prng.t;
  choose : Prng.t -> int array -> int;
  mutable pos : int;
  mutable state : int;
  mutable step_count : int;
  mutable is_halted : bool;
}

let default_choose rng candidates = candidates.(Prng.int rng (Array.length candidates))

let start ?(choose = default_choose) ~rng program graph ~at ~init_labels =
  check_program program;
  if not (Graph.is_live_node graph at) then invalid_arg "Iwa.start: dead node";
  let node_labels =
    Array.init (Graph.original_size graph) (fun v ->
        let l = init_labels v in
        check_range "init label" l program.n_labels;
        l)
  in
  {
    program;
    graph;
    node_labels;
    rng;
    choose;
    pos = at;
    state = program.start_state;
    step_count = 0;
    is_halted = false;
  }

let neighbourhood_labels r =
  List.map (fun w -> r.node_labels.(w)) (Graph.neighbours r.graph r.pos)

let rule_matches r rule =
  rule.cond.in_state = r.state
  && rule.cond.at_label = r.node_labels.(r.pos)
  &&
  let nbr = neighbourhood_labels r in
  List.for_all (fun l -> List.mem l nbr) rule.cond.present
  && List.for_all (fun l -> not (List.mem l nbr)) rule.cond.absent

let step r =
  if r.is_halted then false
  else begin
    match List.find_opt (rule_matches r) r.program.rules with
    | None ->
        r.is_halted <- true;
        false
    | Some rule -> (
        r.node_labels.(r.pos) <- rule.eff.relabel;
        r.state <- rule.eff.next_state;
        match rule.eff.move_to with
        | None ->
            r.step_count <- r.step_count + 1;
            true
        | Some target ->
            let candidates =
              Graph.fold_neighbours r.graph r.pos ~init:[] ~f:(fun acc w ->
                  if r.node_labels.(w) = target then w :: acc else acc)
            in
            (match candidates with
            | [] ->
                (* relabel already happened; a missing move target halts *)
                r.is_halted <- true;
                false
            | _ ->
                r.pos <- r.choose r.rng (Array.of_list candidates);
                r.step_count <- r.step_count + 1;
                true))
  end

let steps r = r.step_count
let agent_position r = r.pos
let labels r = Array.copy r.node_labels
let halted r = r.is_halted

let run_until_halt r ~max_steps =
  let i = ref 0 in
  while (not r.is_halted) && !i < max_steps do
    if step r then incr i
  done;
  !i

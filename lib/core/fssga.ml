module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng

type 'q transition = self:'q -> rng:Prng.t -> 'q View.t -> 'q

type 'q t = {
  name : string;
  init : Graph.t -> int -> 'q;
  step : 'q transition;
  deterministic : bool;
}

let deterministic ~name ~init ~step =
  {
    name;
    init;
    step = (fun ~self ~rng:_ view -> step ~self view);
    deterministic = true;
  }

let is_deterministic t = t.deterministic

(* The View interface cannot leak the raw states, so to run a formal
   program we reconstruct a multiplicity vector using only mod/thresh
   queries... which is impossible for unbounded counts with finite
   queries.  Instead, the engine-facing constructor below legitimately
   evaluates the mod-thresh program: a mod-thresh program only *consults*
   the multiplicities through its atoms, so evaluating each atom via the
   View keeps the SM discipline intact. *)
let eval_prop_via_view (view : int View.t) (p : Sm.prop) : bool =
  let rec eval = function
    | Sm.True -> true
    | Sm.False -> false
    | Sm.Mod (q, r, m) -> View.count_mod view q ~modulus:m = r
    | Sm.Thresh (q, t) -> not (View.at_least view q t)
    | Sm.Not p -> not (eval p)
    | Sm.And (p1, p2) -> eval p1 && eval p2
    | Sm.Or (p1, p2) -> eval p1 || eval p2
  in
  eval p

let run_mod_thresh_on_view (mt : Sm.mod_thresh) view =
  let rec go = function
    | [] -> mt.Sm.mt_default
    | (p, r) :: rest -> if eval_prop_via_view view p then r else go rest
  in
  go mt.Sm.mt_clauses

let of_probabilistic_family ~name ~q_size ~r ~init ~family =
  if r < 1 then invalid_arg "Fssga.of_probabilistic_family: r >= 1";
  let programs =
    Array.init q_size (fun q -> Array.init r (fun i -> family q i))
  in
  Array.iter
    (Array.iter (fun (mt : Sm.mod_thresh) ->
         Sm.check_mod_thresh mt;
         if mt.mt_q_size <> q_size || mt.mt_r_size <> q_size then
           invalid_arg "Fssga.of_probabilistic_family: program alphabet mismatch"))
    programs;
  let step ~self ~rng view =
    if View.is_empty view then self
    else begin
      let i = Prng.int rng r in
      run_mod_thresh_on_view programs.(self).(i) view
    end
  in
  (* Even [r = 1] counts as probabilistic: each step consumes an rng
     draw, so skipping quiescent nodes would shift the draw sequence. *)
  { name; init; step; deterministic = false }

let of_mod_thresh_family ~name ~q_size ~init ~family =
  let programs = Array.init q_size family in
  Array.iter
    (fun (mt : Sm.mod_thresh) ->
      Sm.check_mod_thresh mt;
      if mt.mt_q_size <> q_size || mt.mt_r_size <> q_size then
        invalid_arg "Fssga.of_mod_thresh_family: program alphabet mismatch")
    programs;
  let step ~self ~rng:_ view =
    if View.is_empty view then self
    else run_mod_thresh_on_view programs.(self) view
  in
  { name; init; step; deterministic = true }

module Prng = Symnet_prng.Prng
module View = Symnet_core.View
module Fssga = Symnet_core.Fssga

type state = Fresh of int (* k *) | Bits of int * int (* k, mask *)

let recommended_k n = (if n <= 1 then 1 else int_of_float (ceil (log (float_of_int n) /. log 2.))) + 8

let bit_is_set mask i = mask land (1 lsl (i - 1)) <> 0

let mask_of = function Fresh _ -> 0 | Bits (_, m) -> m
let absorb acc q = acc lor mask_of q

let automaton ~k =
  if k < 1 || k > 60 then invalid_arg "Census.automaton: k in 1..60 required";
  let init _g _v = Fresh k in
  let step ~self ~rng view =
    match self with
    | Fresh k ->
        (* Probabilistic initialization: one geometric draw (§1). *)
        let mask =
          match Prng.geometric_bit rng ~max:k with
          | Some i -> 1 lsl (i - 1)
          | None -> 0
        in
        Bits (k, mask)
    | Bits (k, mask) ->
        (* OR in the neighbours' vectors in one pass: lor is a
           semilattice operation on bit vectors, so the OR-join is a
           legal SM observation (per bit it is exactly the thresh atom
           "some initialized neighbour has bit j" — §5's infimum
           functions, here a supremum in the subset lattice), and with
           identity 0 it is also a commutative-monoid fold.  A state is
           allocated only when the mask grows. *)
        let mask' = mask lor View.fold_monoid absorb 0 view in
        if mask' = mask then self else Bits (k, mask')
  in
  { Fssga.name = "census"; init; step; deterministic = false }

module Sm_monoid = Symnet_core.Sm_monoid
module Sm_digest = Symnet_core.Sm_digest

(* The OR-join factored through a summary monoid: one cell holding the
   OR of the encoded neighbour masks.  The encoding is [mask_of], as in
   [automaton]: [Fresh] encodes to 0 and contributes nothing, so the
   digest backends transition bit-for-bit like the classic automaton,
   including the single geometric draw, which [decide] performs from
   the same per-node stream. *)
let digest ~k =
  if k < 1 || k > 60 then invalid_arg "Census.digest: k in 1..60 required";
  let monoid =
    Sm_monoid.custom ~width:1
      ~identity:(fun st off -> st.(off) <- 0)
      ~summarize:(fun st off sym -> st.(off) <- sym)
      ~combine:(fun a aoff b boff dst doff -> dst.(doff) <- a.(aoff) lor b.(boff))
      ~absorb:(fun st off sym -> st.(off) <- st.(off) lor sym)
      ~finish:(fun st off -> st.(off))
      ()
  in
  let decide ~self ~rng summary =
    match self with
    | Fresh k -> (
        match Prng.geometric_bit rng ~max:k with
        | Some i -> Bits (k, 1 lsl (i - 1))
        | None -> Bits (k, 0))
    | Bits (k, mask) ->
        let mask' = mask lor Sm_monoid.get summary 0 in
        if mask' = mask then self else Bits (k, mask')
  in
  Sm_digest.make ~name:"census" ~init:(fun _g _v -> Fresh k) ~monoid ~encode:mask_of
    ~decide ~deterministic:false

let of_bits ~k mask =
  if k < 1 || k > 60 then invalid_arg "Census.of_bits: k in 1..60";
  Bits (k, mask land ((1 lsl k) - 1))

let fresh ~k = Fresh k

let bits = function Fresh _ -> None | Bits (_, m) -> Some m

let estimate_of_bits ~k mask =
  let rec first_zero i = if i > k || not (bit_is_set mask i) then i else first_zero (i + 1) in
  1.3 *. (2. ** float_of_int (first_zero 1))

let estimate = function
  | Fresh _ -> None
  | Bits (k, m) -> Some (estimate_of_bits ~k m)

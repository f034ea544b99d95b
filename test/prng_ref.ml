(* Frozen reference copy of the splitmix64 generator as it stood before
   its state was held unboxed: a record with a mutable [int64] counter
   and the bit-by-bit transition count in [mix_gamma].  Do not edit —
   test_prng.ml requires every public [Prng] function to reproduce this
   copy's outputs bit for bit, which is what keeps every seeded trace
   of the project stable across representation changes. *)

(* Splitmix64 (Steele, Lea, Flood 2014).  The state is a single 64-bit
   counter advanced by a fixed odd gamma; output applies a bijective
   finalizer.  Splitting derives a child gamma from the parent stream,
   which keeps streams independent for all practical purposes. *)

type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* mix_gamma forces the derived gamma to be odd and to have enough bit
   transitions, per the reference implementation. *)
let mix_gamma z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  let z = Int64.logor z 1L in
  let popcount x =
    let c = ref 0 in
    for i = 0 to 63 do
      if Int64.(logand (shift_right_logical x i) 1L) = 1L then incr c
    done;
    !c
  in
  let transitions = popcount (Int64.logxor z (Int64.shift_right_logical z 1)) in
  if transitions < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let next_seed g =
  g.state <- Int64.add g.state g.gamma;
  g.state

let create ~seed =
  let g = { state = Int64.of_int seed; gamma = golden_gamma } in
  (* Scramble the user seed once so that nearby seeds diverge. *)
  g.state <- mix64 (next_seed g);
  g

let bits64 g = mix64 (next_seed g)

(* Native-int projection of the same stream step: the low 63 bits of what
   [bits64] would return, without surfacing the boxed [Int64].  Returning
   [int] lets hot loops (coin flips, masked draws) stay in immediate
   arithmetic after the mandatory 64-bit mixing; [Int64.to_int] truncates,
   so the value ranges over all of [min_int, max_int]. *)
let bits g = Int64.to_int (mix64 (next_seed g))

let split g =
  let state = mix64 (next_seed g) in
  let gamma = mix_gamma (next_seed g) in
  { state; gamma }

(* Keyed split: the child stream is a pure function of the parent's
   current state and [key], and the parent is NOT advanced.  Key [k] uses
   the virtual draws [state + (2k+1)*gamma] and [state + (2k+2)*gamma] —
   the counter values [2k+1] sequential splits would consume — so
   distinct keys give independent streams exactly as plain [split] does,
   and [split_key ~key:0] coincides with the stream the next [split]
   would have returned. *)
let split_key g ~key =
  if key < 0 then invalid_arg "Prng.split_key: negative key";
  let k = Int64.of_int key in
  let s1 = Int64.add g.state (Int64.mul (Int64.add (Int64.mul 2L k) 1L) g.gamma) in
  let s2 = Int64.add g.state (Int64.mul (Int64.add (Int64.mul 2L k) 2L) g.gamma) in
  { state = mix64 s1; gamma = mix_gamma s2 }

let copy g = { state = g.state; gamma = g.gamma }

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 g) 1 in
    let v = Int64.rem bits n64 in
    if Int64.(sub (add bits (sub n64 1L)) v) < 0L then draw ()
    else Int64.to_int v
  in
  draw ()

(* Same draw as [Int64.logand (bits64 g) 1L = 1L] — [bits] keeps the low
   bit — but the comparison happens on an immediate int, which is the
   whole fast path for the census/geometric hot loops. *)
let bool g = bits g land 1 = 1

let float g =
  (* 53 uniform bits into the mantissa. *)
  let bits = Int64.(to_float (shift_right_logical (bits64 g) 11)) in
  bits *. 0x1.0p-53

let bernoulli g ~p = float g < p

let geometric_bit g ~max =
  (* Count leading coin flips: P(i) = 2^-i for i in 1..max, None with the
     remaining 2^-max mass — exactly the Flajolet-Martin initialization. *)
  let rec go i =
    if i > max then None
    else if bool g then Some i
    else go (i + 1)
  in
  go 1

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

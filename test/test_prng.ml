module Prng = Symnet_prng.Prng

let test_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_divergence () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check int) "nearby seeds diverge" 0 !same

let test_copy () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b)

let test_bits_matches_bits64 () =
  (* [bits] is the low 63 bits of the same stream step as [bits64]; the
     two must stay interleavable without drift. *)
  let a = Prng.create ~seed:31 and b = Prng.create ~seed:31 in
  for i = 1 to 200 do
    let v64 = Prng.bits64 a in
    let v = Prng.bits b in
    Alcotest.(check int)
      (Printf.sprintf "draw %d: low 63 bits" i)
      (Int64.to_int v64) v
  done;
  (* and the streams are still aligned after mixing the two entry points *)
  ignore (Prng.bits a);
  ignore (Prng.bits64 b);
  Alcotest.(check int64) "still aligned" (Prng.bits64 a) (Prng.bits64 b)

let test_bool_matches_low_bit () =
  (* [bool] must keep matching the historic Int64 low-bit draw. *)
  let a = Prng.create ~seed:37 and b = Prng.create ~seed:37 in
  for i = 1 to 200 do
    Alcotest.(check bool)
      (Printf.sprintf "draw %d" i)
      (Int64.logand (Prng.bits64 a) 1L = 1L)
      (Prng.bool b)
  done

let test_split_independent () =
  let a = Prng.create ~seed:7 in
  let child = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 child then incr same
  done;
  Alcotest.(check int) "split streams differ" 0 !same

let test_split_key_pure () =
  (* split_key must not advance the parent and must replay per key *)
  let g = Prng.create ~seed:41 in
  ignore (Prng.bits64 g);
  let probe = Prng.copy g in
  let c1 = Prng.split_key g ~key:5 in
  let c2 = Prng.split_key g ~key:5 in
  Alcotest.(check int64) "parent unadvanced" (Prng.bits64 probe) (Prng.bits64 g);
  Alcotest.(check int64) "same key replays" (Prng.bits64 c1) (Prng.bits64 c2)

let test_split_key_distinct () =
  let g = Prng.create ~seed:43 in
  let streams = List.init 16 (fun k -> Prng.split_key g ~key:k) in
  let firsts = List.map Prng.bits64 streams in
  Alcotest.(check int)
    "16 keys, 16 distinct first draws" 16
    (List.length (List.sort_uniq compare firsts))

let test_split_key_zero_is_split () =
  (* key 0 coincides with the stream the next [split] would return *)
  let a = Prng.create ~seed:47 and b = Prng.create ~seed:47 in
  let keyed = Prng.split_key a ~key:0 in
  let child = Prng.split b in
  for i = 1 to 16 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Prng.bits64 child) (Prng.bits64 keyed)
  done

let test_int_bounds () =
  let g = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_int_uniformity () =
  let g = Prng.create ~seed:11 in
  let counts = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Prng.int g 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 10 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - expected) < expected / 10))
    counts

let test_float_range () =
  let g = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_bool_balance () =
  let g = Prng.create ~seed:13 in
  let heads = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    if Prng.bool g then incr heads
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fair coin (%d)" !heads)
    true
    (abs (!heads - (trials / 2)) < trials / 50)

let test_bernoulli () =
  let g = Prng.create ~seed:17 in
  let hits = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    if Prng.bernoulli g ~p:0.25 then incr hits
  done;
  let observed = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.25 (got %.3f)" observed)
    true
    (abs_float (observed -. 0.25) < 0.01)

let test_geometric_bit () =
  let g = Prng.create ~seed:19 in
  let counts = Array.make 5 0 in
  let nones = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    match Prng.geometric_bit g ~max:4 with
    | Some i -> counts.(i) <- counts.(i) + 1
    | None -> incr nones
  done;
  (* P(i) = 2^-i for i in 1..4, None with 2^-4 *)
  List.iter
    (fun i ->
      let expected = float_of_int trials *. (2. ** float_of_int (-i)) in
      let got = float_of_int counts.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "P(%d) ~ 2^-%d (got %.0f want %.0f)" i i got expected)
        true
        (abs_float (got -. expected) < (expected /. 10.) +. 50.))
    [ 1; 2; 3; 4 ];
  let expected_none = float_of_int trials /. 16. in
  Alcotest.(check bool)
    "P(None) ~ 2^-4" true
    (abs_float (float_of_int !nones -. expected_none) < expected_none /. 5.)

let test_permutation () =
  let g = Prng.create ~seed:23 in
  let p = Prng.permutation g 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 100 Fun.id) sorted

let test_shuffle_uniform_small () =
  (* All 6 permutations of 3 elements should appear roughly equally. *)
  let g = Prng.create ~seed:29 in
  let tbl = Hashtbl.create 6 in
  let trials = 60_000 in
  for _ = 1 to trials do
    let a = [| 0; 1; 2 |] in
    Prng.shuffle g a;
    let key = Array.to_list a in
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  done;
  Alcotest.(check int) "all 6 orders occur" 6 (Hashtbl.length tbl);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "near uniform" true (abs (c - 10_000) < 1_000))
    tbl

(* --- the reference streams ------------------------------------------ *)

(* Every public function must reproduce the frozen copy in prng_ref.ml
   bit for bit: a program of random operations runs on a [Prng] and a
   [Prng_ref] generator from the same seed in lockstep, following
   split and keyed-split chains into children, and every output must
   agree.  [Split_key_into] re-keys a caller-owned cell, in place
   (into = the parent) for even keys and into a separate cell for odd
   ones, where the parent must stay unadvanced. *)
type op =
  | Bits64
  | Bits
  | Bool
  | Float
  | Int of int
  | Bernoulli of float
  | Geometric of int
  | Split
  | Split_key of int
  | Split_key_into of int
  | Copy
  | Shuffle of int
  | Permutation of int
  | Choose of int

let string_of_op = function
  | Bits64 -> "bits64"
  | Bits -> "bits"
  | Bool -> "bool"
  | Float -> "float"
  | Int n -> Printf.sprintf "int %d" n
  | Bernoulli p -> Printf.sprintf "bernoulli %h" p
  | Geometric m -> Printf.sprintf "geometric %d" m
  | Split -> "split"
  | Split_key k -> Printf.sprintf "split_key %d" k
  | Split_key_into k -> Printf.sprintf "split_key_into %d" k
  | Copy -> "copy"
  | Shuffle n -> Printf.sprintf "shuffle %d" n
  | Permutation n -> Printf.sprintf "permutation %d" n
  | Choose n -> Printf.sprintf "choose %d" n

let gen_op =
  let open QCheck.Gen in
  (* bounds from tiny to max_int; 2^61 + 1 rejects about a quarter of
     its draws, so the rejection branch of [int] is exercised *)
  let bound =
    oneof
      [
        int_range 1 100;
        int_range 1 (1 lsl 30);
        int_range (1 lsl 60) max_int;
        return ((1 lsl 61) + 1);
        return max_int;
      ]
  in
  let key = oneof [ int_range 0 64; int_range 0 max_int ] in
  frequency
    [
      (3, return Bits64);
      (3, return Bits);
      (2, return Bool);
      (2, return Float);
      (4, map (fun n -> Int n) bound);
      (2, map (fun p -> Bernoulli p) (float_range 0. 1.));
      (1, map (fun m -> Geometric m) (int_range 0 12));
      (2, return Split);
      (3, map (fun k -> Split_key k) key);
      (3, map (fun k -> Split_key_into k) key);
      (1, return Copy);
      (1, map (fun n -> Shuffle n) (int_range 0 20));
      (1, map (fun n -> Permutation n) (int_range 0 20));
      (1, map (fun n -> Choose n) (int_range 1 20));
    ]

let arb_program =
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d: %s" seed
        (String.concat "; " (List.map string_of_op ops)))
    QCheck.Gen.(
      pair (int_range min_int max_int) (list_size (int_range 1 60) gen_op))

(* Runs [ops] on both generators; [false] at the first disagreement. *)
let agree_with_reference (seed, ops) =
  let bits_of f = Int64.bits_of_float f in
  let rec go g r = function
    | [] -> Prng.bits64 g = Prng_ref.bits64 r
    | op :: rest -> (
        match op with
        | Bits64 -> Prng.bits64 g = Prng_ref.bits64 r && go g r rest
        | Bits -> Prng.bits g = Prng_ref.bits r && go g r rest
        | Bool -> Prng.bool g = Prng_ref.bool r && go g r rest
        | Float ->
            bits_of (Prng.float g) = bits_of (Prng_ref.float r) && go g r rest
        | Int n -> Prng.int g n = Prng_ref.int r n && go g r rest
        | Bernoulli p ->
            Prng.bernoulli g ~p = Prng_ref.bernoulli r ~p && go g r rest
        | Geometric max ->
            Prng.geometric_bit g ~max = Prng_ref.geometric_bit r ~max
            && go g r rest
        | Split ->
            let gc = Prng.split g and rc = Prng_ref.split r in
            Prng.bits64 g = Prng_ref.bits64 r && go gc rc rest
        | Split_key key ->
            let gc = Prng.split_key g ~key and rc = Prng_ref.split_key r ~key in
            Prng.bits64 g = Prng_ref.bits64 r && go gc rc rest
        | Split_key_into key ->
            let rc = Prng_ref.split_key r ~key in
            if key land 1 = 0 then begin
              Prng.split_key_into g ~key ~into:g;
              go g rc rest
            end
            else begin
              let into = Prng.create ~seed:key in
              Prng.split_key_into g ~key ~into;
              Prng.bits64 g = Prng_ref.bits64 r && go into rc rest
            end
        | Copy ->
            let gc = Prng.copy g and rc = Prng_ref.copy r in
            Prng.bits64 g = Prng_ref.bits64 r && go gc rc rest
        | Shuffle n ->
            let a = Array.init n (fun i -> i) and b = Array.init n (fun i -> i) in
            Prng.shuffle g a;
            Prng_ref.shuffle r b;
            a = b && go g r rest
        | Permutation n ->
            Prng.permutation g n = Prng_ref.permutation r n && go g r rest
        | Choose n ->
            let a = Array.init n (fun i -> i * i) in
            Prng.choose g a = Prng_ref.choose r a && go g r rest)
  in
  go (Prng.create ~seed) (Prng_ref.create ~seed) ops

let prop_reference =
  QCheck.Test.make ~count:500 ~name:"streams equal the frozen reference"
    arb_program agree_with_reference

(* Golden outputs of the reference, so that changing both copies the
   same way cannot slip through. *)
let test_golden () =
  let g = Prng.create ~seed:42 in
  Alcotest.(check int64) "seed 42, draw 1" 0x57E1FABA65107204L (Prng.bits64 g);
  Alcotest.(check int64) "seed 42, draw 2" 0xF4ABD143FEB24055L (Prng.bits64 g);
  Alcotest.(check int64) "split_key 7" 0x474667126A57DF4FL
    (Prng.bits64 (Prng.split_key g ~key:7));
  let d = Prng.split g in
  Alcotest.(check int64) "split" 0x3C5A4628A3C42860L (Prng.bits64 d);
  Alcotest.(check int) "int 1000" 409 (Prng.int d 1000);
  Alcotest.(check int) "int max_int" 4391126854828779954 (Prng.int d max_int);
  Alcotest.(check int64) "float" (Int64.bits_of_float 0x1.f78d8bf85bab8p-2)
    (Int64.bits_of_float (Prng.float d));
  (* a link-layer style chain, keyed (src + 1, dst + 1, round) *)
  let l = Prng.create ~seed:3 in
  let ch = Prng.create ~seed:0 in
  Prng.split_key_into l ~key:2 ~into:ch;
  Prng.split_key_into ch ~key:4 ~into:ch;
  Prng.split_key_into ch ~key:17 ~into:ch;
  Alcotest.(check int64) "keyed chain" 0x6C65BD797C659BD1L (Prng.bits64 ch);
  Alcotest.(check bool) "keyed chain, bernoulli" true (Prng.bernoulli ch ~p:0.5)

(* The constant-time population count equals the bit-by-bit loop it
   replaced in [mix_gamma]. *)
let popcount_loop x =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.(logand (shift_right_logical x i) 1L) = 1L then incr c
  done;
  !c

let test_popcount_corners () =
  List.iter
    (fun (name, x) ->
      Alcotest.(check int) name (popcount_loop x) (Prng.popcount x))
    [
      ("zero", 0L);
      ("all ones", -1L);
      ("alternating 0xAA..", 0xAAAAAAAAAAAAAAAAL);
      ("alternating 0x55..", 0x5555555555555555L);
      ("top bit", Int64.min_int);
      ("low bit", 1L);
      ("max_int64", Int64.max_int);
    ]

let prop_popcount =
  QCheck.Test.make ~count:2000 ~name:"popcount equals the bit loop"
    QCheck.(
      map (fun x -> Int64.(logxor (of_int x) (shift_left (of_int x) 17))) int)
    (fun x -> Prng.popcount x = popcount_loop x)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed divergence" `Quick test_seed_divergence;
    Alcotest.test_case "copy replays" `Quick test_copy;
    Alcotest.test_case "bits matches bits64" `Quick test_bits_matches_bits64;
    Alcotest.test_case "bool matches low bit" `Quick test_bool_matches_low_bit;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "split_key purity" `Quick test_split_key_pure;
    Alcotest.test_case "split_key distinct keys" `Quick test_split_key_distinct;
    Alcotest.test_case "split_key 0 is next split" `Quick
      test_split_key_zero_is_split;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bool balance" `Slow test_bool_balance;
    Alcotest.test_case "bernoulli" `Slow test_bernoulli;
    Alcotest.test_case "geometric bit distribution" `Slow test_geometric_bit;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Alcotest.test_case "shuffle uniformity" `Slow test_shuffle_uniform_small;
    Alcotest.test_case "golden outputs" `Quick test_golden;
    Alcotest.test_case "popcount corners" `Quick test_popcount_corners;
    QCheck_alcotest.to_alcotest prop_reference;
    QCheck_alcotest.to_alcotest prop_popcount;
  ]

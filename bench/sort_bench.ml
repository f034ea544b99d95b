(* The dirty frontier's sort: µs per sort of [len] random distinct ids
   below [n] for the two-level bitmap ([Id_sort], what
   [Network.take_frontier] uses) and for the 3-pass LSD radix sort it
   replaced, kept here as the reference it is measured against.  Each
   timed call blits the unsorted ids into the buffer and sorts them; the
   blit alone is timed too and subtracted.  The median of 7 batches of
   about 20 ms each is reported.

     dune exec --profile release bench/main.exe -- sort *)

module Prng = Symnet_prng.Prng
module Id_sort = Symnet_engine.Id_sort

(* The radix sort as it was: 8-bit digits ping-ponging through [buf],
   [count] the digit histogram, ceil(log2 n / 8) passes. *)
let radix_sort ~n ~buf ~count (a : int array) len =
  let top = n - 1 in
  let src = ref a and dst = ref buf and shift = ref 0 in
  while top lsr !shift > 0 do
    let s = !src and d = !dst in
    Array.fill count 0 257 0;
    for i = 0 to len - 1 do
      let b = (s.(i) lsr !shift) land 255 in
      count.(b + 1) <- count.(b + 1) + 1
    done;
    for b = 1 to 256 do
      count.(b) <- count.(b) + count.(b - 1)
    done;
    for i = 0 to len - 1 do
      let v = s.(i) in
      let b = (v lsr !shift) land 255 in
      d.(count.(b)) <- v;
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := !shift + 8
  done;
  if !src != a then Array.blit !src 0 a 0 len

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* µs per call of [f] over one batch of about 20 ms. *)
let batch_us f =
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 and dt = ref 0. in
  while !dt < 0.02 do
    for _ = 1 to 16 do
      f ()
    done;
    reps := !reps + 16;
    dt := Unix.gettimeofday () -. t0
  done;
  !dt *. 1e6 /. float_of_int !reps

let point ~n ~len =
  let r = Prng.create ~seed:((n * 31) + len) in
  let ids = Array.sub (Prng.permutation r n) 0 len in
  let a = Array.make len 0 in
  let buf = Array.make len 0 and count = Array.make 257 0 in
  let sorter = Id_sort.create ~n in
  let blit () = Array.blit ids 0 a 0 len in
  let bitmap () =
    blit ();
    Id_sort.sort sorter a len
  in
  let radix () =
    blit ();
    radix_sort ~n ~buf ~count a len
  in
  (* the three batches alternate, so drift in the host's speed lands
     on all of them alike *)
  let runs =
    List.init 7 (fun _ ->
        let b = batch_us bitmap in
        let r = batch_us radix in
        let base = batch_us blit in
        (b -. base, r -. base))
  in
  (median (List.map fst runs), median (List.map snd runs))

let grid =
  [
    (100_489, [ 10; 500; 950; 5_000; 6_000 ]);
    (2_000_000, [ 10; 500; 950; 5_000; 6_000 ]);
  ]

let run () =
  Printf.printf "frontier sort, us per sort (median of 7 batches)\n";
  Printf.printf "  %9s %6s %10s %10s\n" "n" "len" "bitmap" "radix";
  let slower = ref 0 in
  List.iter
    (fun (n, lens) ->
      List.iter
        (fun len ->
          let bitmap, radix = point ~n ~len in
          if bitmap > radix then incr slower;
          Printf.printf "  %9d %6d %10.2f %10.2f%s\n" n len bitmap radix
            (if bitmap > radix then "  (bitmap slower)" else ""))
        lens)
    grid;
  Printf.printf "  bitmap slower at %d of %d points\n" !slower
    (List.fold_left (fun acc (_, l) -> acc + List.length l) 0 grid)

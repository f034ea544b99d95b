(* A two-level bitmap over the ids [0, n): bit [v land 31] of
   [words.(v lsr 5)] marks id [v], and bit [w land 31] of
   [summary.(w lsr 5)] marks a non-zero word [w].  Sorting sets one bit
   per id in each level, then walks the summary's set bits in ascending
   order to the non-zero words and their set bits, clearing both levels
   as it reads them, so the scratch is all zero again between calls.
   32 ids per word keeps the bit index a shift and a mask on a 63-bit
   int.  The read costs O(len) plus one summary word per 1,024 ids of
   range; without the summary level it would read every word, n/32 of
   them, which at n = 2M costs more than a 3-pass radix sort of a few
   hundred ids. *)

type t = { words : int array; summary : int array }

let create ~n =
  let nw = (n + 31) lsr 5 in
  {
    words = Array.make (max 1 nw) 0;
    summary = Array.make (max 1 ((nw + 31) lsr 5)) 0;
  }

(* Index of the single set bit of [p] (a power of two below 2^32):
   multiplying by a de Bruijn sequence puts a distinct 5-bit pattern in
   bits 27..31, which this table inverts. *)
let debruijn = 0x077CB531

let bit_index =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.(((1 lsl i) * debruijn) lsr 27 land 31) <- i
  done;
  tbl

let sort t (a : int array) len =
  let words = t.words and summary = t.summary in
  for i = 0 to len - 1 do
    let v = a.(i) in
    let w = v lsr 5 in
    words.(w) <- words.(w) lor (1 lsl (v land 31));
    let s = w lsr 5 in
    summary.(s) <- summary.(s) lor (1 lsl (w land 31))
  done;
  (* the ids are distinct, so the read stops after [len] of them *)
  let k = ref 0 and s = ref 0 in
  while !k < len do
    (* an id is still unread, so a non-zero summary word lies ahead;
       most are empty, and this loop only loads and compares *)
    while summary.(!s) = 0 do
      incr s
    done;
    let sw = ref summary.(!s) in
    summary.(!s) <- 0;
    while !sw <> 0 do
      let low = !sw land - !sw in
      sw := !sw lxor low;
      let w = (!s lsl 5) lor bit_index.((low * debruijn) lsr 27 land 31) in
      let bw = ref words.(w) in
      words.(w) <- 0;
      while !bw <> 0 do
        let lb = !bw land - !bw in
        bw := !bw lxor lb;
        a.(!k) <- (w lsl 5) lor bit_index.((lb * debruijn) lsr 27 land 31);
        incr k
      done
    done;
    incr s
  done

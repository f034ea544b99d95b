(* The representation is an indexed cursor over a state buffer: [buf.(0
   .. len-1)] are the neighbour states, [buf.(len ..)] is slack.  The
   interface guarantees that consumers can only extract mod/thresh (and
   semilattice-join) information from it.

   The buffer is deliberately reusable: the engine keeps one view per
   network, refills it in place before every activation ([clear] +
   [push]), and hands the same value to the transition function — so a
   warm activation performs no heap allocation for the view at all.
   Consequently a view is only valid until the next activation; transition
   functions must not retain it (none can: the type is abstract and every
   observer is strict). *)

type 'q t = { mutable buf : 'q array; mutable len : int }

let of_list l =
  let buf = Array.of_list l in
  { buf; len = Array.length buf }

let scratch () = { buf = [||]; len = 0 }

let clear v = v.len <- 0

let push v q =
  let cap = Array.length v.buf in
  if v.len = cap then begin
    (* Grow using the pushed element as filler: no dummy value needed,
       and the representation stays monomorphic-safe. *)
    let buf' = Array.make (max 4 (2 * cap)) q in
    Array.blit v.buf 0 buf' 0 v.len;
    v.buf <- buf'
  end;
  v.buf.(v.len) <- q;
  v.len <- v.len + 1

let count_where_upto v pred ~cap =
  if cap < 0 then invalid_arg "View.count_where_upto: negative cap";
  let acc = ref 0 in
  let i = ref 0 in
  while !acc < cap && !i < v.len do
    if pred v.buf.(!i) then incr acc;
    incr i
  done;
  !acc

(* Direct loop rather than [count_where_upto (fun q' -> q' = q)]: the
   predicate closure would capture [q] and cost an allocation per call on
   the engine's hot path. *)
let count_upto v q ~cap =
  if cap < 0 then invalid_arg "View.count_upto: negative cap";
  let acc = ref 0 in
  let i = ref 0 in
  while !acc < cap && !i < v.len do
    if v.buf.(!i) = q then incr acc;
    incr i
  done;
  !acc

let at_least v q t = count_upto v q ~cap:t >= t

let exists v pred =
  let rec go i = i < v.len && (pred v.buf.(i) || go (i + 1)) in
  go 0

let for_all v pred =
  let rec go i = i >= v.len || (pred v.buf.(i) && go (i + 1)) in
  go 0

let count_where_mod v pred ~modulus =
  if modulus < 1 then invalid_arg "View.count_where_mod: modulus >= 1";
  let acc = ref 0 in
  for i = 0 to v.len - 1 do
    if pred v.buf.(i) then acc := (!acc + 1) mod modulus
  done;
  !acc

let count_mod v q ~modulus =
  if modulus < 1 then invalid_arg "View.count_mod: modulus >= 1";
  let acc = ref 0 in
  for i = 0 to v.len - 1 do
    if v.buf.(i) = q then acc := (!acc + 1) mod modulus
  done;
  !acc

let map f v = { buf = Array.init v.len (fun i -> f v.buf.(i)); len = v.len }

let filter_map f v =
  let out = scratch () in
  for i = 0 to v.len - 1 do
    match f v.buf.(i) with None -> () | Some p -> push out p
  done;
  out

let is_empty v = v.len = 0

let join_with j v =
  if v.len = 0 then None
  else begin
    let acc = ref v.buf.(0) in
    for i = 1 to v.len - 1 do
      acc := j !acc v.buf.(i)
    done;
    Some !acc
  end

let fold_monoid f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.buf.(i)
  done;
  !acc

(* The representation is an indexed cursor over an id buffer: [ids.(0
   .. len-1)] name the neighbours, [ids.(len ..)] is slack.  An id [x >=
   0] names [states.(x)] and an id [x < 0] names [ghosts.(lnot x)]; the
   two arrays are the ones the view was bound to.  The interface
   guarantees that consumers can only extract mod/thresh (and
   semilattice-join) information from it: no observer hands out an id.

   The buffer is deliberately reusable: the engine keeps one view per
   network (and per shard), binds it once to its state (and ghost)
   arrays, refills the ids in place before every activation ([clear] +
   [push_id]), and hands the same value to the transition function — so
   a warm activation performs no heap allocation for the view, and
   since the buffer holds ints, filling it runs no write barrier.  The
   states are read at observation time, through the ids: a view is only
   valid until the next activation and while its bound arrays are not
   written; transition functions must not retain it (none can: the type
   is abstract and every observer is strict). *)

type 'q t = {
  mutable ids : int array;
  mutable len : int;
  mutable states : 'q array;
  mutable ghosts : 'q array;
}

let of_array states =
  let n = Array.length states in
  { ids = Array.init n Fun.id; len = n; states; ghosts = [||] }

let of_list l = of_array (Array.of_list l)
let scratch () = { ids = [||]; len = 0; states = [||]; ghosts = [||] }

let bind v ~states ~ghosts =
  v.states <- states;
  v.ghosts <- ghosts

let clear v = v.len <- 0

let grow v =
  let ids = Array.make (max 4 (2 * v.len)) 0 in
  Array.blit v.ids 0 ids 0 v.len;
  v.ids <- ids

let push_id v x =
  if v.len = Array.length v.ids then grow v;
  Array.unsafe_set v.ids v.len x;
  v.len <- v.len + 1

(* The [i]th neighbour state, [i < len].  Every observer below hoists
   the three arrays out of its loop and reads through this. *)
let[@inline] nth ids states ghosts i =
  let x = Array.unsafe_get ids i in
  if x >= 0 then states.(x) else ghosts.(lnot x)

let count_where_upto v pred ~cap =
  if cap < 0 then invalid_arg "View.count_where_upto: negative cap";
  let ids = v.ids and states = v.states and ghosts = v.ghosts in
  let len = v.len in
  let acc = ref 0 in
  let i = ref 0 in
  while !acc < cap && !i < len do
    if pred (nth ids states ghosts !i) then incr acc;
    incr i
  done;
  !acc

(* Direct loop rather than [count_where_upto (fun q' -> q' = q)]: the
   predicate closure would capture [q] and cost an allocation per call on
   the engine's hot path. *)
let count_upto v q ~cap =
  if cap < 0 then invalid_arg "View.count_upto: negative cap";
  let ids = v.ids and states = v.states and ghosts = v.ghosts in
  let len = v.len in
  let acc = ref 0 in
  let i = ref 0 in
  while !acc < cap && !i < len do
    if nth ids states ghosts !i = q then incr acc;
    incr i
  done;
  !acc

let at_least v q t = count_upto v q ~cap:t >= t

let exists v pred =
  let ids = v.ids and states = v.states and ghosts = v.ghosts in
  let len = v.len in
  let rec go i = i < len && (pred (nth ids states ghosts i) || go (i + 1)) in
  go 0

let for_all v pred =
  let ids = v.ids and states = v.states and ghosts = v.ghosts in
  let len = v.len in
  let rec go i = i >= len || (pred (nth ids states ghosts i) && go (i + 1)) in
  go 0

let count_where_mod v pred ~modulus =
  if modulus < 1 then invalid_arg "View.count_where_mod: modulus >= 1";
  let ids = v.ids and states = v.states and ghosts = v.ghosts in
  let len = v.len in
  let acc = ref 0 in
  for i = 0 to len - 1 do
    if pred (nth ids states ghosts i) then acc := (!acc + 1) mod modulus
  done;
  !acc

let count_mod v q ~modulus =
  if modulus < 1 then invalid_arg "View.count_mod: modulus >= 1";
  let ids = v.ids and states = v.states and ghosts = v.ghosts in
  let len = v.len in
  let acc = ref 0 in
  for i = 0 to len - 1 do
    if nth ids states ghosts i = q then acc := (!acc + 1) mod modulus
  done;
  !acc

let map f v =
  let ids = v.ids and states = v.states and ghosts = v.ghosts in
  let len = v.len in
  of_array (Array.init len (fun i -> f (nth ids states ghosts i)))

let filter_map f v =
  let ids = v.ids and states = v.states and ghosts = v.ghosts in
  let len = v.len in
  let kept = ref [] in
  for i = 0 to len - 1 do
    match f (nth ids states ghosts i) with
    | None -> ()
    | Some p -> kept := p :: !kept
  done;
  of_list (List.rev !kept)

let is_empty v = v.len = 0

let join_with j v =
  if v.len = 0 then None
  else begin
    let ids = v.ids and states = v.states and ghosts = v.ghosts in
    let len = v.len in
    let acc = ref (nth ids states ghosts 0) in
    for i = 1 to len - 1 do
      acc := j !acc (nth ids states ghosts i)
    done;
    Some !acc
  end

let fold_monoid f acc v =
  let ids = v.ids and states = v.states and ghosts = v.ghosts in
  let len = v.len in
  let acc = ref acc in
  for i = 0 to len - 1 do
    acc := f !acc (nth ids states ghosts i)
  done;
  !acc

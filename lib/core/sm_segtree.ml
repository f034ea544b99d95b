(* A flat segment tree of monoid summaries (arXiv:0708.0580 §3).

   Heap layout over one int store: [size] is the least power of two
   >= max n 1, node [i] (1-indexed, root = 1) lives at store offset
   [i * width], leaf [j] is node [size + j], and padding leaves past [n]
   hold the identity.  The shape is a pure function of [n], so builds
   are bit-identical no matter how the leaf/level loops are carved up —
   which is what lets [?par] shard them over a domain pool without a
   determinism caveat.  A point update rewrites one leaf and combines
   back up to the root: O(log n) [combine_into] calls, no allocation. *)

type t = {
  m : Sm_monoid.t;
  n : int;
  size : int;  (* least power of two >= max n 1 *)
  width : int;
  store : int array;  (* 2 * size summaries; offset 0 (node 0) unused *)
  leaves : int array;  (* current symbol per leaf, -1 = absent *)
  root_box : Sm_monoid.summary;  (* reused by [root_summary] *)
}

let length t = t.n
let monoid t = t.m

let rec pow2_at_least k n = if k >= n then k else pow2_at_least (2 * k) n

(* Rebuild the internal levels bottom-up.  Levels with at least
   [par_cutoff] nodes are sharded through [par] when provided; smaller
   levels (and the whole build when [par] is absent) run sequentially.
   The cutoff only moves work between domains, never changes results. *)
let par_cutoff = 1024

let fill_level t lvl lo hi =
  let w = t.width in
  for i = lvl + lo to lvl + hi - 1 do
    Sm_monoid.combine_into t.m t.store (2 * i * w) t.store
      (((2 * i) + 1) * w)
      t.store (i * w)
  done

let build_internal ?par t =
  let rec go lvl =
    if lvl >= 1 then begin
      (match par with
      | Some par when lvl >= par_cutoff ->
          par ~n:lvl (fun lo hi -> fill_level t lvl lo hi)
      | _ -> fill_level t lvl 0 lvl);
      go (lvl / 2)
    end
  in
  go (t.size / 2)

let fill_leaves t inputs lo hi =
  let w = t.width in
  for j = lo to hi - 1 do
    let sym = if j < t.n then inputs.(j) else -1 in
    if j < t.n then t.leaves.(j) <- sym;
    Sm_monoid.summarize_into t.m t.store ((t.size + j) * w) sym
  done

let build ?par m inputs =
  let n = Array.length inputs in
  let size = pow2_at_least 1 n in
  let width = Sm_monoid.width m in
  let t =
    {
      m;
      n;
      size;
      width;
      store = Array.make (2 * size * width) 0;
      leaves = Array.make (max n 1) (-1);
      root_box = Sm_monoid.identity m;
    }
  in
  (match par with
  | Some par when size >= par_cutoff ->
      par ~n:size (fun lo hi -> fill_leaves t inputs lo hi)
  | _ -> fill_leaves t inputs 0 size);
  build_internal ?par t;
  t

let get t j =
  if j < 0 || j >= t.n then invalid_arg "Sm_segtree.get: leaf out of range";
  t.leaves.(j)

let set t j sym =
  if j < 0 || j >= t.n then invalid_arg "Sm_segtree.set: leaf out of range";
  if t.leaves.(j) <> sym then begin
    t.leaves.(j) <- sym;
    let w = t.width in
    Sm_monoid.summarize_into t.m t.store ((t.size + j) * w) sym;
    let i = ref ((t.size + j) / 2) in
    while !i >= 1 do
      Sm_monoid.combine_into t.m t.store (2 * !i * w) t.store
        (((2 * !i) + 1) * w)
        t.store (!i * w);
      i := !i / 2
    done
  end

let result t = Sm_monoid.finish_at t.m t.store t.width

let root_summary t =
  Sm_monoid.blit_to_summary t.m t.store t.width t.root_box;
  t.root_box

let eval ?par m inputs = result (build ?par m inputs)

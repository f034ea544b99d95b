module Prng = Symnet_prng.Prng

(* ------------------------------------------------------------------ *)
(* Sequential programs                                                 *)
(* ------------------------------------------------------------------ *)

type sequential = {
  sq_q_size : int;
  sq_w_size : int;
  sq_w0 : int;
  sq_p : int array array;
  sq_beta : int array;
  sq_r_size : int;
}

let check_range name x bound =
  if x < 0 || x >= bound then
    invalid_arg (Printf.sprintf "Sm: %s out of range: %d (bound %d)" name x bound)

let check_sequential s =
  if s.sq_q_size < 1 || s.sq_w_size < 1 || s.sq_r_size < 1 then
    invalid_arg "Sm.check_sequential: empty alphabet";
  check_range "w0" s.sq_w0 s.sq_w_size;
  if Array.length s.sq_p <> s.sq_w_size then
    invalid_arg "Sm.check_sequential: p row count";
  Array.iter
    (fun row ->
      if Array.length row <> s.sq_q_size then
        invalid_arg "Sm.check_sequential: p column count";
      Array.iter (fun w -> check_range "p(w,q)" w s.sq_w_size) row)
    s.sq_p;
  if Array.length s.sq_beta <> s.sq_w_size then
    invalid_arg "Sm.check_sequential: beta length";
  Array.iter (fun r -> check_range "beta(w)" r s.sq_r_size) s.sq_beta

let sequential_working_state s inputs =
  if inputs = [] then invalid_arg "Sm.run_sequential: empty input";
  List.fold_left
    (fun w q ->
      check_range "input" q s.sq_q_size;
      s.sq_p.(w).(q))
    s.sq_w0 inputs

let run_sequential s inputs = s.sq_beta.(sequential_working_state s inputs)

(* ------------------------------------------------------------------ *)
(* Parallel programs                                                   *)
(* ------------------------------------------------------------------ *)

type parallel = {
  pa_q_size : int;
  pa_w_size : int;
  pa_alpha : int array;
  pa_p : int array array;
  pa_beta : int array;
  pa_r_size : int;
}

let check_parallel p =
  if p.pa_q_size < 1 || p.pa_w_size < 1 || p.pa_r_size < 1 then
    invalid_arg "Sm.check_parallel: empty alphabet";
  if Array.length p.pa_alpha <> p.pa_q_size then
    invalid_arg "Sm.check_parallel: alpha length";
  Array.iter (fun w -> check_range "alpha(q)" w p.pa_w_size) p.pa_alpha;
  if Array.length p.pa_p <> p.pa_w_size then
    invalid_arg "Sm.check_parallel: p row count";
  Array.iter
    (fun row ->
      if Array.length row <> p.pa_w_size then
        invalid_arg "Sm.check_parallel: p column count";
      Array.iter (fun w -> check_range "p(w,w')" w p.pa_w_size) row)
    p.pa_p;
  if Array.length p.pa_beta <> p.pa_w_size then
    invalid_arg "Sm.check_parallel: beta length";
  Array.iter (fun r -> check_range "beta(w)" r p.pa_r_size) p.pa_beta

type tree = Leaf of int | Node of tree * tree

let rec tree_leaves = function
  | Leaf _ -> 1
  | Node (l, r) -> tree_leaves l + tree_leaves r

let left_comb_tree k =
  if k < 1 then invalid_arg "Sm.left_comb_tree: k >= 1";
  let rec go acc i = if i >= k then acc else go (Node (acc, Leaf i)) (i + 1) in
  go (Leaf 0) 1

(* Balanced trees are pure in [k] and immutable, so they are memoized:
   [run_parallel]'s default path used to rebuild the O(k)-node tree on
   every call.  The table is guarded for callers evaluating from
   several domains at once. *)
let balanced_memo : (int, tree) Hashtbl.t = Hashtbl.create 16
let balanced_lock = Mutex.create ()

let balanced_tree k =
  if k < 1 then invalid_arg "Sm.balanced_tree: k >= 1";
  Mutex.lock balanced_lock;
  match Hashtbl.find_opt balanced_memo k with
  | Some t ->
      Mutex.unlock balanced_lock;
      t
  | None ->
      let rec build lo hi =
        if lo = hi then Leaf lo
        else begin
          let mid = (lo + hi) / 2 in
          Node (build lo mid, build (mid + 1) hi)
        end
      in
      let t = build 0 (k - 1) in
      Hashtbl.add balanced_memo k t;
      Mutex.unlock balanced_lock;
      t

let random_tree rng k =
  if k < 1 then invalid_arg "Sm.random_tree: k >= 1";
  (* Build a random shape by repeatedly splitting the leaf interval at a
     uniform point; labels stay in left-to-right order. *)
  let rec build lo hi =
    if lo = hi then Leaf lo
    else begin
      let split = lo + Prng.int rng (hi - lo) in
      Node (build lo split, build (split + 1) hi)
    end
  in
  build 0 (k - 1)

(* Evaluate the balanced shape without materializing any tree: an
   explicit stack of interval frames replays the midpoint recursion of
   [balanced_tree] exactly — same splits, same association, so the
   answer matches [run_parallel ~tree:(balanced_tree k)] even for
   non-SM programs — at O(log k) scratch words per call and zero
   per-node allocation. *)
let eval_balanced p arr =
  let k = Array.length arr in
  let depth = ref 2 and cap = ref 1 in
  while !cap < k do
    cap := 2 * !cap;
    incr depth
  done;
  let d = !depth in
  let los = Array.make d 0 and his = Array.make d 0 in
  let stages = Array.make d 0 and lefts = Array.make d 0 in
  (* stages: 0 = fresh frame, 1 = evaluating left child (the next value
     delivered is the left result), 2 = evaluating right child. *)
  let sp = ref 1 in
  his.(0) <- k - 1;
  let ret = ref 0 in
  let deliver r =
    ret := r;
    let continue = ref true in
    while !continue && !sp > 0 do
      let g = !sp - 1 in
      if stages.(g) = 1 then begin
        lefts.(g) <- !ret;
        continue := false
      end
      else begin
        ret := p.pa_p.(lefts.(g)).(!ret);
        decr sp
      end
    done
  in
  while !sp > 0 do
    let f = !sp - 1 in
    let lo = los.(f) and hi = his.(f) in
    if lo = hi then begin
      decr sp;
      deliver p.pa_alpha.(arr.(lo))
    end
    else begin
      let mid = (lo + hi) / 2 in
      let clo, chi =
        if stages.(f) = 0 then begin
          stages.(f) <- 1;
          (lo, mid)
        end
        else begin
          stages.(f) <- 2;
          (mid + 1, hi)
        end
      in
      los.(!sp) <- clo;
      his.(!sp) <- chi;
      stages.(!sp) <- 0;
      incr sp
    end
  done;
  p.pa_beta.(!ret)

let run_parallel ?tree p inputs =
  if inputs = [] then invalid_arg "Sm.run_parallel: empty input";
  let arr = Array.of_list inputs in
  let k = Array.length arr in
  Array.iter (fun q -> check_range "input" q p.pa_q_size) arr;
  match tree with
  | None -> eval_balanced p arr
  | Some t ->
      if tree_leaves t <> k then
        invalid_arg "Sm.run_parallel: tree leaf count mismatch";
      let rec eval = function
        | Leaf i ->
            if i < 0 || i >= k then
              invalid_arg "Sm.run_parallel: bad leaf label";
            p.pa_alpha.(arr.(i))
        | Node (l, r) -> p.pa_p.(eval l).(eval r)
      in
      p.pa_beta.(eval t)

(* ------------------------------------------------------------------ *)
(* Mod-thresh programs                                                 *)
(* ------------------------------------------------------------------ *)

type prop =
  | True
  | False
  | Mod of int * int * int
  | Thresh of int * int
  | Not of prop
  | And of prop * prop
  | Or of prop * prop

type mod_thresh = {
  mt_q_size : int;
  mt_clauses : (prop * int) list;
  mt_default : int;
  mt_r_size : int;
}

let rec check_prop q_size = function
  | True | False -> ()
  | Mod (q, r, m) ->
      check_range "mod atom state" q q_size;
      if m < 1 then invalid_arg "Sm: mod atom modulus >= 1";
      if r < 0 || r >= m then invalid_arg "Sm: mod atom residue out of range"
  | Thresh (q, t) ->
      check_range "thresh atom state" q q_size;
      if t < 1 then invalid_arg "Sm: thresh atom threshold >= 1"
  | Not p -> check_prop q_size p
  | And (p1, p2) | Or (p1, p2) ->
      check_prop q_size p1;
      check_prop q_size p2

let check_mod_thresh mt =
  if mt.mt_q_size < 1 || mt.mt_r_size < 1 then
    invalid_arg "Sm.check_mod_thresh: empty alphabet";
  List.iter
    (fun (p, r) ->
      check_prop mt.mt_q_size p;
      check_range "clause result" r mt.mt_r_size)
    mt.mt_clauses;
  check_range "default result" mt.mt_default mt.mt_r_size

let multiplicities ~q_size inputs =
  let mu = Array.make q_size 0 in
  List.iter
    (fun q ->
      check_range "input" q q_size;
      mu.(q) <- mu.(q) + 1)
    inputs;
  mu

let rec eval_prop p mu =
  match p with
  | True -> true
  | False -> false
  | Mod (q, r, m) -> mu.(q) mod m = r
  | Thresh (q, t) -> mu.(q) < t
  | Not p -> not (eval_prop p mu)
  | And (p1, p2) -> eval_prop p1 mu && eval_prop p2 mu
  | Or (p1, p2) -> eval_prop p1 mu || eval_prop p2 mu

let run_mod_thresh mt inputs =
  if inputs = [] then invalid_arg "Sm.run_mod_thresh: empty input";
  let mu = multiplicities ~q_size:mt.mt_q_size inputs in
  let rec go = function
    | [] -> mt.mt_default
    | (p, r) :: rest -> if eval_prop p mu then r else go rest
  in
  go mt.mt_clauses

(* ------------------------------------------------------------------ *)
(* Multiset enumeration and SM-validity                                *)
(* ------------------------------------------------------------------ *)

let multisets ~q_size ~len =
  (* Sorted lists q1 <= q2 <= ... <= q_len. *)
  let rec go remaining lowest =
    if remaining = 0 then [ [] ]
    else
      List.concat_map
        (fun q -> List.map (fun rest -> q :: rest) (go (remaining - 1) q))
        (List.init (q_size - lowest) (fun i -> lowest + i))
  in
  go len 0

module IntSet = Set.Make (Int)

(* Key a multiset by its multiplicity vector. *)
let multiset_key ~q_size ms =
  let mu = multiplicities ~q_size ms in
  String.concat "," (Array.to_list (Array.map string_of_int mu))

(* Reachable working states of a sequential program over all orderings:
   R({}) = {w0};  R(S) = U_{q in S} { p(w, q) | w in R(S - {q}) }. *)
let sequential_reachable s ~max_len =
  let tbl = Hashtbl.create 1024 in
  Hashtbl.add tbl (multiset_key ~q_size:s.sq_q_size []) (IntSet.singleton s.sq_w0);
  let level = ref [ [] ] in
  for _ = 1 to max_len do
    let next = Hashtbl.create 64 in
    List.iter
      (fun ms ->
        let reach = Hashtbl.find tbl (multiset_key ~q_size:s.sq_q_size ms) in
        for q = 0 to s.sq_q_size - 1 do
          let ms' = List.sort compare (q :: ms) in
          let key = multiset_key ~q_size:s.sq_q_size ms' in
          let step =
            IntSet.fold (fun w acc -> IntSet.add s.sq_p.(w).(q) acc) reach
              IntSet.empty
          in
          let cur =
            match Hashtbl.find_opt tbl key with
            | Some set -> set
            | None -> IntSet.empty
          in
          Hashtbl.replace tbl key (IntSet.union cur step);
          Hashtbl.replace next key ms'
        done)
      !level;
    level := Hashtbl.fold (fun _ ms acc -> ms :: acc) next []
  done;
  tbl

let sequential_is_sm s ~max_len =
  check_sequential s;
  let tbl = sequential_reachable s ~max_len in
  let ok = ref true in
  Hashtbl.iter
    (fun key reach ->
      if key <> multiset_key ~q_size:s.sq_q_size [] then begin
        let results =
          IntSet.fold (fun w acc -> IntSet.add s.sq_beta.(w) acc) reach
            IntSet.empty
        in
        if IntSet.cardinal results > 1 then ok := false
      end)
    tbl;
  !ok

(* Reachable working states of a parallel program over all trees and
   orders:  R({q}) = {alpha q};
   R(S) = U over proper splits S = S1 + S2 of p(R(S1), R(S2)). *)
let parallel_is_sm p ~max_len =
  check_parallel p;
  let q_size = p.pa_q_size in
  let tbl = Hashtbl.create 1024 in
  let key ms = multiset_key ~q_size ms in
  List.iter
    (fun q -> Hashtbl.replace tbl (key [ q ]) (IntSet.singleton p.pa_alpha.(q)))
    (List.init q_size (fun q -> q));
  let ok = ref true in
  for len = 1 to max_len do
    List.iter
      (fun ms ->
        let k = key ms in
        if len > 1 then begin
          (* Enumerate sub-multisets S1 with 1 <= |S1| <= len-1 via the
             multiplicity vector. *)
          let mu = multiplicities ~q_size ms in
          let reach = ref IntSet.empty in
          let rec split q acc_mu =
            if q = q_size then begin
              let size1 = Array.fold_left ( + ) 0 acc_mu in
              if size1 >= 1 && size1 <= len - 1 then begin
                let ms1 = ref [] and ms2 = ref [] in
                for j = q_size - 1 downto 0 do
                  for _ = 1 to acc_mu.(j) do
                    ms1 := j :: !ms1
                  done;
                  for _ = 1 to mu.(j) - acc_mu.(j) do
                    ms2 := j :: !ms2
                  done
                done;
                let r1 = Hashtbl.find tbl (key !ms1) in
                let r2 = Hashtbl.find tbl (key !ms2) in
                IntSet.iter
                  (fun w1 ->
                    IntSet.iter
                      (fun w2 -> reach := IntSet.add p.pa_p.(w1).(w2) !reach)
                      r2)
                  r1
              end
            end
            else
              for take = 0 to mu.(q) do
                let acc_mu' = Array.copy acc_mu in
                acc_mu'.(q) <- take;
                split (q + 1) acc_mu'
              done
          in
          split 0 (Array.make q_size 0);
          Hashtbl.replace tbl k !reach
        end;
        let reach = Hashtbl.find tbl k in
        let results =
          IntSet.fold (fun w acc -> IntSet.add p.pa_beta.(w) acc) reach
            IntSet.empty
        in
        if IntSet.cardinal results > 1 then ok := false)
      (multisets ~q_size ~len)
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Size metrics                                                        *)
(* ------------------------------------------------------------------ *)

let sequential_size s = s.sq_w_size
let parallel_size p = p.pa_w_size
let mod_thresh_size mt = List.length mt.mt_clauses + 1

let rec prop_uses_mod = function
  | True | False | Thresh _ -> false
  | Mod (_, _, m) -> m >= 2
  | Not p -> prop_uses_mod p
  | And (p1, p2) | Or (p1, p2) -> prop_uses_mod p1 || prop_uses_mod p2

let mod_thresh_uses_mod mt =
  List.exists (fun (p, _) -> prop_uses_mod p) mt.mt_clauses

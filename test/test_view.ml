module View = Symnet_core.View

let v = View.of_list [ 1; 2; 2; 3; 3; 3 ]

let test_at_least () =
  Alcotest.(check bool) "1 >= 1" true (View.at_least v 1 1);
  Alcotest.(check bool) "1 >= 2" false (View.at_least v 1 2);
  Alcotest.(check bool) "3 >= 3" true (View.at_least v 3 3);
  Alcotest.(check bool) "3 >= 4" false (View.at_least v 3 4);
  Alcotest.(check bool) "absent" false (View.at_least v 9 1)

let test_count_upto () =
  Alcotest.(check int) "cap above" 3 (View.count_upto v 3 ~cap:5);
  Alcotest.(check int) "cap below" 2 (View.count_upto v 3 ~cap:2);
  Alcotest.(check int) "missing" 0 (View.count_upto v 7 ~cap:4);
  Alcotest.(check int) "cap zero" 0 (View.count_upto v 3 ~cap:0)

let test_count_mod () =
  Alcotest.(check int) "3 mod 2" 1 (View.count_mod v 3 ~modulus:2);
  Alcotest.(check int) "2 mod 2" 0 (View.count_mod v 2 ~modulus:2);
  Alcotest.(check int) "3 mod 5" 3 (View.count_mod v 3 ~modulus:5)

let test_predicates () =
  Alcotest.(check bool) "exists even" true (View.exists v (fun q -> q mod 2 = 0));
  Alcotest.(check bool) "not all even" false (View.for_all v (fun q -> q mod 2 = 0));
  Alcotest.(check bool) "all positive" true (View.for_all v (fun q -> q > 0));
  Alcotest.(check int) "count evens capped" 2
    (View.count_where_upto v (fun q -> q mod 2 = 0) ~cap:9);
  Alcotest.(check int) "count odds mod 3" 1
    (View.count_where_mod v (fun q -> q mod 2 = 1) ~modulus:3)

let test_map_merges () =
  let mapped = View.map (fun q -> q mod 2) v in
  (* 1,3,3,3 -> 1 (x4); 2,2 -> 0 (x2) *)
  Alcotest.(check bool) "odd multiplicity 4" true (View.at_least mapped 1 4);
  Alcotest.(check bool) "not 5" false (View.at_least mapped 1 5);
  Alcotest.(check int) "even count" 2 (View.count_upto mapped 0 ~cap:10)

let test_empty () =
  let e = View.of_list [] in
  Alcotest.(check bool) "is_empty" true (View.is_empty e);
  Alcotest.(check bool) "non-empty" false (View.is_empty v);
  Alcotest.(check bool) "for_all vacuous" true (View.for_all e (fun _ -> false));
  Alcotest.(check bool) "exists vacuous" false (View.exists e (fun _ -> true))

let test_invalid_args () =
  Alcotest.check_raises "negative cap"
    (Invalid_argument "View.count_upto: negative cap") (fun () ->
      ignore (View.count_upto v 1 ~cap:(-1)));
  Alcotest.check_raises "negative cap (where)"
    (Invalid_argument "View.count_where_upto: negative cap") (fun () ->
      ignore (View.count_where_upto v (fun _ -> true) ~cap:(-1)));
  Alcotest.check_raises "bad modulus"
    (Invalid_argument "View.count_mod: modulus >= 1") (fun () ->
      ignore (View.count_mod v 1 ~modulus:0));
  Alcotest.check_raises "bad modulus (where)"
    (Invalid_argument "View.count_where_mod: modulus >= 1") (fun () ->
      ignore (View.count_where_mod v (fun _ -> true) ~modulus:0))

(* Order independence: every observation must agree across permutations —
   the SM-by-construction claim for the view interface. *)
let prop_order_independent =
  QCheck.Test.make ~name:"view observations are order independent" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 8) (int_range 0 3)) (int_range 0 100))
    (fun (states, seed) ->
      QCheck.assume (states <> []);
      let rng = Symnet_prng.Prng.create ~seed in
      let arr = Array.of_list states in
      Symnet_prng.Prng.shuffle rng arr;
      let v1 = View.of_list states in
      let v2 = View.of_list (Array.to_list arr) in
      List.for_all
        (fun q ->
          View.at_least v1 q 2 = View.at_least v2 q 2
          && View.count_upto v1 q ~cap:3 = View.count_upto v2 q ~cap:3
          && View.count_mod v1 q ~modulus:2 = View.count_mod v2 q ~modulus:2)
        [ 0; 1; 2; 3 ])

(* §3.1's impossibility remark made precise: with finite caps, a node
   cannot count its neighbours — any two multisets whose per-state counts
   agree up to every cap and modulus used are observationally identical,
   regardless of their true sizes. *)
let prop_cannot_count_neighbours =
  QCheck.Test.make ~name:"degree is invisible beyond the caps" ~count:100
    QCheck.(triple (int_range 1 4) (int_range 5 30) (int_range 5 30))
    (fun (cap, n1, n2) ->
      (* two all-same-state neighbourhoods of very different sizes *)
      let v1 = View.of_list (List.init n1 (fun _ -> 0)) in
      let v2 = View.of_list (List.init n2 (fun _ -> 0)) in
      (* thresh observations up to the cap agree as soon as both sizes
         clear it *)
      QCheck.assume (n1 >= cap && n2 >= cap);
      View.count_upto v1 0 ~cap = View.count_upto v2 0 ~cap
      && View.at_least v1 0 cap = View.at_least v2 0 cap)

let test_filter_map () =
  let v = View.of_list [ 1; 2; 3; 4; 5; 6 ] in
  let evens_doubled =
    View.filter_map (fun q -> if q mod 2 = 0 then Some (q * 2) else None) v
  in
  Alcotest.(check int) "2,4,6 -> 4,8,12" 1 (View.count_upto evens_doubled 8 ~cap:5);
  Alcotest.(check bool) "odds dropped" false (View.exists evens_doubled (fun q -> q mod 2 = 1));
  Alcotest.(check int) "three survivors" 3
    (View.count_where_upto evens_doubled (fun _ -> true) ~cap:9)

let test_join_with () =
  Alcotest.(check (option int)) "max join" (Some 6)
    (View.join_with max (View.of_list [ 3; 6; 1 ]));
  Alcotest.(check (option int)) "empty" None (View.join_with max (View.of_list []))

(* An engine-built view records neighbour ids — owned ones as
   themselves, ghosts as complements of their index — and reads the
   states through the arrays it is bound to.  Over random states and a
   random mix of owned and ghost ids, filled into a reused scratch after
   an earlier fill, every observer must answer as it does over
   [View.of_list] of the same states in fill order.  [fold_monoid]
   with a list-building step checks the order itself. *)
let prop_id_view_equals_of_list =
  let gen =
    QCheck.Gen.(
      array_size (int_range 1 8) (int_range 0 4) >>= fun owned ->
      array_size (int_range 0 8) (int_range 0 4) >>= fun ghosts ->
      let pick =
        let own = int_bound (Array.length owned - 1) in
        if Array.length ghosts = 0 then own
        else
          oneof [ own; map (fun j -> lnot j) (int_bound (Array.length ghosts - 1)) ]
      in
      list_size (int_range 0 12) pick >>= fun prior ->
      list_size (int_range 0 12) pick >>= fun fill ->
      return (owned, ghosts, prior, fill))
  in
  let print (owned, ghosts, prior, fill) =
    let ints l = String.concat ";" (List.map string_of_int l) in
    Printf.sprintf "owned [%s] ghosts [%s] prior [%s] fill [%s]"
      (ints (Array.to_list owned)) (ints (Array.to_list ghosts)) (ints prior) (ints fill)
  in
  QCheck.Test.make ~name:"id views = of_list in fill order" ~count:500
    (QCheck.make ~print gen)
    (fun (owned, ghosts, prior, fill) ->
      let v = View.scratch () in
      View.bind v ~states:owned ~ghosts;
      List.iter (View.push_id v) prior;
      View.clear v;
      List.iter (View.push_id v) fill;
      let r =
        View.of_list
          (List.map (fun x -> if x >= 0 then owned.(x) else ghosts.(lnot x)) fill)
      in
      let states = [ 0; 1; 2; 3; 4; 5 ] in
      let preds = [ (fun q -> q mod 2 = 0); (fun q -> q > 2); (fun _ -> true) ] in
      let both f = f v = f r in
      both View.is_empty
      && both (View.join_with max)
      && both (View.join_with min)
      && both (View.fold_monoid (fun acc q -> q :: acc) [])
      && List.for_all
           (fun p ->
             both (fun w -> View.exists w p)
             && both (fun w -> View.for_all w p)
             && List.for_all
                  (fun cap -> both (fun w -> View.count_where_upto w p ~cap))
                  [ 0; 1; 3; 12 ]
             && List.for_all
                  (fun modulus -> both (fun w -> View.count_where_mod w p ~modulus))
                  [ 1; 2; 3 ])
           preds
      && List.for_all
           (fun q ->
             List.for_all (fun t -> both (fun w -> View.at_least w q t)) [ 0; 1; 2; 4 ]
             && List.for_all
                  (fun cap -> both (fun w -> View.count_upto w q ~cap))
                  [ 0; 1; 3; 12 ]
             && List.for_all
                  (fun modulus -> both (fun w -> View.count_mod w q ~modulus))
                  [ 1; 2; 3 ])
           states
      && both (fun w ->
             View.fold_monoid (fun acc q -> q :: acc) [] (View.map (fun q -> q / 2) w))
      && both (fun w ->
             View.fold_monoid (fun acc q -> q :: acc) []
               (View.filter_map
                  (fun q -> if q mod 2 = 0 then Some (q + 10) else None)
                  w)))

let suite =
  [
    Alcotest.test_case "at_least" `Quick test_at_least;
    Alcotest.test_case "count_upto" `Quick test_count_upto;
    Alcotest.test_case "count_mod" `Quick test_count_mod;
    Alcotest.test_case "predicates" `Quick test_predicates;
    Alcotest.test_case "map merges multiplicities" `Quick test_map_merges;
    Alcotest.test_case "empty view" `Quick test_empty;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
    Alcotest.test_case "filter_map" `Quick test_filter_map;
    Alcotest.test_case "join_with" `Quick test_join_with;
    QCheck_alcotest.to_alcotest prop_order_independent;
    QCheck_alcotest.to_alcotest prop_cannot_count_neighbours;
    QCheck_alcotest.to_alcotest prop_id_view_equals_of_list;
  ]

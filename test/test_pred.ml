(* Unit and property tests for the predicate algebra. *)

open Fgv_pssa

let check = Alcotest.(check bool)

(* Random predicates over a small set of boolean variables. *)
let pred_gen =
  let open QCheck2.Gen in
  sized (fun size ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                return Pred.tru;
                return Pred.fls;
                map (fun v -> Pred.lit v) (int_range 0 4);
                map (fun v -> Pred.lit ~positive:false v) (int_range 0 4);
              ]
          else
            oneof
              [
                map (fun v -> Pred.lit v) (int_range 0 4);
                map (fun v -> Pred.lit ~positive:false v) (int_range 0 4);
                map2 Pred.and_ (self (n / 2)) (self (n / 2));
                map2
                  (fun p q -> Pred.or_list [ p; q ])
                  (self (n / 2)) (self (n / 2));
              ])
        (min size 8))

let envs =
  (* all assignments to 5 boolean variables *)
  List.init 32 (fun bits v -> bits land (1 lsl v) <> 0)

let eval_all p = List.map (fun env -> Pred.eval env p) envs

let test_basics () =
  check "true & p = p" true
    (Pred.equal (Pred.and_ Pred.tru (Pred.lit 0)) (Pred.lit 0));
  check "p & !p = false" true
    (Pred.equal (Pred.and_ (Pred.lit 0) (Pred.lit ~positive:false 0)) Pred.fls);
  check "p | !p = true" true
    (Pred.equal
       (Pred.or_list [ Pred.lit 0; Pred.lit ~positive:false 0 ])
       Pred.tru);
  check "and is commutative" true
    (Pred.equal
       (Pred.and_ (Pred.lit 0) (Pred.lit 1))
       (Pred.and_ (Pred.lit 1) (Pred.lit 0)))

let test_implies_basics () =
  let a = Pred.lit 0 and b = Pred.lit 1 in
  check "a&b implies a" true (Pred.implies (Pred.and_ a b) a);
  check "a implies a|b" true (Pred.implies a (Pred.or_list [ a; b ]));
  check "a does not imply a&b" false (Pred.implies a (Pred.and_ a b));
  check "false implies anything" true (Pred.implies Pred.fls a);
  check "anything implies true" true (Pred.implies b Pred.tru)

let test_literals () =
  let p =
    Pred.and_ (Pred.lit 3)
      (Pred.or_list [ Pred.lit 1; Pred.lit ~positive:false 3 ])
  in
  Alcotest.(check (list int)) "literals" [ 1; 3 ] (Pred.literals p)

(* Properties *)

let prop_normalization_sound =
  QCheck2.Test.make ~name:"and_/or_list preserve semantics under eval"
    ~count:500
    QCheck2.Gen.(tup2 pred_gen pred_gen)
    (fun (p, q) ->
      let conj = Pred.and_ p q and disj = Pred.or_list [ p; q ] in
      List.for_all
        (fun env ->
          Pred.eval env conj = (Pred.eval env p && Pred.eval env q)
          && Pred.eval env disj = (Pred.eval env p || Pred.eval env q))
        envs)

let prop_implies_sound =
  QCheck2.Test.make ~name:"implies is sound (p => q semantically)" ~count:500
    QCheck2.Gen.(tup2 pred_gen pred_gen)
    (fun (p, q) ->
      (not (Pred.implies p q))
      || List.for_all
           (fun env -> (not (Pred.eval env p)) || Pred.eval env q)
           envs)

let prop_equal_iff_same_truth_table =
  QCheck2.Test.make ~name:"structural equality implies same truth table"
    ~count:500
    QCheck2.Gen.(tup2 pred_gen pred_gen)
    (fun (p, q) -> (not (Pred.equal p q)) || eval_all p = eval_all q)

let prop_rename_identity =
  QCheck2.Test.make ~name:"rename with identity is equal" ~count:200 pred_gen
    (fun p -> Pred.equal (Pred.rename (fun v -> v) p) p)

let suite =
  [
    Alcotest.test_case "basic laws" `Quick test_basics;
    Alcotest.test_case "implies basics" `Quick test_implies_basics;
    Alcotest.test_case "literals" `Quick test_literals;
    QCheck_alcotest.to_alcotest prop_normalization_sound;
    QCheck_alcotest.to_alcotest prop_implies_sound;
    QCheck_alcotest.to_alcotest prop_equal_iff_same_truth_table;
    QCheck_alcotest.to_alcotest prop_rename_identity;
  ]

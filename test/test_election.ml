open Abe_core

let state phase d = { Election.phase; d }

let check_state msg expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected %s, got %s" msg
      (Fmt.str "%a" Election.pp_state expected)
      (Fmt.str "%a" Election.pp_state actual)

let test_initial () =
  check_state "initial" (state Election.Idle 1) Election.initial

let test_activation_probability_formula () =
  Alcotest.(check (float 1e-12)) "d=1 equals a0" 0.3
    (Election.activation_probability ~a0:0.3 ~d:1);
  Alcotest.(check (float 1e-12)) "d=2" (1. -. (0.7 *. 0.7))
    (Election.activation_probability ~a0:0.3 ~d:2);
  Alcotest.(check bool) "d large approaches 1" true
    (Election.activation_probability ~a0:0.3 ~d:100 > 0.999)

let test_activation_probability_monotone () =
  let previous = ref 0. in
  for d = 1 to 50 do
    let p = Election.activation_probability ~a0:0.2 ~d in
    if p <= !previous then Alcotest.failf "not monotone at d=%d" d;
    previous := p
  done

let test_activation_probability_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "a0=0" (fun () ->
      Election.activation_probability ~a0:0. ~d:1);
  expect_invalid "a0=1" (fun () ->
      Election.activation_probability ~a0:1. ~d:1);
  expect_invalid "d=0" (fun () ->
      Election.activation_probability ~a0:0.5 ~d:0)

let test_tick_only_idle_activates () =
  let rng = Abe_prob.Rng.create ~seed:1 in
  List.iter
    (fun phase ->
       let st, sent =
         Election.tick_decision ~a0:0.99 ~rng (state phase 5)
       in
       check_state "unchanged" (state phase 5) st;
       Alcotest.(check bool) "no send" false sent)
    [ Election.Active; Election.Passive; Election.Leader ]

let test_tick_idle_activation_rate () =
  let rng = Abe_prob.Rng.create ~seed:2 in
  let activations = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let st, sent = Election.tick_decision ~a0:0.2 ~rng (state Election.Idle 2) in
    if sent then begin
      incr activations;
      check_state "became active" (state Election.Active 2) st
    end
    else check_state "stays idle" (state Election.Idle 2) st
  done;
  let rate = float_of_int !activations /. float_of_int trials in
  let expected = Election.activation_probability ~a0:0.2 ~d:2 in
  Alcotest.(check bool) "rate matches formula" true
    (Float.abs (rate -. expected) < 0.005)

(* The coin memoises [activation_probability]: every entry is bitwise the
   formula's value, and a coin tick draws and decides exactly as
   [tick_decision] does, phase by phase and [d] by [d]. *)
let test_coin_matches_formula () =
  List.iter
    (fun (a0, n) ->
       let coin = Election.coin ~a0 ~n in
       for d = n downto 1 do
         Alcotest.(check int64)
           (Printf.sprintf "a0 %g, d %d" a0 d)
           (Int64.bits_of_float (Election.activation_probability ~a0 ~d))
           (Int64.bits_of_float (Election.coin_probability coin ~d))
       done)
    [ (0.3, 16); (1. /. 16384., 128); (0.999, 7) ]

let test_coin_activates_as_tick_decision () =
  let n = 12 and a0 = 0.05 in
  let coin = Election.coin ~a0 ~n in
  let a = Abe_prob.Rng.create ~seed:9 in
  let b = Abe_prob.Rng.copy a in
  for round = 1 to 50 do
    List.iter
      (fun phase ->
         for d = 1 to n do
           let st = state phase d in
           Alcotest.(check bool)
             (Printf.sprintf "round %d, d %d" round d)
             (snd (Election.tick_decision ~a0 ~rng:a st))
             (Election.coin_activates coin ~rng:b st)
         done)
      [ Election.Idle; Election.Active; Election.Passive; Election.Leader ]
  done;
  Alcotest.(check int64) "same draws" (Abe_prob.Rng.bits64 a)
    (Abe_prob.Rng.bits64 b)

let test_receive_idle_becomes_passive () =
  let st, reaction = Election.receive ~n:8 (state Election.Idle 1) 3 in
  check_state "passive with watermark" (state Election.Passive 3) st;
  Alcotest.(check bool) "forwards hop+1" true (reaction = Election.Forward 4)

let test_receive_passive_forwards () =
  let st, reaction = Election.receive ~n:8 (state Election.Passive 5) 2 in
  check_state "keeps watermark" (state Election.Passive 5) st;
  (* The watermark only boosts activation; the forwarded counter is the
     true link count hop+1 = 3, NOT d+1 = 6 (the historical bug). *)
  Alcotest.(check bool) "forwards hop+1" true (reaction = Election.Forward 3)

let test_receive_orphan_purged () =
  (* A token with hop = n reaching a non-active node is an orphan (its
     origin was knocked out after emitting it): it must die, not be
     forwarded past n. *)
  let st, reaction = Election.receive ~n:4 (state Election.Idle 1) 4 in
  check_state "idle stays idle with raised watermark" (state Election.Idle 4)
    st;
  Alcotest.(check bool) "idle purges orphan" true (reaction = Election.Purge);
  let st', reaction' = Election.receive ~n:4 (state Election.Passive 2) 4 in
  check_state "passive keeps phase" (state Election.Passive 4) st';
  Alcotest.(check bool) "passive purges orphan" true
    (reaction' = Election.Purge)

(* Regression for the stale-watermark bug (forwarding [max d hop + 1]).

   Ring of n = 4.  Node 3 was knocked out earlier by a <3> token from an
   active node that has since been purged, so it is passive with a stale
   d = 3.  A fresh token from node 2 now arrives at node 3 with hop 1.

   Old rule: node 3 forwards d+1 = 4 = n, so active node 0 receives
   hop = n after the token traversed only 2 links — a false election.
   Fixed rule: node 3 forwards hop+1 = 2, node 0 sees a collision and
   purges.  No premature leader. *)
let test_stale_watermark_regression () =
  let n = 4 in
  let node3 = state Election.Passive 3 in
  let st3, r3 = Election.receive ~n node3 1 in
  check_state "watermark untouched by smaller hop" (state Election.Passive 3)
    st3;
  (match r3 with
   | Election.Forward h ->
     Alcotest.(check int) "forwards true link count" 2 h;
     let node0 = state Election.Active 1 in
     let st0, r0 = Election.receive ~n node0 h in
     Alcotest.(check bool) "no premature election" true (r0 = Election.Purge);
     check_state "origin falls back to idle" (state Election.Idle 2) st0
   | Election.Purge | Election.Elected ->
     Alcotest.fail "fresh token must be forwarded");
  (* Sanity: the buggy counter value would indeed have elected node 0. *)
  let _, buggy = Election.receive ~n (state Election.Active 1) (st3.Election.d + 1) in
  Alcotest.(check bool) "d+1 = n would falsely elect" true
    (buggy = Election.Elected)

(* Drive one token all the way around a 4-ring by hand: the counter must
   increase by exactly 1 per link and elect the origin — and only the
   origin — after traversing all n links. *)
let test_hand_driven_ring_single_leader () =
  let n = 4 in
  let states =
    Array.of_list
      [ state Election.Active 1;  (* origin, just activated and sent <1> *)
        state Election.Idle 1;
        state Election.Idle 2;    (* a different watermark must not matter *)
        state Election.Idle 1 ]
  in
  let hop = ref 1 in
  for node = 1 to 3 do
    let st, reaction = Election.receive ~n states.(node) !hop in
    states.(node) <- st;
    match reaction with
    | Election.Forward h ->
      Alcotest.(check int) (Printf.sprintf "node %d forwards hop+1" node)
        (!hop + 1) h;
      hop := h
    | Election.Purge | Election.Elected ->
      Alcotest.failf "node %d should forward" node
  done;
  let st0, r0 = Election.receive ~n states.(0) !hop in
  states.(0) <- st0;
  Alcotest.(check bool) "origin elected" true (r0 = Election.Elected);
  let leaders =
    Array.fold_left
      (fun acc st ->
         if st.Election.phase = Election.Leader then acc + 1 else acc)
      0 states
  in
  Alcotest.(check int) "exactly one leader" 1 leaders

let test_receive_active_purges () =
  let st, reaction = Election.receive ~n:8 (state Election.Active 1) 4 in
  check_state "demoted to idle" (state Election.Idle 4) st;
  Alcotest.(check bool) "purged" true (reaction = Election.Purge)

let test_receive_active_elected () =
  let st, reaction = Election.receive ~n:8 (state Election.Active 3) 8 in
  check_state "leader" (state Election.Leader 8) st;
  Alcotest.(check bool) "elected" true (reaction = Election.Elected)

let test_receive_leader_defensive () =
  let st, reaction = Election.receive ~n:8 (state Election.Leader 8) 2 in
  Alcotest.(check bool) "leader unchanged" true
    (st.Election.phase = Election.Leader);
  Alcotest.(check bool) "purged" true (reaction = Election.Purge)

let test_receive_watermark_update () =
  let st, _ = Election.receive ~n:10 (state Election.Idle 4) 7 in
  Alcotest.(check int) "d raised" 7 st.Election.d;
  let st2, _ = Election.receive ~n:10 (state Election.Passive 7) 2 in
  Alcotest.(check int) "d kept" 7 st2.Election.d

let test_receive_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "hop 0" (fun () -> Election.receive ~n:5 Election.initial 0);
  expect_invalid "hop > n" (fun () -> Election.receive ~n:5 Election.initial 6);
  expect_invalid "n < 2" (fun () -> Election.receive ~n:1 Election.initial 1)

(* Property: receive never lowers d, never forwards beyond n when fed
   hops consistent with the reachable-state invariant (d <= hop bound). *)
let prop_receive_monotone_d =
  QCheck.Test.make ~name:"receive never lowers the watermark" ~count:500
    QCheck.(triple (int_range 2 64) (int_range 1 64) (int_range 1 64))
    (fun (n, d, hop) ->
       QCheck.assume (hop <= n && d <= n);
       let st = state Election.Passive d in
       let st', _ = Election.receive ~n st hop in
       st'.Election.d >= d && st'.Election.d >= hop)

let prop_forward_hop_bounded =
  QCheck.Test.make ~name:"forwarded hop is hop+1 and never exceeds n"
    ~count:500
    QCheck.(triple (int_range 2 64) (int_range 1 64) (int_range 1 64))
    (fun (n, d, hop) ->
       QCheck.assume (hop <= n && d <= n);
       let st = state Election.Idle d in
       let _, reaction = Election.receive ~n st hop in
       match reaction with
       | Election.Forward h -> hop < n && h = hop + 1 && h <= n
       | Election.Purge -> hop = n
       | Election.Elected -> false)

let prop_active_hop_n_elects =
  QCheck.Test.make ~name:"active + hop=n always elects" ~count:200
    QCheck.(pair (int_range 2 64) (int_range 1 64))
    (fun (n, d) ->
       QCheck.assume (d <= n);
       let st = state Election.Active d in
       let _, reaction = Election.receive ~n st n in
       reaction = Election.Elected)

let () =
  Alcotest.run "election"
    [ ( "activation",
        [ Alcotest.test_case "initial state" `Quick test_initial;
          Alcotest.test_case "probability formula" `Quick
            test_activation_probability_formula;
          Alcotest.test_case "monotone in d" `Quick
            test_activation_probability_monotone;
          Alcotest.test_case "validation" `Quick
            test_activation_probability_validation;
          Alcotest.test_case "only idle activates" `Quick
            test_tick_only_idle_activates;
          Alcotest.test_case "activation rate" `Quick
            test_tick_idle_activation_rate;
          Alcotest.test_case "coin entries are the formula" `Quick
            test_coin_matches_formula;
          Alcotest.test_case "coin draws as tick_decision" `Quick
            test_coin_activates_as_tick_decision ] );
      ( "receive",
        [ Alcotest.test_case "idle -> passive" `Quick
            test_receive_idle_becomes_passive;
          Alcotest.test_case "passive forwards" `Quick
            test_receive_passive_forwards;
          Alcotest.test_case "orphan token purged" `Quick
            test_receive_orphan_purged;
          Alcotest.test_case "stale-watermark regression" `Quick
            test_stale_watermark_regression;
          Alcotest.test_case "hand-driven ring" `Quick
            test_hand_driven_ring_single_leader;
          Alcotest.test_case "active purges" `Quick test_receive_active_purges;
          Alcotest.test_case "active elected" `Quick test_receive_active_elected;
          Alcotest.test_case "leader defensive" `Quick
            test_receive_leader_defensive;
          Alcotest.test_case "watermark update" `Quick
            test_receive_watermark_update;
          Alcotest.test_case "validation" `Quick test_receive_validation ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_receive_monotone_d;
            prop_forward_hop_bounded;
            prop_active_hop_n_elects ] ) ]

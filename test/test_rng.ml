open Abe_prob

let test_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* The stream itself is part of the determinism contract: every seeded
   result in the repo (cram pins, pinned benchmark digests) depends on it,
   so no change to the generator's state representation may move these
   values. *)
let golden_seeds =
  [ ( 0,
      [ 0x53175D61490B23DFL; 0x61DA6F3DC380D507L; 0x5C0FDF91EC9A7BFCL;
        0x02EEBF8C3BBE5E1AL; 0x7ECA04EBAF4A5EEAL; 0x0543C37757F08D9AL;
        0xDB7490C75AB5026EL; 0xD87343E6464BC959L ] );
    ( 1,
      [ 0xCFC5D07F6F03C29BL; 0xBF424132963FE08DL; 0x19A37D5757AAF520L;
        0xBF08119F05CD56D6L; 0x2F47184B86186FA4L; 0x97299FCAE7202345L;
        0xFCA3C79508F41507L; 0x85FEA5C90363F221L ] );
    ( 42,
      [ 0xD0764D4F4476689FL; 0x519E4174576F3791L; 0xFBE07CFB0C24ED8CL;
        0xB37D9F600CD835B8L; 0xCB231C3874846A73L; 0x968D9F004E50DE7DL;
        0x201718FF221A3556L; 0x9AE94E070ED8CB46L ] ) ]

let take8 rng = List.init 8 (fun _ -> Rng.bits64 rng)

let test_golden_seeds () =
  List.iter
    (fun (seed, expected) ->
       Alcotest.(check (list int64))
         (Printf.sprintf "seed %d" seed)
         expected
         (take8 (Rng.create ~seed)))
    golden_seeds

let test_golden_split_copy () =
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  Alcotest.(check (list int64)) "split child of seed 42"
    [ 0x4FBBC8A5D7EE027BL; 0xCBF580142F9EED0FL; 0xE792208C7D75E47DL;
      0x8295DB570BE22203L; 0x5F54853FCDA76513L; 0x1283BA7B2AC3B933L;
      0x96F4D36A26A239C6L; 0xCA4124950CF55325L ]
    (take8 child);
  Alcotest.(check (list int64)) "parent after split"
    [ 0x519E4174576F3791L; 0xFBE07CFB0C24ED8CL; 0xB37D9F600CD835B8L;
      0xCB231C3874846A73L; 0x968D9F004E50DE7DL; 0x201718FF221A3556L;
      0x9AE94E070ED8CB46L; 0x352CF3DAF095CCC7L ]
    (take8 parent);
  let original = Rng.create ~seed:1 in
  ignore (Rng.bits64 original);
  Alcotest.(check (list int64)) "copy of seed 1 after one draw"
    [ 0xBF424132963FE08DL; 0x19A37D5757AAF520L; 0xBF08119F05CD56D6L;
      0x2F47184B86186FA4L; 0x97299FCAE7202345L; 0xFCA3C79508F41507L;
      0x85FEA5C90363F221L; 0x18BAE5B30D334BD0L ]
    (take8 (Rng.copy original))

let test_golden_unit_float () =
  let rng = Rng.create ~seed:42 in
  List.iter
    (fun expected ->
       Alcotest.(check (float 0.)) "unit_float" expected (Rng.unit_float rng))
    [ 0x1.a0ec9a9e88ecdp-1; 0x1.467905d15dbccp-2; 0x1.f7c0f9f61849dp-1;
      0x1.66fb3ec019b06p-1 ]

(* [bernoulli_at] consumes exactly the draw [bernoulli] would: on seed 42
   the four draws are the golden [unit_float]s above (0.814, 0.319, 0.984,
   0.703), and the word after them is the fifth golden word of seed 42. *)
let test_golden_bernoulli_at () =
  let rng = Rng.create ~seed:42 in
  let ps = [| 0.9; 0.3; 0.99; 0.7 |] in
  Alcotest.(check (list bool)) "bernoulli_at"
    [ true; false; true; false ]
    (List.init 4 (Rng.bernoulli_at rng ps));
  Alcotest.(check int64) "one draw each" 0xCB231C3874846A73L (Rng.bits64 rng)

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b);
  (* Advancing one does not affect the other. *)
  let _ = Rng.bits64 a in
  let a_next = Rng.bits64 a in
  let b_next = Rng.bits64 b in
  Alcotest.(check bool) "streams diverge after unequal draws" true
    (a_next <> b_next)

let test_split_changes_parent () =
  let a = Rng.create ~seed:3 in
  let reference = Rng.copy a in
  let _child = Rng.split a in
  Alcotest.(check bool) "split advances the parent" true
    (Rng.bits64 a <> Rng.bits64 reference)

let test_split_streams_differ () =
  let parent = Rng.create ~seed:3 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 c1 = Rng.bits64 c2 then incr same
  done;
  Alcotest.(check int) "children never collide on 64 draws" 0 !same

let test_unit_float_range () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let u = Rng.unit_float rng in
    if not (u >= 0. && u < 1.) then
      Alcotest.failf "unit_float out of range: %g" u
  done

let test_unit_float_mean () =
  let rng = Rng.create ~seed:11 in
  let sum = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.unit_float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds () =
  let rng = Rng.create ~seed:13 in
  List.iter
    (fun bound ->
       for _ = 1 to 1_000 do
         let v = Rng.int rng bound in
         if v < 0 || v >= bound then
           Alcotest.failf "int %d out of range: %d" bound v
       done)
    [ 1; 2; 3; 7; 10; 100; 1 lsl 30 ]

let test_int_uniform () =
  let rng = Rng.create ~seed:17 in
  let counts = Array.make 6 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let v = Rng.int rng 6 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun face c ->
       if abs (c - 10_000) > 500 then
         Alcotest.failf "face %d count %d too far from 10000" face c)
    counts

let test_int_range () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 1_000 do
    let v = Rng.int_range rng ~lo:(-5) ~hi:5 in
    if v < -5 || v > 5 then Alcotest.failf "int_range out of range: %d" v
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_range rng ~lo:3 ~hi:3)

let test_bernoulli_extremes () =
  let rng = Rng.create ~seed:23 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)
  done

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:29 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_exponential_mean () =
  let rng = Rng.create ~seed:31 in
  let sum = ref 0. in
  let n = 200_000 in
  for _ = 1 to n do
    let x = Rng.exponential rng ~mean:2.5 in
    if x < 0. then Alcotest.fail "negative exponential sample";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2.5" true (Float.abs (mean -. 2.5) < 0.05)

let test_geometric_mean () =
  let rng = Rng.create ~seed:37 in
  let sum = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Rng.geometric rng ~p:0.25 in
    if k < 1 then Alcotest.fail "geometric sample below 1";
    sum := !sum + k
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.) < 0.1)

let test_geometric_p1 () =
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 means one trial" 1 (Rng.geometric rng ~p:1.)
  done

let test_normal_moments () =
  let rng = Rng.create ~seed:43 in
  let stats = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add stats (Rng.normal rng ~mu:3. ~sigma:2.)
  done;
  Alcotest.(check bool) "mean near 3" true
    (Float.abs (Stats.mean stats -. 3.) < 0.05);
  Alcotest.(check bool) "stddev near 2" true
    (Float.abs (Stats.stddev stats -. 2.) < 0.05)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:47 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "not identity (overwhelming probability)" true
    (arr <> Array.init 100 Fun.id)

let test_pick () =
  let rng = Rng.create ~seed:53 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng arr in
    Alcotest.(check bool) "picked element member" true (Array.mem v arr)
  done

let test_invalid_args () =
  let rng = Rng.create ~seed:59 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "float nan-ish"
    (Invalid_argument "Rng.float: bound must be positive and finite") (fun () ->
        ignore (Rng.float rng 0.));
  Alcotest.check_raises "bernoulli 1.5"
    (Invalid_argument "Rng.bernoulli: p outside [0,1]") (fun () ->
        ignore (Rng.bernoulli rng 1.5));
  List.iter
    (fun p ->
       Alcotest.check_raises
         (Printf.sprintf "bernoulli_at %g" p)
         (Invalid_argument "Rng.bernoulli: p outside [0,1]") (fun () ->
           ignore (Rng.bernoulli_at rng [| 0.5; p |] 1)))
    [ 1.5; -0.1; Float.nan ];
  Alcotest.check_raises "geometric 0"
    (Invalid_argument "Rng.geometric: p outside (0,1]") (fun () ->
        ignore (Rng.geometric rng ~p:0.));
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]));
  Alcotest.check_raises "int_range inverted"
    (Invalid_argument "Rng.int_range: requires lo <= hi") (fun () ->
        ignore (Rng.int_range rng ~lo:2 ~hi:1))

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int always within bounds" ~count:1000
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
       let bound = bound + 1 in
       let rng = Rng.create ~seed in
       let v = Rng.int rng bound in
       v >= 0 && v < bound)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"float always within bounds" ~count:1000
    QCheck.(pair small_int (float_bound_exclusive 1000.))
    (fun (seed, bound) ->
       QCheck.assume (bound > 0.);
       let rng = Rng.create ~seed in
       let v = Rng.float rng bound in
       v >= 0. && v < bound)

let prop_bernoulli_at_is_bernoulli =
  QCheck.Test.make ~name:"bernoulli_at draws what bernoulli draws"
    ~count:1000
    QCheck.(pair int (float_bound_inclusive 1.))
    (fun (seed, p) ->
       let a = Rng.create ~seed in
       let b = Rng.copy a in
       let ps = [| Float.nan; p |] in
       Rng.bernoulli_at a ps 1 = Rng.bernoulli b p
       && Rng.bits64 a = Rng.bits64 b)

let prop_geometric_at_least_one =
  QCheck.Test.make ~name:"geometric >= 1" ~count:1000
    QCheck.(pair small_int (float_range 0.01 1.))
    (fun (seed, p) ->
       let rng = Rng.create ~seed in
       Rng.geometric rng ~p >= 1)

let () =
  Alcotest.run "rng"
    [ ( "determinism",
        [ Alcotest.test_case "same seed same stream" `Quick test_deterministic;
          Alcotest.test_case "different seeds differ" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy is independent" `Quick test_copy_independent ] );
      ( "golden",
        [ Alcotest.test_case "first outputs of seeds 0, 1, 42" `Quick
            test_golden_seeds;
          Alcotest.test_case "split and copy streams" `Quick
            test_golden_split_copy;
          Alcotest.test_case "unit_float" `Quick test_golden_unit_float;
          Alcotest.test_case "bernoulli_at" `Quick test_golden_bernoulli_at ] );
      ( "split",
        [ Alcotest.test_case "split advances parent" `Quick test_split_changes_parent;
          Alcotest.test_case "children differ" `Quick test_split_streams_differ ] );
      ( "distributions",
        [ Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
          Alcotest.test_case "unit_float mean" `Quick test_unit_float_mean;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_int_uniform;
          Alcotest.test_case "int_range" `Quick test_int_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "normal moments" `Quick test_normal_moments ] );
      ( "utilities",
        [ Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "pick member" `Quick test_pick;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_int_in_bounds; prop_float_in_bounds; prop_geometric_at_least_one;
            prop_bernoulli_at_is_bernoulli ]
      ) ]

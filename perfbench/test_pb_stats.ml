(* Tests of the helpers the benchmark's figures rest on. *)

let close = Alcotest.float 1e-9

let test_percentile () =
  let xs = List.init 101 float_of_int in
  Alcotest.check close "median" 50. (Pb_stats.median xs);
  Alcotest.check close "p90" 90. (Pb_stats.percentile xs 0.9);
  Alcotest.check close "interpolated" 2.5 (Pb_stats.percentile [ 1.; 2.; 3.; 4. ] 0.5);
  Alcotest.check close "order-free" 2.5 (Pb_stats.percentile [ 4.; 1.; 3.; 2. ] 0.5);
  Alcotest.(check bool) "empty" true (Float.is_nan (Pb_stats.percentile [] 0.5))

let test_beyond () =
  (* p90 of 100 samples has ten samples beyond it; of 90, fewer. *)
  Alcotest.(check int) "100 samples" 10 (Pb_stats.beyond (List.init 100 float_of_int) 0.9);
  Alcotest.(check int) "90 samples" 9 (Pb_stats.beyond (List.init 90 float_of_int) 0.9)

let record ?(leader = Some 3) ?(elected_at = 12.5) seed =
  { Pb_stats.seed; leader; elected_at; messages = 40; events = 900 }

let test_digest () =
  let d = Pb_stats.digest [ record 1; record 2 ] in
  Alcotest.(check string) "stable" d (Pb_stats.digest [ record 1; record 2 ]);
  Alcotest.(check bool) "order" true (d <> Pb_stats.digest [ record 2; record 1 ]);
  Alcotest.(check bool) "leader" true (d <> Pb_stats.digest [ record 1; record ~leader:None 2 ]);
  (* The last bit of elected_at is part of the digest. *)
  Alcotest.(check bool) "one ulp" true
    (d <> Pb_stats.digest [ record 1; record ~elected_at:(Float.succ 12.5) 2 ])

let status =
  "Name:\tperfbench.exe\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n"

let test_vmhwm () =
  Alcotest.(check (option close)) "VmHWM" (Some 200.) (Pb_stats.parse_vmhwm_mb status);
  Alcotest.(check (option close)) "missing" None (Pb_stats.parse_vmhwm_mb "VmRSS:\t 1 kB\n");
  Alcotest.(check bool) "own process" true (Pb_stats.peak_rss_mb () > 0.)

let test_pins () =
  let pins = Pb_stats.parse_pins "# comment\nsweep full abc\n\nreal-ring smoke def\n" in
  Alcotest.(check (list (pair (pair string string) string)))
    "entries"
    [ (("sweep", "full"), "abc"); (("real-ring", "smoke"), "def") ]
    pins

let () =
  Alcotest.run "perfbench"
    [ ( "pb_stats",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "samples beyond" `Quick test_beyond;
          Alcotest.test_case "outcome digest" `Quick test_digest;
          Alcotest.test_case "VmHWM parsing" `Quick test_vmhwm;
          Alcotest.test_case "pinned digests" `Quick test_pins ] ) ]

open Abe_prob
open Abe_net

(* The reference is the documented split and draw, written with raw
   [Rng.split] calls: one delay stream per link, then a (handler, clock)
   pair per node, then — only when lossy — one loss stream per link; a
   draw takes the delay first, then checks the link is up (no loss draw
   when down), then the loss Bernoulli. *)
type reference = {
  delay_rngs : Rng.t array;
  node_rngs : (Rng.t * Rng.t) array;
  loss_rngs : Rng.t array;
}

let reference ~seed ~links ~nodes ~lossy =
  let master = Rng.create ~seed in
  let delay_rngs = Array.init links (fun _ -> Rng.split master) in
  let node_rngs = Array.make nodes (master, master) in
  for id = 0 to nodes - 1 do
    let rng = Rng.split master in
    let clock = Rng.split master in
    node_rngs.(id) <- (rng, clock)
  done;
  let loss_rngs =
    if lossy then Array.init links (fun _ -> Rng.split master) else [||]
  in
  { delay_rngs; node_rngs; loss_rngs }

let reference_draw r model ~up ~link ~now ~loss =
  let delay = Delay_model.sample_at model ~now r.delay_rngs.(link) in
  let outcome =
    if not up then Link_model.Down
    else if loss > 0. && Rng.bernoulli r.loss_rngs.(link) loss then
      Link_model.Lost
    else Link_model.Arrive
  in
  (delay, outcome)

type op = Send of int * float | Toggle of int

type scenario = {
  seed : int;
  shape : string;
  n : int;
  loss : float;
  ops : op list;
}

let topology_of { shape; n; _ } =
  match shape with
  | "ring" -> Topology.ring n
  | "bidirectional_ring" -> Topology.bidirectional_ring n
  | "complete" -> Topology.complete n
  | _ -> Topology.star n

(* Links differ in their delay law; odd links carry a delay episode, so
   the send instant matters to the draw. *)
let model_of_link (link : Topology.link) =
  let base =
    if link.Topology.id mod 3 = 2 then
      Delay_model.abe_retransmission ~success:0.4 ~slot:0.5
    else
      Delay_model.abe_exponential
        ~delta:(1. +. float_of_int link.Topology.id)
  in
  if link.Topology.id mod 2 = 1 then
    Delay_model.modulated base
      ~episodes:[| { Delay_model.e_start = 2.; e_stop = 5.; factor = 3. } |]
  else base

let scenario_gen =
  let open QCheck.Gen in
  let* seed = int_bound 1_000_000 in
  let* shape =
    oneofl [ "ring"; "bidirectional_ring"; "complete"; "star" ]
  in
  let* n = int_range 2 7 in
  let* loss = oneof [ return 0.; float_bound_exclusive 1.; return 1. ] in
  let op =
    frequency
      [ (6, map2 (fun l dt -> Send (l, dt)) nat (float_bound_inclusive 1.5));
        (1, map (fun l -> Toggle l) nat) ]
  in
  let+ ops = list_size (int_range 1 80) op in
  { seed; shape; n; loss; ops }

let print_scenario { seed; shape; n; loss; ops } =
  Printf.sprintf "seed=%d %s n=%d loss=%g ops=[%s]" seed shape n loss
    (String.concat "; "
       (List.map
          (function
            | Send (l, dt) -> Printf.sprintf "send %d +%g" l dt
            | Toggle l -> Printf.sprintf "toggle %d" l)
          ops))

let outcome_name = function
  | Link_model.Arrive -> "arrive"
  | Link_model.Lost -> "lost"
  | Link_model.Down -> "down"

let prop_matches_reference =
  QCheck.Test.make ~name:"draws and node streams match the reference split"
    ~count:300
    (QCheck.make ~print:print_scenario scenario_gen)
    (fun ({ seed; loss; ops; _ } as sc) ->
       let topo = topology_of sc in
       let links = Topology.link_count topo
       and nodes = Topology.node_count topo in
       let lossy = loss > 0. in
       let lm, streams =
         match
           Link_model.create ~seed topo ~delay_of_link:model_of_link ~lossy
             ~node:(fun _ ~rng ~clock -> (rng, clock))
         with
         | Ok created -> created
         | Error msg -> QCheck.Test.fail_report msg
       in
       let r = reference ~seed ~links ~nodes ~lossy in
       let models = Array.map model_of_link (Topology.links topo) in
       let up = Array.make links true in
       let out = [| 0.; 0. |] in
       let now = ref 0. in
       List.iter
         (function
           | Toggle l ->
             let l = l mod links in
             up.(l) <- not up.(l);
             Link_model.set_up lm l up.(l)
           | Send (l, dt) ->
             let link = l mod links in
             now := !now +. dt;
             let delay, outcome =
               reference_draw r models.(link) ~up:up.(link) ~link ~now:!now
                 ~loss
             in
             let got = Link_model.draw lm ~link ~now:!now ~loss out in
             if
               got <> outcome
               || Int64.bits_of_float out.(1) <> Int64.bits_of_float delay
               || out.(0) <> !now +. delay
             then
               QCheck.Test.fail_reportf
                 "link %d at %g: got (%g, %s), reference (%g, %s)" link !now
                 out.(1) (outcome_name got) delay (outcome_name outcome))
         ops;
       Array.iteri
         (fun id (rng, clock) ->
            let ref_rng, ref_clock = r.node_rngs.(id) in
            for _ = 1 to 4 do
              if
                Rng.bits64 rng <> Rng.bits64 ref_rng
                || Rng.bits64 clock <> Rng.bits64 ref_clock
              then QCheck.Test.fail_reportf "node %d stream differs" id
            done)
         streams;
       true)

let test_invalid_model_rejected () =
  let topo = Topology.ring 4 in
  let bad =
    Delay_model.modulated (Delay_model.abe_exponential ~delta:1.)
      ~episodes:[| { Delay_model.e_start = 1.; e_stop = 2.; factor = -1. } |]
  in
  let nodes_built = ref 0 in
  match
    Link_model.create ~seed:1 topo
      ~delay_of_link:(fun l ->
          if l.Topology.id = 2 then bad
          else Delay_model.abe_exponential ~delta:1.)
      ~lossy:false
      ~node:(fun _ ~rng:_ ~clock:_ -> incr nodes_built)
  with
  | Ok _ -> Alcotest.fail "invalid delay model accepted"
  | Error msg ->
    Alcotest.(check bool) "names the link" true
      (String.length msg > 7 && String.sub msg 0 7 = "link 2:");
    Alcotest.(check int) "no stream split" 0 !nodes_built

let () =
  Alcotest.run "link_model"
    [ ( "link_model",
        [ QCheck_alcotest.to_alcotest prop_matches_reference;
          Alcotest.test_case "invalid model rejected" `Quick
            test_invalid_model_rejected ] ) ]

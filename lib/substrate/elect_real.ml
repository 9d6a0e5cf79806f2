open Abe_net
open Abe_core

type config = {
  n : int;
  a0 : float;
  params : Params.t;
  delay : Delay_model.t;
  loss_probability : float;
  scale : float;
  wall_timeout : float;
  spawn_mode : Cluster.spawn_mode;
}

let config ?a0 ?params ?delay ?(loss_probability = 0.) ?(scale = 0.005)
    ?(wall_timeout = 60.) ?(spawn_mode = Cluster.Domains) ~n () =
  let { Runner.a0; params; delay; _ } =
    Runner.config ?a0 ?params ?delay ~n ()
  in
  if params.Params.gamma > 0. then
    invalid_arg
      "Elect_real.config: the real backend does not emulate processing time \
       (gamma must be 0)";
  { n; a0; params; delay; loss_probability; scale; wall_timeout; spawn_mode }

type outcome = {
  elected : bool;
  leader : int option;
  elected_at : float;
  messages : int;
  activations : int;
  ticks : int;
  delivered : int;
  lost : int;
  wall_time : float;
  stats_missing : int;
  fidelity : Telemetry.Fidelity.summary;
}

(* The wire payload is Runner's packed token as one big-endian int64. *)
module Ring = struct
  type state = Election.state
  type message = Runner.token

  let encode_message tok =
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 (Int64.of_int tok);
    Bytes.unsafe_to_string b

  let decode_message s =
    if String.length s <> 8 then None
    else Some (Int64.to_int (String.get_int64_be s 0))
end

module C = Cluster.Make (Ring)

let run ?metrics ?telemetry ?snapshots ~seed config =
  let cluster_config =
    { Cluster.topology = Topology.ring config.n;
      delay_of_link = (fun _ -> config.delay);
      loss_probability = config.loss_probability;
      clock_spec = config.params.Params.clock;
      scale = config.scale;
      wall_timeout = config.wall_timeout;
      spawn_mode = config.spawn_mode }
  in
  (* Runner's coin, every entry filled before the workers spawn: the
     workers share it and only read it. *)
  let coin = Election.coin ~a0:config.a0 ~n:config.n in
  for d = 1 to config.n do
    ignore (Election.coin_probability coin ~d)
  done;
  let handlers =
    { C.init = (fun _ctx -> Election.initial);
      on_tick =
        (fun ctx st ->
           if not (Election.coin_activates coin ~rng:ctx.C.rng st) then st
           else begin
             ctx.C.mark ();
             ctx.C.note "activate";
             (* A fresh token starts with hop counter 1 and will have
                traversed exactly one link on first arrival. *)
             ctx.C.send 0 (Runner.token ~hop:1 ~traversed:1);
             { st with Election.phase = Election.Active }
           end);
      on_message =
        (fun ctx st tok ->
           let hop = Runner.hop tok and traversed = Runner.traversed tok in
           if hop <> traversed then
             failwith
               (Printf.sprintf
                  "hop-soundness violated: token hop %d but traversed %d links"
                  hop traversed);
           let st', reaction = Election.receive ~n:config.n st hop in
           (* Phase-transition marks mirror Runner's exactly, so a merged
              real trace carries the same annotations as a sim trace. *)
           (match reaction with
            | Election.Forward hop' ->
              if st.Election.phase = Election.Idle then ctx.C.note "knockout";
              ctx.C.send 0 (Runner.token ~hop:hop' ~traversed:(traversed + 1))
            | Election.Purge -> ctx.C.note "purge"
            | Election.Elected ->
              ctx.C.note "elected";
              ctx.C.stop ());
           st') }
  in
  match C.run ?metrics ?telemetry ?snapshots ~seed cluster_config handlers with
  | Error _ as e -> e
  | Ok o ->
    (match o.Cluster.worker_failure with
     | Some msg -> Error ("worker failed: " ^ msg)
     | None ->
       let messages =
         if o.Cluster.stats_missing = 0 then
           Array.fold_left ( + ) 0 o.Cluster.node_sent
         else o.Cluster.sent
       in
       Ok
         { elected = o.Cluster.stopped;
           leader = o.Cluster.stopper;
           elected_at = o.Cluster.stopped_at;
           messages;
           activations = o.Cluster.aux;
           ticks = o.Cluster.ticks;
           delivered = o.Cluster.delivered;
           lost = o.Cluster.lost;
           wall_time = o.Cluster.wall_time;
           stats_missing = o.Cluster.stats_missing;
           fidelity = o.Cluster.fidelity })

let pp_outcome ppf o =
  Fmt.pf ppf
    "elected=%b leader=%a time=%.3f messages=%d activations=%d ticks=%d \
     wall=%.3fs"
    o.elected
    Fmt.(option ~none:(any "-") int)
    o.leader o.elected_at o.messages o.activations o.ticks o.wall_time

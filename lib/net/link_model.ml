open Abe_prob

type t = {
  delays : Delay_model.t array;  (* by link id *)
  delay_rngs : Rng.t array;      (* by link id *)
  loss_rngs : Rng.t array;       (* by link id; [||] when not lossy *)
  up : bool array;               (* by link id *)
}

type outcome = Arrive | Lost | Down

(* Validation is per-model, not per-link: configs overwhelmingly return
   one shared model (or a handful) for every link, so remembering the last
   physically-distinct model validated collapses the pass from O(links)
   validations to O(distinct models) on uniform networks. *)
let validate delays =
  let last = ref None and error = ref None in
  Array.iteri
    (fun i model ->
       let seen = match !last with Some prev -> prev == model | None -> false in
       if !error = None && not seen then begin
         (try Delay_model.validate model
          with Invalid_argument msg ->
            error := Some (Printf.sprintf "link %d: %s" i msg));
         last := Some model
       end)
    delays;
  !error

let create ~seed topology ~delay_of_link ~lossy ~node =
  let delays = Array.map delay_of_link (Topology.links topology) in
  match validate delays with
  | Some msg -> Error msg
  | None ->
    let links = Array.length delays in
    let master = Rng.create ~seed in
    let delay_rngs = Array.init links (fun _ -> Rng.split master) in
    let nodes =
      Array.init (Topology.node_count topology) (fun id ->
          let rng = Rng.split master in
          let clock = Rng.split master in
          node id ~rng ~clock)
    in
    let loss_rngs =
      if lossy then Array.init links (fun _ -> Rng.split master) else [||]
    in
    Ok ({ delays; delay_rngs; loss_rngs; up = Array.make links true }, nodes)

let draw t ~link ~now ~loss out =
  let delay = Delay_model.sample_at t.delays.(link) ~now t.delay_rngs.(link) in
  out.(0) <- now +. delay;
  out.(1) <- delay;
  if not t.up.(link) then Down
  else if loss > 0. && Rng.bernoulli t.loss_rngs.(link) loss then Lost
  else Arrive

let is_up t link = t.up.(link)
let set_up t link up = t.up.(link) <- up

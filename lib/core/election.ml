type phase = Idle | Active | Passive | Leader

type state = {
  phase : phase;
  d : int;
}

type message = int

type reaction =
  | Forward of message
  | Purge
  | Elected

let initial = { phase = Idle; d = 1 }

let activation_probability ~a0 ~d =
  if not (a0 > 0. && a0 < 1.) then
    invalid_arg "Election.activation_probability: a0 outside (0,1)";
  if d < 1 then invalid_arg "Election.activation_probability: d must be >= 1";
  1. -. ((1. -. a0) ** float_of_int d)

(* Entries are [-1.] until their [d] is first drawn at. *)
type coin = {
  coin_a0 : float;
  probs : float array;
}

let coin ~a0 ~n = { coin_a0 = a0; probs = Array.make (n + 1) (-1.) }

let[@inline] fill coin d =
  if coin.probs.(d) < 0. then
    coin.probs.(d) <- activation_probability ~a0:coin.coin_a0 ~d

let coin_probability coin ~d =
  fill coin d;
  coin.probs.(d)

let coin_activates coin ~rng state =
  match state.phase with
  | Active | Passive | Leader -> false
  | Idle ->
    fill coin state.d;
    Abe_prob.Rng.bernoulli_at rng coin.probs state.d

let tick_decision ~a0 ~rng state =
  match state.phase with
  | Active | Passive | Leader -> (state, false)
  | Idle ->
    if Abe_prob.Rng.bernoulli rng (activation_probability ~a0 ~d:state.d) then
      ({ state with phase = Active }, true)
    else (state, false)

let receive ~n state hop =
  if n < 2 then invalid_arg "Election.receive: n must be >= 2";
  if hop < 1 || hop > n then
    invalid_arg (Printf.sprintf "Election.receive: hop %d outside [1,%d]" hop n);
  (* [d] only boosts the activation probability; the forwarded counter is
     [hop + 1], the true link count.  Forwarding [d + 1] (an earlier bug)
     let a stale watermark inflate a token's hop count past the links it
     had traversed — a path to a false leader. *)
  let state = { state with d = max state.d hop } in
  match state.phase with
  | Idle ->
    if hop = n then
      (* An orphan token that circumnavigated without meeting an active
         node (its origin has since been knocked out and re-idled).  It
         carries no further information — [d] is already raised to [n] —
         and forwarding would push the counter past [n], so purge.  The
         node stays idle: with the origin idle too, someone must still be
         able to activate. *)
      (state, Purge)
    else ({ state with phase = Passive }, Forward (hop + 1))
  | Passive ->
    if hop = n then (state, Purge) else (state, Forward (hop + 1))
  | Active ->
    if hop = n then ({ state with phase = Leader }, Elected)
    else ({ state with phase = Idle }, Purge)
  | Leader ->
    (* A leader never receives in a well-formed run: its own token was the
       last message on the ring.  Treat defensively as a purge. *)
    (state, Purge)

let pp_phase ppf = function
  | Idle -> Format.pp_print_string ppf "idle"
  | Active -> Format.pp_print_string ppf "active"
  | Passive -> Format.pp_print_string ppf "passive"
  | Leader -> Format.pp_print_string ppf "leader"

let pp_state ppf s = Fmt.pf ppf "%a(d=%d)" pp_phase s.phase s.d

let pp_message ppf hop = Fmt.pf ppf "<%d>" hop

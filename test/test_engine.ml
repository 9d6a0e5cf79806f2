open Abe_sim

let test_runs_in_time_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule engine ~delay:3. (record "c"));
  ignore (Engine.schedule engine ~delay:1. (record "a"));
  ignore (Engine.schedule engine ~delay:2. (record "b"));
  Alcotest.(check bool) "drained" true (Engine.run engine = Engine.Drained);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_equal_times_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule engine ~delay:1. (fun () -> log := i :: !log))
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "scheduling order" (List.init 10 Fun.id)
    (List.rev !log)

let test_clock_advances () =
  let engine = Engine.create () in
  let seen = ref [] in
  ignore
    (Engine.schedule engine ~delay:2. (fun () ->
         seen := Engine.now engine :: !seen;
         ignore
           (Engine.schedule engine ~delay:3. (fun () ->
                seen := Engine.now engine :: !seen))));
  ignore (Engine.run engine);
  Alcotest.(check (list (float 1e-9))) "times" [ 2.; 5. ] (List.rev !seen)

let test_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule engine ~delay:1. (fun () -> fired := true) in
  Engine.cancel engine id;
  Alcotest.(check bool) "drained" true (Engine.run engine = Engine.Drained);
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "no events executed" 0 (Engine.executed_events engine)

let test_cancel_twice_harmless () =
  let engine = Engine.create () in
  let id = Engine.schedule engine ~delay:1. (fun () -> ()) in
  Engine.cancel engine id;
  Engine.cancel engine id;
  Alcotest.(check int) "pending" 0 (Engine.pending_events engine)

let test_stop_and_resume () =
  let engine = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Engine.schedule engine ~delay:1. (fun () ->
           incr count;
           if !count = 2 then Engine.stop engine))
  done;
  Alcotest.(check bool) "stopped" true (Engine.run engine = Engine.Stopped);
  Alcotest.(check int) "two executed" 2 !count;
  Alcotest.(check bool) "resume drains" true (Engine.run engine = Engine.Drained);
  Alcotest.(check int) "all executed" 5 !count

let test_event_limit () =
  let engine = Engine.create ~limit_events:3 () in
  let count = ref 0 in
  let rec reschedule () =
    incr count;
    ignore (Engine.schedule engine ~delay:1. reschedule)
  in
  ignore (Engine.schedule engine ~delay:1. reschedule);
  Alcotest.(check bool) "hit limit" true
    (Engine.run engine = Engine.Hit_event_limit);
  Alcotest.(check int) "exactly 3" 3 !count

let test_time_limit () =
  let engine = Engine.create ~limit_time:10. () in
  let reached = ref [] in
  List.iter
    (fun delay ->
       ignore
         (Engine.schedule engine ~delay (fun () ->
              reached := delay :: !reached)))
    [ 5.; 15.; 8. ];
  Alcotest.(check bool) "hit time limit" true
    (Engine.run engine = Engine.Hit_time_limit);
  Alcotest.(check (list (float 1e-9))) "only early events" [ 5.; 8. ]
    (List.rev !reached);
  (* The over-limit event is preserved, not lost. *)
  Alcotest.(check int) "still pending" 1 (Engine.pending_events engine)

let test_time_limit_resume_keeps_fifo () =
  (* Regression: hitting the time budget pops the earliest over-limit event
     and puts it back.  It must go back under its original sequence number —
     a fresh one would demote it behind same-time peers scheduled after it,
     silently reordering deliveries on resume. *)
  let engine = Engine.create ~limit_time:10. () in
  let log = ref [] in
  ignore (Engine.schedule engine ~delay:5. (fun () -> log := "early" :: !log));
  ignore (Engine.schedule engine ~delay:15. (fun () -> log := "a" :: !log));
  ignore (Engine.schedule engine ~delay:15. (fun () -> log := "b" :: !log));
  Alcotest.(check bool) "hit limit" true
    (Engine.run engine = Engine.Hit_time_limit);
  Alcotest.(check int) "both over-limit events preserved" 2
    (Engine.pending_events engine);
  (* A second resume re-pops and re-queues the same event once more. *)
  Alcotest.(check bool) "still over limit" true
    (Engine.run engine = Engine.Hit_time_limit);
  (* [step] ignores the time budget: drain the deferred events and check
     they still fire in scheduling order. *)
  ignore (Engine.step engine);
  ignore (Engine.step engine);
  Alcotest.(check (list string)) "scheduling order survives resume"
    [ "early"; "a"; "b" ] (List.rev !log)

let test_cancel_after_execution_harmless () =
  (* Regression: cancelling an event that already ran must be a no-op.  An
     earlier representation marked the entry cancelled anyway, corrupting
     the pending-event count. *)
  let engine = Engine.create () in
  let id = Engine.schedule engine ~delay:1. (fun () -> ()) in
  ignore (Engine.run engine);
  Engine.cancel engine id;
  Alcotest.(check int) "pending uncorrupted" 0 (Engine.pending_events engine);
  Alcotest.(check int) "executed uncorrupted" 1 (Engine.executed_events engine);
  let fired = ref false in
  ignore (Engine.schedule engine ~delay:1. (fun () -> fired := true));
  Alcotest.(check int) "new event pending" 1 (Engine.pending_events engine);
  Alcotest.(check bool) "drains" true (Engine.run engine = Engine.Drained);
  Alcotest.(check bool) "new event fired" true !fired

let test_stale_handle_misses_recycled_slot () =
  (* The executed event's arena slot is recycled for the next schedule; the
     stale handle's generation no longer matches, so cancelling it must not
     touch the new occupant. *)
  let engine = Engine.create () in
  let stale = Engine.schedule engine ~delay:1. (fun () -> ()) in
  ignore (Engine.run engine);
  let fired = ref false in
  ignore (Engine.schedule engine ~delay:1. (fun () -> fired := true));
  Engine.cancel engine stale;
  Alcotest.(check int) "occupant still pending" 1
    (Engine.pending_events engine);
  ignore (Engine.run engine);
  Alcotest.(check bool) "occupant fired" true !fired

(* Builds the action in a helper so the test body holds no reference to the
   payload: after execution only the arena could keep it alive. *)
let weak_action w =
  let payload = Bytes.create 4096 in
  Weak.set w 0 (Some payload);
  fun () -> ignore (Bytes.length payload)

let test_executed_action_released () =
  (* Executing an event nulls its action slot, so the closure — and any
     message payload it captures — must be collectable immediately, not
     pinned until the slot happens to be recycled. *)
  let engine = Engine.create () in
  let w = Weak.create 1 in
  ignore (Engine.schedule engine ~delay:1. (weak_action w));
  ignore (Engine.run engine);
  Gc.full_major ();
  Alcotest.(check bool) "payload collected" false (Weak.check w 0)

let test_schedule_at () =
  let engine = Engine.create () in
  let at = ref 0. in
  ignore (Engine.schedule_at engine ~time:7.5 (fun () -> at := Engine.now engine));
  ignore (Engine.run engine);
  Alcotest.(check (float 1e-9)) "absolute time" 7.5 !at

let test_schedule_in_past_rejected () =
  let engine = Engine.create () in
  ignore
    (Engine.schedule engine ~delay:5. (fun () ->
         match Engine.schedule_at engine ~time:1. (fun () -> ()) with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected rejection of past time"));
  ignore (Engine.run engine)

(* [schedule_tagged] reads the time from the caller's array slot at call
   time: the slot can be reused at once, and an event scheduled through it
   runs in the same (time, seq) order as one from [schedule_at]. *)
let test_schedule_tagged () =
  let engine = Engine.create () in
  let times = [| 0.; 4.; 0. |] in
  let log = ref [] in
  let note label () = log := (label, Engine.now engine) :: !log in
  ignore (Engine.schedule_tagged engine ~tag:0 ~footprint:0 times 1 (note "a"));
  times.(1) <- 2.;
  ignore (Engine.schedule_tagged engine ~tag:1 ~footprint:0 times 1 (note "b"));
  ignore (Engine.schedule_at engine ~time:2. (note "c"));
  ignore (Engine.run engine);
  Alcotest.(check (list (pair string (float 0.))))
    "order and times"
    [ ("b", 2.); ("c", 2.); ("a", 4.) ]
    (List.rev !log);
  times.(2) <- 1.;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time must be >= now") (fun () ->
      ignore (Engine.schedule_tagged engine ~tag:0 ~footprint:0 times 2 ignore))

let test_negative_delay_rejected () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: delay must be non-negative and finite")
    (fun () -> ignore (Engine.schedule engine ~delay:(-1.) (fun () -> ())))

let test_step () =
  let engine = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule engine ~delay:1. (fun () -> incr count));
  ignore (Engine.schedule engine ~delay:2. (fun () -> incr count));
  Alcotest.(check bool) "step one" true (Engine.step engine);
  Alcotest.(check int) "one executed" 1 !count;
  Alcotest.(check bool) "step two" true (Engine.step engine);
  Alcotest.(check bool) "nothing left" false (Engine.step engine)

let test_zero_delay_runs_now () =
  let engine = Engine.create () in
  let order = ref [] in
  ignore
    (Engine.schedule engine ~delay:1. (fun () ->
         order := "outer" :: !order;
         ignore
           (Engine.schedule engine ~delay:0. (fun () ->
                order := "inner" :: !order))));
  ignore (Engine.schedule engine ~delay:2. (fun () -> order := "later" :: !order));
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "inner before later"
    [ "outer"; "inner"; "later" ] (List.rev !order)

let test_pending_count () =
  let engine = Engine.create () in
  let a = Engine.schedule engine ~delay:1. (fun () -> ()) in
  let _ = Engine.schedule engine ~delay:2. (fun () -> ()) in
  Alcotest.(check int) "two pending" 2 (Engine.pending_events engine);
  Engine.cancel engine a;
  Alcotest.(check int) "one pending" 1 (Engine.pending_events engine);
  ignore (Engine.run engine);
  Alcotest.(check int) "none pending" 0 (Engine.pending_events engine)

let test_counters_zero_on_fresh () =
  let c = Engine.counters (Engine.create ()) in
  Alcotest.(check int) "no events" 0 c.Engine.executed;
  Alcotest.(check int) "no depth" 0 c.Engine.max_queue_depth;
  Alcotest.(check (float 0.)) "no wall time" 0. c.Engine.wall_time

let test_counters_track_run () =
  let engine = Engine.create () in
  for _ = 1 to 4 do
    ignore (Engine.schedule engine ~delay:1. (fun () -> ()))
  done;
  Alcotest.(check int) "depth before run" 4 (Engine.max_queue_depth engine);
  ignore (Engine.run engine);
  let c = Engine.counters engine in
  Alcotest.(check int) "executed" 4 c.Engine.executed;
  Alcotest.(check int) "high-water mark survives drain" 4 c.Engine.max_queue_depth;
  Alcotest.(check bool) "wall time non-negative" true (c.Engine.wall_time >= 0.);
  (* A later, shallower burst must not lower the high-water mark. *)
  ignore (Engine.schedule engine ~delay:1. (fun () -> ()));
  ignore (Engine.run engine);
  Alcotest.(check int) "mark is monotone" 4 (Engine.max_queue_depth engine)

let test_counters_monotone_across_runs () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~delay:1. (fun () -> ()));
  ignore (Engine.run engine);
  let c1 = Engine.counters engine in
  ignore (Engine.schedule engine ~delay:1. (fun () -> ()));
  ignore (Engine.run engine);
  let c2 = Engine.counters engine in
  Alcotest.(check bool) "executed grows" true (c2.Engine.executed > c1.Engine.executed);
  Alcotest.(check bool) "wall time accumulates" true
    (c2.Engine.wall_time >= c1.Engine.wall_time);
  Alcotest.(check bool) "depth never shrinks" true
    (c2.Engine.max_queue_depth >= c1.Engine.max_queue_depth)

let test_counters_stable_across_time_limit_resume () =
  let engine = Engine.create ~limit_time:10. () in
  List.iter
    (fun delay -> ignore (Engine.schedule engine ~delay (fun () -> ())))
    [ 5.; 15.; 8. ];
  Alcotest.(check bool) "hit limit" true (Engine.run engine = Engine.Hit_time_limit);
  let c1 = Engine.counters engine in
  Alcotest.(check int) "two executed" 2 c1.Engine.executed;
  Alcotest.(check int) "depth counts all three" 3 c1.Engine.max_queue_depth;
  (* Resuming re-pops and re-queues the over-limit event: executed and the
     high-water mark must not move. *)
  Alcotest.(check bool) "still over limit" true
    (Engine.run engine = Engine.Hit_time_limit);
  let c2 = Engine.counters engine in
  Alcotest.(check int) "executed stable" c1.Engine.executed c2.Engine.executed;
  Alcotest.(check int) "depth stable" c1.Engine.max_queue_depth
    c2.Engine.max_queue_depth;
  Alcotest.(check bool) "wall time still monotone" true
    (c2.Engine.wall_time >= c1.Engine.wall_time);
  Alcotest.(check int) "event preserved" 1 (Engine.pending_events engine)

let test_counters_ignore_cancelled () =
  let engine = Engine.create () in
  let a = Engine.schedule engine ~delay:1. (fun () -> ()) in
  let _ = Engine.schedule engine ~delay:2. (fun () -> ()) in
  Engine.cancel engine a;
  ignore (Engine.run engine);
  let c = Engine.counters engine in
  Alcotest.(check int) "only live event executed" 1 c.Engine.executed;
  Alcotest.(check int) "depth counted both while live" 2 c.Engine.max_queue_depth

let prop_many_events_ordered =
  QCheck.Test.make ~name:"random schedules execute in order" ~count:200
    QCheck.(list (float_range 0. 100.))
    (fun delays ->
       let engine = Engine.create () in
       let times = ref [] in
       List.iter
         (fun delay ->
            ignore
              (Engine.schedule engine ~delay (fun () ->
                   times := Engine.now engine :: !times)))
         delays;
       ignore (Engine.run engine);
       let executed = List.rev !times in
       executed = List.sort Float.compare delays)

let test_wall_deadline_stops_run () =
  (* A self-perpetuating event chain: without the wall deadline this run
     never drains. *)
  let deadline = Unix.gettimeofday () +. 0.05 in
  let engine = Engine.create ~wall_deadline:deadline () in
  let rec perpetuate () =
    ignore (Engine.schedule engine ~delay:1. perpetuate)
  in
  perpetuate ();
  let outcome = Engine.run engine in
  let overshoot = Unix.gettimeofday () -. deadline in
  Alcotest.(check bool) "hit wall deadline" true
    (outcome = Engine.Hit_wall_deadline);
  (* Liveness backstop only: the run must terminate near the deadline
     rather than spin forever.  The bound is measured from the deadline
     itself and is deliberately generous — the deadline is probed every
     1024 trivial events, so the true overshoot is microseconds, but a
     loaded host can deschedule this process for whole seconds and a tight
     wall bound here would flake. *)
  Alcotest.(check bool) "overshoot bounded" true (overshoot < 10.);
  Alcotest.(check bool) "made progress first" true
    (Engine.executed_events engine > 0)

let test_wall_deadline_past_exits_promptly () =
  let engine = Engine.create ~wall_deadline:(Unix.gettimeofday () -. 1.) () in
  let rec perpetuate () =
    ignore (Engine.schedule engine ~delay:1. perpetuate)
  in
  perpetuate ();
  let outcome = Engine.run engine in
  Alcotest.(check bool) "hit wall deadline" true
    (outcome = Engine.Hit_wall_deadline);
  (* An already-expired deadline is noticed within one probe interval. *)
  Alcotest.(check bool) "at most one probe interval of events" true
    (Engine.executed_events engine <= 1025)

(* Order model: random programs run on the engine and on a reference
   queue that is a plain list scanned for the least [(time, seq)].  The two
   must execute the same events at the same instants and answer every
   [run]/[step] the same way.  The programs schedule at delay 0 (the
   same-instant lane), at positive delays and at shared absolute times
   from inside other events, run periodic chains at distinct phases (the
   engine's run queue), insert below, at and just under the run's tail
   (direct heap inserts and tail evictions), cancel live and stale
   handles, stop, and hit both budgets; each is driven through [run] and
   [step], on the fast loop, the instrumented loop and a window-0
   scheduler that always picks the earliest candidate.  An event may also
   end by claiming its successor ([Engine.claim_now]) and running it
   inline; the model claims exactly when the engine must: inside a
   fast-loop [run], with no pending event due now, [stop] not requested
   and the event budget not spent. *)

type op =
  | Delay of float * int  (* schedule program [p] after [delay] *)
  | At of float * int     (* schedule program [p] at [max now time] *)
  | Again of float        (* schedule this event's program after [delay] *)
  | Cancel of int         (* cancel the [k mod handles so far]-th newest
                             handle *)
  | Stop
  | Now of int            (* as an event's last op: claim program [p] and
                             run it inline, else schedule it at delay 0 *)

type drive = Run | Step

type mode = Fast | Observed | Scheduled

type program = {
  bodies : op list array;  (* what an event of program [p] does *)
  initial : op list;       (* done before the first [run] or [step] *)
  drives : drive list;     (* cycled until nothing is pending *)
  limit_events : int;
  limit_time : float;
  mode : mode;
}

(* What the interpreter needs from either queue. *)
type 'h backend = {
  now : unit -> float;
  after : float -> (unit -> unit) -> 'h;
  at : float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  stop : unit -> unit;
  claim : unit -> bool;
  run : unit -> string;
  step : unit -> bool;
  pending : unit -> int;
  executed : unit -> int;
  max_depth : unit -> int;
}

(* Enough to exercise every path, and a bound that keeps programs finite. *)
let max_spawned = 120

let execute_program prog be =
  let log = ref [] in
  let handles = Hashtbl.create 64 in
  let spawned = ref 0 in
  let rec exec self = function
    | [] -> ()
    | [ Now p ] ->
      (* A claimed event runs inline as its claimer's last act.  Claims
         are logged: refusing one the model grants would change nothing
         else, by design. *)
      spawn p (fun act ->
          if be.claim () then begin
            log := "claimed" :: !log;
            act ();
            None
          end
          else Some (be.after 0. act))
    | o :: rest ->
      op self o;
      exec self rest
  and op self = function
    | Delay (delay, p) -> spawn p (fun act -> Some (be.after delay act))
    | At (time, p) ->
      spawn p (fun act -> Some (be.at (Float.max (be.now ()) time) act))
    | Again delay -> spawn self (fun act -> Some (be.after delay act))
    | Now p -> spawn p (fun act -> Some (be.after 0. act))
    | Cancel k ->
      (* A claimed event has no handle: it already ran. *)
      if !spawned > 0 then
        Option.iter be.cancel
          (Hashtbl.find_opt handles (!spawned - 1 - (k mod !spawned)))
    | Stop -> be.stop ()
  and spawn p schedule =
    if !spawned < max_spawned then begin
      let id = !spawned in
      incr spawned;
      let action () =
        log := Printf.sprintf "event %d at %g" id (be.now ()) :: !log;
        exec p prog.bodies.(p)
      in
      Option.iter (Hashtbl.replace handles id) (schedule action)
    end
  in
  exec 0 prog.initial;
  let drives = Array.of_list prog.drives in
  let rec drive i =
    if be.pending () > 0 && i < 20 * max_spawned then begin
      let result =
        match drives.(i mod Array.length drives) with
        | Run -> "run " ^ be.run ()
        | Step -> Printf.sprintf "step %b" (be.step ())
      in
      log := Printf.sprintf "%s, %d pending" result (be.pending ()) :: !log;
      drive (i + 1)
    end
  in
  drive 0;
  List.rev
    (Printf.sprintf "executed %d, max depth %d" (be.executed ())
       (be.max_depth ())
     :: !log)

let string_of_outcome = function
  | Engine.Drained -> "drained"
  | Engine.Stopped -> "stopped"
  | Engine.Hit_time_limit -> "time limit"
  | Engine.Hit_event_limit -> "event limit"
  | Engine.Hit_wall_deadline -> "wall deadline"

let on_engine prog =
  let scheduler =
    match prog.mode with
    | Scheduled ->
      Some
        { Engine.window = 0.;
          choose = (fun ~now:_ ~state_digest:_ _ -> 0) }
    | Fast | Observed -> None
  in
  (* A metrics registry forces the instrumented loop. *)
  let metrics =
    if prog.mode = Observed then Some (Metrics.create ()) else None
  in
  let e =
    Engine.create ?metrics ?scheduler ~limit_events:prog.limit_events
      ~limit_time:prog.limit_time ()
  in
  execute_program prog
    { now = (fun () -> Engine.now e);
      after = (fun delay act -> Engine.schedule e ~delay act);
      at = (fun time act -> Engine.schedule_at e ~time act);
      cancel = Engine.cancel e;
      stop = (fun () -> Engine.stop e);
      claim = (fun () -> Engine.claim_now e);
      run = (fun () -> string_of_outcome (Engine.run e));
      step = (fun () -> Engine.step e);
      pending = (fun () -> Engine.pending_events e);
      executed = (fun () -> Engine.executed_events e);
      max_depth = (fun () -> Engine.max_queue_depth e) }

(* The reference: every pending event in one list, the next one found by a
   linear scan for the least (time, seq).  Handles are sequence numbers. *)
type entry = { e_time : float; e_seq : int; e_action : unit -> unit }

let on_model prog =
  let clock = ref 0. and seq = ref 0 and pending = ref [] in
  let stop_requested = ref false and executed = ref 0 in
  let max_depth = ref 0 and in_fast_run = ref false in
  let raise_depth depth = if depth > !max_depth then max_depth := depth in
  let add time action =
    let s = !seq in
    incr seq;
    pending := { e_time = time; e_seq = s; e_action = action } :: !pending;
    raise_depth (List.length !pending);
    s
  in
  (* An event scheduled now would be the least (time, seq) exactly when no
     pending event is due now; the run's loop would then execute it next
     unless [stop] or the event budget ends the run first. *)
  let claim () =
    !in_fast_run && (not !stop_requested) && !executed < prog.limit_events
    && not (List.exists (fun e -> e.e_time = !clock) !pending)
    && begin
      incr seq;
      incr executed;
      raise_depth (List.length !pending + 1);
      true
    end
  in
  let first () =
    List.fold_left
      (fun best e ->
         match best with
         | Some b when (b.e_time, b.e_seq) <= (e.e_time, e.e_seq) -> best
         | _ -> Some e)
      None !pending
  in
  let fire e =
    pending := List.filter (fun x -> x.e_seq <> e.e_seq) !pending;
    clock := e.e_time;
    incr executed;
    e.e_action ()
  in
  let rec run () =
    if !stop_requested then "stopped"
    else if !executed >= prog.limit_events then "event limit"
    else
      match first () with
      | None -> "drained"
      | Some e when e.e_time > prog.limit_time -> "time limit"
      | Some e ->
        fire e;
        run ()
  in
  execute_program prog
    { now = (fun () -> !clock);
      after = (fun delay act -> add (!clock +. delay) act);
      at = add;
      cancel =
        (fun s -> pending := List.filter (fun x -> x.e_seq <> s) !pending);
      stop = (fun () -> stop_requested := true);
      claim;
      run =
        (fun () ->
           stop_requested := false;
           in_fast_run := prog.mode = Fast;
           let outcome = run () in
           in_fast_run := false;
           outcome);
      step =
        (fun () ->
           match first () with
           | None -> false
           | Some e ->
             fire e;
             true);
      pending = (fun () -> List.length !pending);
      executed = (fun () -> !executed);
      max_depth = (fun () -> !max_depth) }

(* Times on a quarter grid, so inserts often land exactly at the run's
   tail or at the entry before it; [Again] makes periodic chains, and
   initial [Delay]s start them at distinct phases. *)
let gen_program =
  let open QCheck.Gen in
  let* n_bodies = int_range 1 6 in
  let gen_op =
    frequency
      [ (4, map2 (fun d p -> Delay (d, p))
             (oneofl [ 0.; 0.; 0.25; 0.5; 0.75; 1.; 1.25; 2. ])
             (int_bound (n_bodies - 1)));
        (2, map2 (fun t p -> At (t, p))
             (oneofl [ 0.; 1.; 1.25; 2.; 2.5; 3. ])
             (int_bound (n_bodies - 1)));
        (3, map (fun d -> Again d) (oneofl [ 1.; 1.; 0.75; 2. ]));
        (1, map (fun k -> Cancel k)
             (frequency [ (1, int_bound 2); (1, int_bound 120) ]));
        (1, return Stop);
        (3, map (fun p -> Now p) (int_bound (n_bodies - 1))) ]
  in
  let* bodies = array_size (return n_bodies) (list_size (int_bound 4) gen_op) in
  let* initial = list_size (int_range 1 8) gen_op in
  let* drives = list_size (int_bound 4) (oneofl [ Run; Step ]) in
  let* limit_events =
    frequency [ (2, return max_int); (1, int_range 1 60) ]
  in
  let* limit_time = oneofl [ infinity; 1.5; 2.25; 3. ] in
  let+ mode = oneofl [ Fast; Observed; Scheduled ] in
  { bodies; initial; drives = drives @ [ Step ]; limit_events; limit_time;
    mode }

let print_program prog =
  let op = function
    | Delay (d, p) -> Printf.sprintf "after %g: p%d" d p
    | At (t, p) -> Printf.sprintf "at %g: p%d" t p
    | Again d -> Printf.sprintf "again after %g" d
    | Cancel k -> Printf.sprintf "cancel h%d" k
    | Stop -> "stop"
    | Now p -> Printf.sprintf "now: p%d" p
  in
  let ops l = "[" ^ String.concat "; " (List.map op l) ^ "]" in
  Printf.sprintf "mode %s, limit_events %d, limit_time %g, drives [%s]\ninitial %s\n%s"
    (match prog.mode with
     | Fast -> "fast" | Observed -> "observed" | Scheduled -> "scheduled")
    prog.limit_events prog.limit_time
    (String.concat "; "
       (List.map (function Run -> "run" | Step -> "step") prog.drives))
    (ops prog.initial)
    (String.concat "\n"
       (Array.to_list (Array.mapi (fun i b -> Printf.sprintf "p%d %s" i (ops b))
                         prog.bodies)))

let prop_matches_order_model =
  QCheck.Test.make ~name:"engine matches the (time, seq) list model"
    ~count:1000
    (QCheck.make ~print:print_program gen_program)
    (fun prog ->
       let got = on_engine prog and want = on_model prog in
       if got <> want then
         QCheck.Test.fail_reportf "engine:\n%s\nmodel:\n%s"
           (String.concat "\n" got) (String.concat "\n" want);
       true)

(* Each chain alternates a completion at the current instant (the lane)
   with a refire [second] time units later (the run), the pattern of a
   tick with instantaneous processing; [second] = 0 keeps a chain in the
   lane for good.  Chain [i] starts at [i * spacing], so 128 chains a
   128th apart are a ring's ticks at distinct phases.  A [stray] chain
   reschedules itself just under a period later: once per round it lands
   below the run's tail, every other round evicting the tail to the heap.
   After a warm-up that sizes the arena, the rings and the heap, the fast
   loop must allocate nothing: a float returned from an engine helper
   would show up here. *)
let stray_delay = 1. -. (1. /. 256.)

let test_same_instant_chain_allocates_nothing () =
  List.iter
    (fun (chains, spacing, second, stray) ->
       let engine = Engine.create () in
       let count = ref 0 and stop_at = ref 10_000 in
       let tally () =
         incr count;
         if !count = !stop_at then Engine.stop engine
       in
       for i = 0 to chains - 1 do
         let rec complete () =
           tally ();
           ignore (Engine.schedule engine ~delay:second refire)
         and refire () =
           tally ();
           ignore (Engine.schedule engine ~delay:0. complete)
         in
         ignore
           (Engine.schedule engine ~delay:(float_of_int i *. spacing) refire)
       done;
       if stray then begin
         let rec again () =
           tally ();
           ignore (Engine.schedule engine ~delay:stray_delay again)
         in
         ignore (Engine.schedule engine ~delay:(1. /. 512.) again)
       end;
       ignore (Engine.run engine);
       stop_at := 210_000;
       let w0 = Gc.minor_words () in
       let outcome = Engine.run engine in
       let w1 = Gc.minor_words () in
       Alcotest.(check bool) "stopped" true (outcome = Engine.Stopped);
       let bytes_per_event = (w1 -. w0) *. 8. /. 200_000. in
       Alcotest.(check bool)
         (Printf.sprintf "%d chains, second delay %g, stray %b: %.4f B/event"
            chains second stray bytes_per_event)
         true (bytes_per_event < 0.01))
    [ (16, 0., 1., false);
      (16, 0., 0., false);
      (128, 1. /. 128., 1., false);
      (128, 1. /. 128., 1., true) ]

let () =
  Alcotest.run "engine"
    [ ( "ordering",
        [ Alcotest.test_case "time order" `Quick test_runs_in_time_order;
          Alcotest.test_case "fifo ties" `Quick test_equal_times_fifo;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "zero delay" `Quick test_zero_delay_runs_now ] );
      ( "cancel",
        [ Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel twice" `Quick test_cancel_twice_harmless;
          Alcotest.test_case "cancel after execution" `Quick
            test_cancel_after_execution_harmless;
          Alcotest.test_case "stale handle, recycled slot" `Quick
            test_stale_handle_misses_recycled_slot ] );
      ( "arena",
        [ Alcotest.test_case "executed action is released" `Quick
            test_executed_action_released;
          Alcotest.test_case "same-instant chain allocates nothing" `Quick
            test_same_instant_chain_allocates_nothing ] );
      ( "control",
        [ Alcotest.test_case "stop and resume" `Quick test_stop_and_resume;
          Alcotest.test_case "event limit" `Quick test_event_limit;
          Alcotest.test_case "wall deadline bounds overshoot" `Quick
            test_wall_deadline_stops_run;
          Alcotest.test_case "wall deadline already past" `Quick
            test_wall_deadline_past_exits_promptly;
          Alcotest.test_case "time limit" `Quick test_time_limit;
          Alcotest.test_case "time limit resume keeps fifo" `Quick
            test_time_limit_resume_keeps_fifo;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "pending count" `Quick test_pending_count ] );
      ( "counters",
        [ Alcotest.test_case "zero on fresh engine" `Quick
            test_counters_zero_on_fresh;
          Alcotest.test_case "track a run" `Quick test_counters_track_run;
          Alcotest.test_case "monotone across runs" `Quick
            test_counters_monotone_across_runs;
          Alcotest.test_case "stable across Hit_time_limit resume" `Quick
            test_counters_stable_across_time_limit_resume;
          Alcotest.test_case "cancelled events" `Quick
            test_counters_ignore_cancelled ] );
      ( "validation",
        [ Alcotest.test_case "schedule_at" `Quick test_schedule_at;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "schedule_tagged" `Quick test_schedule_tagged;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected ]
      );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_many_events_ordered; prop_matches_order_model ] ) ]

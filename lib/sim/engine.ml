(* The event store is an int-indexed arena in structure-of-arrays layout:
   timestamps in a flat [float array], actions in a parallel closure array,
   and tag/eseq/lamport/generation/state in [int array]s, with freed slots
   recycled through a freelist ([ev_next]).  The priority queue holds arena
   indices only (see Pqueue), so the hot loop moves nothing but immediates
   and flat floats: executing one event on the fast path allocates nothing.

   [run] dispatches once per call between two monomorphic loops: the fast
   loop, used when no observer, metrics registry, causal recorder or
   scheduler is attached, performs no per-event observation branches at
   all; the instrumented loop carries the full observation surface
   (metrics, observer, causal announcements) and the scheduler variant on
   top of that.  Both pop in identical [(time, seq)] order, so executions
   are byte-identical across loop choices.

   Three queues.  Without a scheduler, pending events are split across
   three structures, each sorted by [(time, seq)]:
   - the lane, a FIFO ring of arena slots all due at the current clock
     value (with instantaneous processing, a message arrival's or tick's
     completion);
   - the run, a second ring of arena slots due after the current instant,
     appended to only at or after its tail's time, so it is sorted by
     construction (fresh events get fresh, increasing [seq]s).  A tick
     chain reschedules itself one period later, after every other pending
     tick, so it costs O(1) per fire here;
   - the heap, for the rest: an event earlier than the run's tail.  When
     only the tail is later than the new event, the tail moves to the heap
     under its own [seq] and the new event is appended, so one
     long-delay message cannot block appends for a whole round.
   [pop_live_slot] takes the earlier of the heap root and the run head by
   [(time, seq)] when it is due at the current instant or the lane is
   empty, else the lane head.  That is exactly [(time, seq)] order: heap
   and run entries enter only while their time is later than the clock,
   so one due at the current instant was scheduled before the clock got
   there and has a lower [seq] than every lane event; lane events are all
   at the current instant, in [seq] order; the clock only advances
   through a heap or run pop, which happens when the lane is empty; and
   both the eviction and the time-limit re-enqueue keep the event's
   original [seq].  Under a scheduler every event goes through the heap,
   so [choose_from] sees every candidate.

   Claims.  An event scheduled at the current instant gets the highest
   [seq] yet, so in [(time, seq)] order it comes after every live event
   already due now and before everything later.  When no live event is
   due now (the lane holds none, and neither the run head nor the heap
   root, read with [Pqueue.peek], is at the clock), it is the very next
   pop.  [claim_now] checks exactly that, plus what the loop head would
   check before popping it ([stop], the event budget, the wall deadline),
   and books the event as scheduled and executed: one [seq], one
   [executed], and the [max_depth] it would have reached.  The caller runs
   the body inline as its last act, which is where the loop would have
   run it.  Only [run_fast] grants claims: the other loops observe every
   event, and a scheduler may pick another. *)

type candidate = {
  c_time : float;
  c_seq : int;
  c_tag : int;
  c_foot : int;
}

type scheduler = {
  window : float;
  choose : now:float -> state_digest:int -> candidate array -> int;
}

type outcome =
  | Drained
  | Stopped
  | Hit_time_limit
  | Hit_event_limit
  | Hit_wall_deadline

type counters = {
  executed : int;
  max_queue_depth : int;
  wall_time : float;
}

(* Pre-resolved metric handles, so the instrumented loop never touches the
   registry's name table. *)
type instruments = {
  m_executed : Metrics.counter;
  m_queue_depth : Metrics.histogram;
}

(* An event handle packs the slot's generation stamp above its arena
   index: [(gen lsl slot_bits) lor slot].  The generation is bumped every
   time a slot is freed (executed or cancelled-and-collected), so a stale
   handle — to an event that already ran, even if its slot has since been
   recycled — can never touch the wrong event. *)
type event_id = int

let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl slot_bits) - 1

(* Arena slot states. *)
let st_free = 0
let st_live = 1
let st_cancelled = 2

let null_action () = ()

(* A FIFO ring of arena slots: power-of-two capacity, allocated on first
   push. *)
type ring = {
  mutable slots : int array;
  mutable head : int;
  mutable len : int;
}

type t = {
  queue : Pqueue.t;
  lane : ring;  (* all due at the current clock value, in [seq] order *)
  run : ring;   (* due after the current instant, sorted by [(time, seq)] *)
  (* Event arena (SoA).  All arrays share the same capacity. *)
  mutable ev_time : float array;
  mutable ev_action : (unit -> unit) array;
  mutable ev_tag : int array;
  mutable ev_eseq : int array;     (* the (priority, seq) key at enqueue *)
  mutable ev_lamport : int array;  (* 0 without a causal recorder *)
  mutable ev_foot : int array;     (* footprint bitmask; 0 = unknown *)
  mutable ev_gen : int array;
  mutable ev_state : int array;
  mutable ev_next : int array;     (* freelist link; -1 terminates *)
  mutable free_head : int;         (* -1 when the arena is full *)
  clock : float array;  (* length 1: a flat cell so advancing the virtual
                           clock never boxes a float *)
  time_arg : float array;  (* length 1: where [schedule]/[schedule_at] put
                              the time they hand to [schedule_tagged] *)
  root_time : float array;  (* length 1: [Pqueue.peek]'s root priority *)
  mutable seq : int;
  mutable executed : int;
  mutable live : int;  (* pending, non-cancelled events *)
  mutable max_depth : int;  (* high-water mark of [live] *)
  mutable wall : float;     (* host seconds accumulated inside [run] *)
  mutable stop_requested : bool;
  mutable claims : bool;  (* inside [run_fast]: [claim_now] may say yes *)
  mutable observer : (float -> unit) option;
  mutable digest_source : (unit -> int) option;
  instruments : instruments option;
  scheduler : scheduler option;
  causal : Causal.t option;
  limit_time : float;
  limit_events : int;
  wall_deadline : float;
}

let create ?metrics ?scheduler ?causal ?(limit_time = infinity)
    ?(limit_events = max_int) ?(wall_deadline = infinity) () =
  if not (limit_time > 0.) then invalid_arg "Engine.create: limit_time must be positive";
  if limit_events <= 0 then invalid_arg "Engine.create: limit_events must be positive";
  if Float.is_nan wall_deadline then
    invalid_arg "Engine.create: wall_deadline must not be NaN";
  Option.iter
    (fun s ->
       if not (s.window >= 0. && Float.is_finite s.window) then
         invalid_arg "Engine.create: scheduler window must be finite and >= 0")
    scheduler;
  let instruments =
    Option.map
      (fun m ->
         { m_executed = Metrics.counter m "engine/executed";
           m_queue_depth = Metrics.histogram m "engine/queue_depth" })
      metrics
  in
  { queue = Pqueue.create ();
    lane = { slots = [||]; head = 0; len = 0 };
    run = { slots = [||]; head = 0; len = 0 };
    ev_time = [||];
    ev_action = [||];
    ev_tag = [||];
    ev_eseq = [||];
    ev_lamport = [||];
    ev_foot = [||];
    ev_gen = [||];
    ev_state = [||];
    ev_next = [||];
    free_head = -1;
    clock = [| 0. |];
    time_arg = [| 0. |];
    root_time = [| 0. |];
    seq = 0;
    executed = 0;
    live = 0;
    max_depth = 0;
    wall = 0.;
    stop_requested = false;
    claims = false;
    observer = None;
    digest_source = None;
    instruments;
    scheduler;
    causal;
    limit_time;
    limit_events;
    wall_deadline }

let now t = t.clock.(0)

let grow_arena t =
  let old = Array.length t.ev_gen in
  let cap = max 64 (2 * old) in
  let time = Array.make cap 0. in
  Array.blit t.ev_time 0 time 0 old;
  t.ev_time <- time;
  let action = Array.make cap null_action in
  Array.blit t.ev_action 0 action 0 old;
  t.ev_action <- action;
  let copy_int src fill =
    let a = Array.make cap fill in
    Array.blit src 0 a 0 old;
    a
  in
  t.ev_tag <- copy_int t.ev_tag (-1);
  t.ev_eseq <- copy_int t.ev_eseq 0;
  t.ev_lamport <- copy_int t.ev_lamport 0;
  t.ev_foot <- copy_int t.ev_foot 0;
  t.ev_gen <- copy_int t.ev_gen 0;
  t.ev_state <- copy_int t.ev_state st_free;
  t.ev_next <- copy_int t.ev_next (-1);
  (* Chain the new slots into the freelist, lowest index first. *)
  for i = cap - 1 downto old do
    t.ev_next.(i) <- t.free_head;
    t.free_head <- i
  done

(* Arena slots handed around internally (freelist heads, queue pops) are
   within capacity by construction, so arena accesses on the hot path skip
   the bounds checks. *)

let alloc_slot t =
  if t.free_head < 0 then grow_arena t;
  let slot = t.free_head in
  t.free_head <- Array.unsafe_get t.ev_next slot;
  slot

(* Return an executed or collected-cancelled slot to the freelist.  The
   generation bump invalidates outstanding handles; nulling the action
   releases the closure (and anything a message payload it captured
   references) as soon as the event is done. *)
let free_slot t slot =
  Array.unsafe_set t.ev_gen slot
    ((Array.unsafe_get t.ev_gen slot + 1) land gen_mask);
  Array.unsafe_set t.ev_state slot st_free;
  Array.unsafe_set t.ev_action slot null_action;
  Array.unsafe_set t.ev_next slot t.free_head;
  t.free_head <- slot

(* Double the ring, unrolling it so the head lands at index 0. *)
let grow_ring r =
  let old = Array.length r.slots in
  let slots = Array.make (max 64 (2 * old)) 0 in
  for i = 0 to r.len - 1 do
    Array.unsafe_set slots i
      (Array.unsafe_get r.slots ((r.head + i) land (old - 1)))
  done;
  r.slots <- slots;
  r.head <- 0

let[@inline] ring_push r slot =
  if r.len = Array.length r.slots then grow_ring r;
  Array.unsafe_set r.slots ((r.head + r.len) land (Array.length r.slots - 1))
    slot;
  r.len <- r.len + 1

let[@inline] ring_pop r =
  let slot = Array.unsafe_get r.slots r.head in
  r.head <- (r.head + 1) land (Array.length r.slots - 1);
  r.len <- r.len - 1;
  slot

(* The [k]-th slot from the back: [0] is the tail.  Requires [k < len].
   Returns the slot, not its time: a float returned from a helper would be
   boxed on every call. *)
let[@inline] ring_back r k =
  Array.unsafe_get r.slots
    ((r.head + r.len - 1 - k) land (Array.length r.slots - 1))

let[@inline] ring_pop_tail r =
  let slot = ring_back r 0 in
  r.len <- r.len - 1;
  slot

(* Put [slot] on the heap under the [seq] it was scheduled with: a fresh
   event, an evicted run tail, an event deferred by the time budget, or a
   scheduler candidate put back, each keeps its place among same-time
   peers. *)
let[@inline] to_heap t slot =
  Pqueue.add_at t.queue ~times:t.ev_time
    ~seq:(Array.unsafe_get t.ev_eseq slot) slot

(* Place a fresh event due after the current instant (see the header): on
   the run when it is not earlier than the tail; on the run after moving
   the tail to the heap when only the tail is later; else on the heap. *)
let[@inline] place_later t slot =
  let time = Array.unsafe_get t.ev_time slot in
  let run = t.run in
  if run.len = 0 || time >= Array.unsafe_get t.ev_time (ring_back run 0) then
    ring_push run slot
  else if
    run.len = 1 || time >= Array.unsafe_get t.ev_time (ring_back run 1)
  then begin
    to_heap t (ring_pop_tail run);
    ring_push run slot
  end
  else to_heap t slot

(* Tail of [schedule_tagged]: [slot] already holds the event time (written
   straight into the flat [ev_time] array, so no float crosses a call
   boundary boxed).  Returns the packed handle. *)
let enqueue t tag foot slot action =
  let lamport =
    match t.causal with
    | None -> 0
    | Some c -> Causal.scheduling_lamport c
  in
  Array.unsafe_set t.ev_action slot action;
  Array.unsafe_set t.ev_tag slot tag;
  Array.unsafe_set t.ev_foot slot foot;
  Array.unsafe_set t.ev_eseq slot t.seq;
  Array.unsafe_set t.ev_lamport slot lamport;
  Array.unsafe_set t.ev_state slot st_live;
  if t.scheduler != None then to_heap t slot
  else if Array.unsafe_get t.ev_time slot = Array.unsafe_get t.clock 0 then
    ring_push t.lane slot
  else place_later t slot;
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  if t.live > t.max_depth then t.max_depth <- t.live;
  (t.ev_gen.(slot) lsl slot_bits) lor slot

(* The one scheduling implementation.  Tag and footprint are plain ints,
   so a caller in another module passes them without allocating the
   [Some] boxes the optional-argument entry points would cost, and the
   time is read from the caller's flat float array, so it crosses no call
   boundary boxed either. *)
let[@inline] schedule_tagged t ~tag ~footprint times index action =
  let time = times.(index) in
  let time =
    if time >= t.clock.(0) then time
    else if Float.is_nan time then
      invalid_arg "Engine.schedule_at: time must be >= now"
    else if t.scheduler <> None then
      (* Under a reordering scheduler the clock may have raced past a time
         computed from a deferred event's schedule; the event fires as soon
         as possible instead of in the past. *)
      t.clock.(0)
    else invalid_arg "Engine.schedule_at: time must be >= now"
  in
  let slot = alloc_slot t in
  t.ev_time.(slot) <- time;
  enqueue t tag footprint slot action

let schedule_at t ?(tag = -1) ?(footprint = 0) ~time action =
  t.time_arg.(0) <- time;
  schedule_tagged t ~tag ~footprint t.time_arg 0 action

(* [now + delay >= now] for any finite [delay >= 0], so the absolute-time
   check never fires here. *)
let schedule t ?(tag = -1) ?(footprint = 0) ~delay action =
  if not (delay >= 0. && Float.is_finite delay) then
    invalid_arg "Engine.schedule: delay must be non-negative and finite";
  t.time_arg.(0) <- t.clock.(0) +. delay;
  schedule_tagged t ~tag ~footprint t.time_arg 0 action

let cancel t id =
  let slot = id land slot_mask in
  let gen = id lsr slot_bits in
  if
    slot < Array.length t.ev_gen
    && t.ev_gen.(slot) = gen
    && t.ev_state.(slot) = st_live
  then begin
    t.ev_state.(slot) <- st_cancelled;
    t.live <- t.live - 1
  end
  (* Otherwise: already cancelled, or already executed (the slot's
     generation moved on when it was freed) — a no-op either way. *)

let stop t = t.stop_requested <- true

let set_observer t f = t.observer <- Some f
let clear_observer t = t.observer <- None

let set_digest_source t f = t.digest_source <- Some f

let notify t time =
  match t.observer with
  | None -> ()
  | Some f -> f time

(* Record one executed event; [depth] is the pending-event count at the
   instant the event fired. *)
let measure t ~depth =
  match t.instruments with
  | None -> ()
  | Some i ->
    Metrics.incr i.m_executed;
    Metrics.observe i.m_queue_depth (float_of_int depth)

(* Tell the span recorder which engine event is executing, so spans it
   records inherit the event's stable id and Lamport time. *)
let announce t ~time slot =
  match t.causal with
  | None -> ()
  | Some c ->
    Causal.enter_event c ~seq:t.ev_eseq.(slot) ~lamport:t.ev_lamport.(slot)
      ~time

(* Pop arena slots until a non-cancelled one is found ([-1] when drained);
   cancelled slots are collected back into the freelist here.  With both
   rings empty (always, under a scheduler) this is a plain heap pop.
   Otherwise the next non-lane event is the earlier of the heap root (its
   key read by [Pqueue.peek], off the heap's own arrays) and the run head
   by [(time, seq)]; it goes before the lane when it is due at the current
   instant (see the header). *)
let rec pop_live_slot t =
  let run = t.run and lane = t.lane in
  let slot =
    if run.len = 0 && lane.len = 0 then Pqueue.pop_value t.queue
    else begin
      let root_seq = Pqueue.peek t.queue t.root_time in
      let head =
        if run.len = 0 then -1 else Array.unsafe_get run.slots run.head
      in
      let from_heap =
        root_seq >= 0
        && (head < 0
            ||
            let th = Array.unsafe_get t.ev_time head
            and tr = Array.unsafe_get t.root_time 0 in
            tr < th || (tr = th && root_seq < Array.unsafe_get t.ev_eseq head))
      in
      if
        lane.len > 0
        && not
             (if from_heap then
                Array.unsafe_get t.root_time 0 = Array.unsafe_get t.clock 0
              else
                head >= 0
                && Array.unsafe_get t.ev_time head = Array.unsafe_get t.clock 0)
      then ring_pop lane
      else if from_heap then Pqueue.pop_value t.queue
      else ring_pop run
    end
  in
  if slot < 0 then -1
  else if Array.unsafe_get t.ev_state slot = st_cancelled then begin
    free_slot t slot;
    pop_live_slot t
  end
  else slot

(* Bound on the commutation-candidate set handed to a scheduler: keeps one
   decision O(max_candidates log queue) even under a wide window. *)
let max_candidates = 64

(* Scheduler path: gather the live events whose timestamps fall within
   [window] of the earliest one, let the scheduler choose among the
   per-tag-FIFO-eligible ones, and put the rest back untouched (original
   timestamp and sequence number, so their relative order is preserved).
   Returns the chosen slot with its execution time, which is its own
   timestamp clamped to the (monotone) clock. *)
let choose_from t sched slot0 =
  let t0 = t.ev_time.(slot0) in
  let bound = t0 +. sched.window in
  let rec grab acc count =
    if count >= max_candidates then List.rev acc
    else
      match Pqueue.min_priority t.queue with
      | Some p when p <= bound ->
        let s = Pqueue.pop_value t.queue in
        if s < 0 then List.rev acc
        else if t.ev_state.(s) = st_cancelled then begin
          free_slot t s;
          grab acc count
        end
        else grab (s :: acc) (count + 1)
      | Some _ | None -> List.rev acc
  in
  let entries = Array.of_list (slot0 :: grab [] 1) in
  (* Eligibility: among candidates sharing a tag (>= 0), only the first —
     earliest (time, seq) — may fire, preserving per-class FIFO (per-link
     delivery order, per-node processing order).  Untagged events are
     unconstrained. *)
  let eligible =
    let keep = ref [] in
    Array.iteri
      (fun i s ->
         let blocked = ref false in
         if t.ev_tag.(s) >= 0 then
           for j = 0 to i - 1 do
             if t.ev_tag.(entries.(j)) = t.ev_tag.(s) then blocked := true
           done;
         if not !blocked then keep := i :: !keep)
      entries;
    Array.of_list (List.rev !keep)
  in
  let chosen_index =
    if Array.length eligible <= 1 then eligible.(0)
    else begin
      let candidates =
        Array.map
          (fun i ->
             let s = entries.(i) in
             { c_time = t.ev_time.(s); c_seq = t.ev_eseq.(s);
               c_tag = t.ev_tag.(s); c_foot = t.ev_foot.(s) })
          eligible
      in
      let digest =
        match t.digest_source with None -> 0 | Some f -> f ()
      in
      let k = sched.choose ~now:t.clock.(0) ~state_digest:digest candidates in
      let k = if k < 0 || k >= Array.length eligible then 0 else k in
      eligible.(k)
    end
  in
  Array.iteri
    (fun i s ->
       if i <> chosen_index then to_heap t s)
    entries;
  let slot = entries.(chosen_index) in
  (Float.max t.clock.(0) t.ev_time.(slot), slot)

(* Execute one live slot through the full observation surface.  The slot
   is freed (generation bumped, action nulled) before the action runs, so
   a late [cancel] with the event's handle is a guaranteed no-op and the
   closure is unreachable the moment it returns. *)
let execute t ~time slot =
  t.clock.(0) <- time;
  t.live <- t.live - 1;
  t.executed <- t.executed + 1;
  measure t ~depth:t.live;
  announce t ~time slot;
  let action = t.ev_action.(slot) in
  free_slot t slot;
  action ();
  notify t time

let step t =
  t.claims <- false;  (* a [run] cut short by an exception leaves it set *)
  match t.scheduler with
  | None ->
    let slot = pop_live_slot t in
    if slot < 0 then false
    else begin
      execute t ~time:t.ev_time.(slot) slot;
      true
    end
  | Some sched ->
    let slot0 = pop_live_slot t in
    if slot0 < 0 then false
    else begin
      let time, slot = choose_from t sched slot0 in
      execute t ~time slot;
      true
    end

(* Coarse wall-clock deadline probe: the [gettimeofday] syscall is paid at
   most once per 1024 executed events, and never when no deadline is set,
   so the fast loop stays a float compare away from its deadline-free
   cost.  Checked before the pop, so an over-deadline run stops without
   consuming another event. *)
let past_wall_deadline t =
  t.wall_deadline < infinity
  && t.executed land 1023 = 0
  && Unix.gettimeofday () > t.wall_deadline

(* The first live slot of ring [r], or [-1]; cancelled slots in front of
   it are collected on the way, as [pop_live_slot] would. *)
let rec live_head t r =
  if r.len = 0 then -1
  else
    let slot = Array.unsafe_get r.slots r.head in
    if Array.unsafe_get t.ev_state slot = st_cancelled then begin
      ignore (ring_pop r);
      free_slot t slot;
      live_head t r
    end
    else slot

let rec heap_due_now t =
  Pqueue.peek t.queue t.root_time >= 0
  && Array.unsafe_get t.root_time 0 = Array.unsafe_get t.clock 0
  &&
  let slot = Pqueue.min_value t.queue in
  Array.unsafe_get t.ev_state slot <> st_cancelled
  || begin
    ignore (Pqueue.pop_value t.queue);
    free_slot t slot;
    heap_due_now t
  end

(* Some live event is due at the current instant.  Each queue is sorted and
   holds nothing earlier than the clock, so its first live entry tells. *)
let due_now t =
  live_head t t.lane >= 0
  || (let head = live_head t t.run in
      head >= 0
      && Array.unsafe_get t.ev_time head = Array.unsafe_get t.clock 0)
  || heap_due_now t

(* See "Claims" in the header. *)
let claim_now t =
  t.claims
  && (not t.stop_requested)
  && t.executed < t.limit_events
  && (not (past_wall_deadline t))
  && (not (due_now t))
  && begin
    t.seq <- t.seq + 1;
    t.executed <- t.executed + 1;
    if t.live >= t.max_depth then t.max_depth <- t.live + 1;
    true
  end

(* The monomorphic fast loop: no observer, metrics, causal recorder or
   scheduler — and therefore not a single observation branch per event.
   Identical (time, seq) pop order to the instrumented loops, so outcomes
   are byte-identical; an over-budget event is re-enqueued under its
   original [eseq] so it is not demoted behind same-priority peers on
   resume. *)
let run_fast t =
  let rec loop () =
    if t.stop_requested then Stopped
    else if t.executed >= t.limit_events then Hit_event_limit
    else if past_wall_deadline t then Hit_wall_deadline
    else begin
      let slot = pop_live_slot t in
      if slot < 0 then Drained
      else begin
        let time = Array.unsafe_get t.ev_time slot in
        if time > t.limit_time then begin
          to_heap t slot;
          Hit_time_limit
        end
        else begin
          Array.unsafe_set t.clock 0 time;
          t.live <- t.live - 1;
          t.executed <- t.executed + 1;
          let action = Array.unsafe_get t.ev_action slot in
          free_slot t slot;
          action ();
          loop ()
        end
      end
    end
  in
  loop ()

let run_instrumented t =
  let rec loop () =
    if t.stop_requested then Stopped
    else if t.executed >= t.limit_events then Hit_event_limit
    else if past_wall_deadline t then Hit_wall_deadline
    else begin
      let slot = pop_live_slot t in
      if slot < 0 then Drained
      else begin
        let time = t.ev_time.(slot) in
        if time > t.limit_time then begin
          to_heap t slot;
          Hit_time_limit
        end
        else begin
          execute t ~time slot;
          loop ()
        end
      end
    end
  in
  loop ()

(* Scheduler variant: the time budget is checked against the earliest
   pending timestamp (before any reordering), and a deferred event keeps
   its original queue key when put back. *)
let run_scheduled t sched =
  let rec loop () =
    if t.stop_requested then Stopped
    else if t.executed >= t.limit_events then Hit_event_limit
    else if past_wall_deadline t then Hit_wall_deadline
    else begin
      let slot0 = pop_live_slot t in
      if slot0 < 0 then Drained
      else if t.ev_time.(slot0) > t.limit_time then begin
        to_heap t slot0;
        Hit_time_limit
      end
      else begin
        let time, slot = choose_from t sched slot0 in
        execute t ~time slot;
        loop ()
      end
    end
  in
  loop ()

let run t =
  let started = Unix.gettimeofday () in
  t.stop_requested <- false;
  let outcome =
    match t.scheduler with
    | Some sched -> run_scheduled t sched
    | None ->
      t.claims <-
        t.instruments == None && t.causal == None && t.observer == None;
      if t.claims then run_fast t else run_instrumented t
  in
  t.claims <- false;
  t.wall <- t.wall +. (Unix.gettimeofday () -. started);
  outcome

let executed_events t = t.executed
let pending_events t = t.live
let max_queue_depth t = t.max_depth
let wall_time t = t.wall

let counters t =
  { executed = t.executed; max_queue_depth = t.max_depth; wall_time = t.wall }

(* The traced run's instrumentation, all from outside the program: spans
   around the benchmark's own calls into each layer, kept in memory and
   mirrored as [Runtime_events.User] span events, plus the OCaml
   runtime's GC phases read back from this process's event ring.  Written
   out at the end as one Chrome trace-event JSON (loads in Perfetto). *)

type span = {
  name : string;
  tid : int;  (* OCaml domain id *)
  t0 : float;  (* Unix.gettimeofday seconds *)
  t1 : float;
  derived : bool;  (* located by the program's own timer, see [derived] *)
}

type gc_phase = { ring : int; phase : string; b_ns : int64; e_ns : int64 }

type Runtime_events.User.tag += Layer

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let user_events : (string, Runtime_events.Type.span Runtime_events.User.t) Hashtbl.t =
  Hashtbl.create 16

(* Registration is global; do it once per name, from any domain. *)
let user_event name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt user_events name with
      | Some ev -> ev
      | None ->
        let ev = Runtime_events.User.register name Layer Runtime_events.Type.span in
        Hashtbl.add user_events name ev;
        ev)

let add span = Mutex.protect lock (fun () -> spans := span :: !spans)

let tid () = (Domain.self () :> int)

(* [with_span name f] times [f] as one span when tracing is on.  Safe to
   call from worker domains. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    let ev = user_event name in
    Runtime_events.User.write ev Runtime_events.Type.Begin;
    let t0 = Unix.gettimeofday () in
    let result = f () in
    let t1 = Unix.gettimeofday () in
    Runtime_events.User.write ev Runtime_events.Type.End;
    add { name; tid = tid (); t0; t1; derived = false };
    result
  end

(* A span the program's own timers locate rather than a call boundary
   (e.g. the engine loop inside [Runner.run], from [outcome.wall_time]). *)
let derived name ~t0 ~t1 = if !enabled then add { name; tid = tid (); t0; t1; derived = true }

(* ------------------------------------------------------------ GC phases *)

let gc_phases : gc_phase list ref = ref []
let open_phases : (int * string, int64) Hashtbl.t = Hashtbl.create 16
let minor_collections = ref 0
let lost_events = ref 0
let sync_ns = ref None
let sync_wall = ref 0.

let sync_event = lazy (Runtime_events.User.register "perfbench.sync" Layer Runtime_events.Type.unit)

let tracked = function
  | Runtime_events.EV_MINOR | EV_MAJOR_SLICE -> true
  | _ -> false

let callbacks =
  let runtime_begin ring ts phase =
    if tracked phase then begin
      if phase = Runtime_events.EV_MINOR then incr minor_collections;
      Hashtbl.replace open_phases
        (ring, Runtime_events.runtime_phase_name phase)
        (Runtime_events.Timestamp.to_int64 ts)
    end
  in
  let runtime_end ring ts phase =
    if tracked phase then begin
      let key = (ring, Runtime_events.runtime_phase_name phase) in
      match Hashtbl.find_opt open_phases key with
      | Some b_ns ->
        Hashtbl.remove open_phases key;
        gc_phases :=
          { ring; phase = snd key; b_ns; e_ns = Runtime_events.Timestamp.to_int64 ts }
          :: !gc_phases
      | None -> ()
    end
  in
  let lost_events _ring n = lost_events := !lost_events + n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
  |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.unit
       (fun _ring ts ev () ->
          if Runtime_events.User.name ev = "perfbench.sync" && !sync_ns = None then
            sync_ns := Some (Runtime_events.Timestamp.to_int64 ts))

let cursor = ref None
let poller = ref None
let stop_polling = Atomic.make false

let poll () =
  Option.iter
    (fun c -> ignore (Runtime_events.read_poll c callbacks None))
    !cursor

(* Start the runtime's event ring and a systhread that drains it often
   enough that a long election does not overrun the ring. *)
let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None);
  let g0 = Unix.gettimeofday () in
  Runtime_events.User.write (Lazy.force sync_event) ();
  sync_wall := (g0 +. Unix.gettimeofday ()) /. 2.;
  enabled := true;
  poller :=
    Some
      (Thread.create
         (fun () ->
            while not (Atomic.get stop_polling) do
              poll ();
              Thread.delay 0.002
            done)
         ())

(* Stop recording GC phases (the traced replay is over); spans go on
   until [stop], so the layer probes still show in the trace. *)
let stop_gc () =
  Atomic.set stop_polling true;
  Option.iter Thread.join !poller;
  poller := None;
  poll ();
  Option.iter Runtime_events.free_cursor !cursor;
  cursor := None;
  Runtime_events.pause ()

let stop () = enabled := false

(* Time spent in the tracked GC phases, summed over every domain. *)
let gc_pause_s () =
  List.fold_left
    (fun acc p -> acc +. (Int64.to_float (Int64.sub p.e_ns p.b_ns) /. 1e9))
    0. !gc_phases

(* ------------------------------------------------------------- output *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON: layer spans as complete ("X") events on
   pid 1, one track per domain; GC phases on pid 2, one track per
   runtime-events ring.  Timestamps in microseconds on the GC clock, the
   spans shifted onto it through the sync event. *)
let write_chrome path =
  let offset_us =
    match !sync_ns with
    | Some ns -> (Int64.to_float ns /. 1e3) -. (!sync_wall *. 1e6)
    | None -> 0.
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc line
  in
  emit {|{"ph":"M","pid":1,"name":"process_name","args":{"name":"perfbench layers"}}|};
  emit {|{"ph":"M","pid":2,"name":"process_name","args":{"name":"OCaml GC (runtime_events)"}}|};
  List.iter
    (fun s ->
       emit
         (Printf.sprintf
            {|{"ph":"X","pid":1,"tid":%d,"name":%s,"ts":%.3f,"dur":%.3f,"args":{"derived":%b}}|}
            s.tid (json_string s.name)
            ((s.t0 *. 1e6) +. offset_us)
            ((s.t1 -. s.t0) *. 1e6)
            s.derived))
    (List.rev !spans);
  List.iter
    (fun p ->
       emit
         (Printf.sprintf
            {|{"ph":"X","pid":2,"tid":%d,"name":%s,"ts":%.3f,"dur":%.3f}|}
            p.ring (json_string p.phase)
            (Int64.to_float p.b_ns /. 1e3)
            (Int64.to_float (Int64.sub p.e_ns p.b_ns) /. 1e3)))
    (List.rev !gc_phases);
  output_string oc "\n]}\n"

(* Helpers the benchmark's figures depend on: order statistics, the
   outcome digest that pins simulated results, and the peak-RSS reading. *)

(* Linear interpolation between order statistics (the "inclusive"
   definition: p = 0 is the minimum, p = 1 the maximum). *)
let percentile xs p =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = p *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

(* Samples strictly above the [p]-th percentile: a percentile is only
   reported as meaningful when at least ten samples lie beyond it. *)
let beyond xs p =
  let cut = percentile xs p in
  List.length (List.filter (fun x -> x > cut) xs)

(* What a simulated election must reproduce exactly: a simulator speed-up
   may change wall times, never these.  Floats are printed in hex so the
   digest sees every bit. *)
type record = {
  seed : int;
  leader : int option;
  elected_at : float;
  messages : int;
  events : int;
}

let record_line r =
  Printf.sprintf "%d %d %h %d %d\n" r.seed
    (Option.value r.leader ~default:(-1))
    r.elected_at r.messages r.events

let digest records =
  Digest.to_hex (Digest.string (String.concat "" (List.map record_line records)))

let of_outcome ~seed (o : Abe_core.Runner.outcome) =
  { seed;
    leader = o.leader;
    elected_at = o.elected_at;
    messages = o.messages;
    events = o.executed_events }

(* VmHWM (peak resident set) in MiB from the text of /proc/<pid>/status. *)
let parse_vmhwm_mb status =
  let parse line =
    match String.split_on_char ':' line with
    | [ "VmHWM"; rest ] ->
      Scanf.sscanf (String.trim rest) "%d kB" (fun kb ->
          Some (float_of_int kb /. 1024.))
    | _ -> None
  in
  List.find_map parse (String.split_on_char '\n' status)

(* Whole file, read incrementally: /proc files report length 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let buf = Buffer.create 4096 in
       (try
          while true do
            Buffer.add_channel buf ic 1
          done
        with End_of_file -> ());
       Buffer.contents buf)

let peak_rss_mb () =
  match parse_vmhwm_mb (read_file "/proc/self/status") with
  | Some mb -> mb
  | None -> failwith "VmHWM missing from /proc/self/status"

(* Pinned digests: one [workload size digest] line each, '#' comments. *)
let parse_pins text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ workload; size; hex ] when workload <> "" && workload.[0] <> '#' ->
        Some ((workload, size), hex)
      | _ -> None)

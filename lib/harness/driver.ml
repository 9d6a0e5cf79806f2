type t =
  | Sequential
  | Parallel of { num_domains : int }

let sequential = Sequential

let parallel ?num_domains () =
  let num_domains =
    match num_domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if num_domains < 1 then
    invalid_arg "Driver.parallel: num_domains must be >= 1";
  Parallel { num_domains }

let of_jobs jobs =
  if jobs < 1 then invalid_arg "Driver.of_jobs: jobs must be >= 1";
  if jobs = 1 then Sequential else Parallel { num_domains = jobs }

let num_domains = function
  | Sequential -> 1
  | Parallel { num_domains } -> num_domains

let pp ppf = function
  | Sequential -> Format.pp_print_string ppf "sequential"
  | Parallel { num_domains } ->
    Format.fprintf ppf "parallel(%d domains)" num_domains

(* Dynamic claiming: every worker, the calling domain included, takes the
   next unclaimed index from one atomic counter and writes the outcome
   into that index's slot.  Work per task is heavy-tailed (a replicated
   election can cost ten times another), so a domain that finishes early
   keeps claiming instead of idling behind a fixed share, while reading
   the slots back in index order keeps the output in input order.

   A failure is stored in its slot too.  Indices are claimed in increasing
   order, so when index [i] fails every lower index has already been
   claimed; workers stop claiming past the lowest failure, and once every
   spawned domain is joined the first failed slot in index order is
   re-raised — the exception [List.map f items] would raise. *)
type 'b slot =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let rec lower_to cell i =
  let current = Atomic.get cell in
  if i < current && not (Atomic.compare_and_set cell current i) then
    lower_to cell i

let map_domains ~num_domains f items =
  let input = Array.of_list items in
  let n = Array.length input in
  let d = min num_domains n in
  if d <= 1 then List.map f items
  else begin
    let slots = Array.make n Pending in
    let next = Atomic.make 0 in
    let first_failure = Atomic.make n in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && i < Atomic.get first_failure then begin
        (match f input.(i) with
         | result -> slots.(i) <- Done result
         | exception e ->
           slots.(i) <- Failed (e, Printexc.get_raw_backtrace ());
           lower_to first_failure i);
        work ()
      end
    in
    let workers = List.init (d - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join workers;
    Array.iter
      (function
        | Failed (e, backtrace) -> Printexc.raise_with_backtrace e backtrace
        | Pending | Done _ -> ())
      slots;
    Array.fold_right
      (fun slot acc ->
         match slot with
         | Done result -> result :: acc
         | Pending | Failed _ -> assert false)
      slots []
  end

let map driver f items =
  match driver with
  | Sequential -> List.map f items
  | Parallel { num_domains } -> map_domains ~num_domains f items

type timing = {
  driver : t;
  tasks : int;
  elapsed : float;
}

let timed_map driver f items =
  let started = Unix.gettimeofday () in
  let results = map driver f items in
  let elapsed = Unix.gettimeofday () -. started in
  (results, { driver; tasks = List.length items; elapsed })

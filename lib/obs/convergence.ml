(* Per-iteration convergence telemetry.  The search drivers (Local_search,
   Phase 1b) append one point per iteration — a sweep or a sampling round —
   into the ambient series their caller opened with [with_series].  Phases
   1a/1b/1c of the paper derive criticality from the distribution of costs
   seen during the normal-conditions search; this module records exactly
   that trajectory (best and current cost, acceptance rate, diversification
   resets) so iteration budgets can be tuned from evidence instead of
   aggregate totals.

   Recording happens once per iteration, not per move, so points may
   allocate; the per-move hot path is untouched.  The ambient series lives
   in domain-local storage (searches run on the orchestrating domain; pool
   workers never record), and series mutation takes the registry mutex, so a
   stray concurrent recorder cannot corrupt the list.  Everything is gated
   by the caller on [Metric.enabled]; [record] without an open series is a
   no-op, so [Local_search.run] used outside the phase drivers records
   nothing. *)

type point = {
  iter : int;  (* 0-based index within the series *)
  best_lambda : float;
  best_phi : float;
  cur_lambda : float;
  cur_phi : float;
  trials : int;
  accepts : int;
  resets : int;
}

type series = {
  name : string;
  mutable rev_points : point list;
  mutable next_iter : int;
}

let registry_mutex = Mutex.create ()
let all_series : series list ref = ref [] (* newest first *)

let find_or_create name =
  Mutex.protect registry_mutex (fun () ->
      match List.find_opt (fun s -> s.name = name) !all_series with
      | Some s -> s
      | None ->
          let s = { name; rev_points = []; next_iter = 0 } in
          all_series := s :: !all_series;
          s)

let current : series option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_series ~name f =
  if not (Metric.enabled ()) then f ()
  else begin
    let s = find_or_create name in
    let saved = Domain.DLS.get current in
    Domain.DLS.set current (Some s);
    Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f
  end

let record ~best_lambda ~best_phi ~cur_lambda ~cur_phi ~trials ~accepts ~resets =
  match Domain.DLS.get current with
  | None -> ()
  | Some s ->
      Mutex.protect registry_mutex (fun () ->
          let p =
            {
              iter = s.next_iter;
              best_lambda;
              best_phi;
              cur_lambda;
              cur_phi;
              trials;
              accepts;
              resets;
            }
          in
          s.rev_points <- p :: s.rev_points;
          s.next_iter <- s.next_iter + 1)

let all () =
  Mutex.protect registry_mutex (fun () ->
      List.rev_map (fun s -> (s.name, List.rev s.rev_points)) !all_series)

let reset () =
  Mutex.protect registry_mutex (fun () -> all_series := [])

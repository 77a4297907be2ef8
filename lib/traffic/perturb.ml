module Rng = Dtr_util.Rng

let gaussian rng ~eps m =
  if not (Float.is_finite eps) then invalid_arg "Perturb.gaussian: non-finite eps";
  if eps < 0. then invalid_arg "Perturb.gaussian: negative eps";
  Matrix.map m (fun ~src:_ ~dst:_ r ->
      if r = 0. then 0. else r +. Rng.gaussian rng ~mean:0. ~stddev:(eps *. r))

type hotspot = {
  server_fraction : float;
  client_fraction : float;
  factor_min : float;
  factor_max : float;
}

let default_hotspot =
  { server_fraction = 0.1; client_fraction = 0.5; factor_min = 2.; factor_max = 6. }

type direction = Upload | Download

type assignment = { servers : int array; client_server : (int * int) array }

let draw_assignment rng ~nodes spec =
  let num_servers = int_of_float (Float.round (spec.server_fraction *. float_of_int nodes)) in
  let num_clients = int_of_float (Float.round (spec.client_fraction *. float_of_int nodes)) in
  if num_servers < 1 then invalid_arg "Perturb.draw_assignment: no servers";
  if num_clients < 1 then invalid_arg "Perturb.draw_assignment: no clients";
  if num_servers + num_clients > nodes then
    invalid_arg "Perturb.draw_assignment: fractions exceed the node count";
  let chosen = Rng.sample_without_replacement rng (num_servers + num_clients) nodes in
  let servers = Array.sub chosen 0 num_servers in
  let clients = Array.sub chosen num_servers num_clients in
  let client_server = Array.map (fun c -> (c, Rng.pick rng servers)) clients in
  { servers; client_server }

let apply_assignment rng spec ~direction ~assignment m =
  let m' = Matrix.copy m in
  Array.iter
    (fun (client, server) ->
      let src, dst =
        match direction with Upload -> (client, server) | Download -> (server, client)
      in
      let factor = Rng.uniform rng spec.factor_min spec.factor_max in
      Matrix.set m' ~src ~dst (factor *. Matrix.get m ~src ~dst))
    assignment.client_server;
  m'

let hotspot rng ?(spec = default_hotspot) ~direction ~rd ~rt () =
  if not (Float.is_finite spec.factor_min && Float.is_finite spec.factor_max) then
    invalid_arg "Perturb.hotspot: non-finite factor";
  if spec.factor_min < 1. || spec.factor_max < spec.factor_min then
    invalid_arg "Perturb.hotspot: bad factor range";
  let assignment = draw_assignment rng ~nodes:(Matrix.size rd) spec in
  let rd' = apply_assignment rng spec ~direction ~assignment rd in
  let rt' = apply_assignment rng spec ~direction ~assignment rt in
  (rd', rt')

(* Perturbations as a replayable event stream.  The RNG draw order is part
   of the contract: the delay matrix is perturbed before the throughput
   matrix, so replaying the same events against the same RNG state
   reproduces the same matrices — the serve daemon's synthetic streams and
   the warm-start identity tests both depend on it. *)

type event =
  | Gaussian of { eps : float }
  | Hotspot of { spec : hotspot; direction : direction }

let apply_event rng ~rd ~rt = function
  | Gaussian { eps } ->
      let rd' = gaussian rng ~eps rd in
      let rt' = gaussian rng ~eps rt in
      (rd', rt')
  | Hotspot { spec; direction } -> hotspot rng ~spec ~direction ~rd ~rt ()

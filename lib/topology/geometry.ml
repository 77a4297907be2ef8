type point = { x : float; y : float }

let point x y = { x; y }

let distance a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let random_in_unit_square rng =
  { x = Dtr_util.Rng.float rng 1.0; y = Dtr_util.Rng.float rng 1.0 }

let random_points rng n = Array.init n (fun _ -> random_in_unit_square rng)

let earth_radius_km = 6371.0

let great_circle_km ~lat1 ~lon1 ~lat2 ~lon2 =
  let rad d = d *. Float.pi /. 180. in
  let phi1 = rad lat1 and phi2 = rad lat2 in
  let dphi = rad (lat2 -. lat1) and dlambda = rad (lon2 -. lon1) in
  let a =
    (sin (dphi /. 2.) ** 2.)
    +. (cos phi1 *. cos phi2 *. (sin (dlambda /. 2.) ** 2.))
  in
  2. *. earth_radius_km *. atan2 (sqrt a) (sqrt (1. -. a))

(* Monotonic time in seconds, at nanosecond resolution: round trips on a
   pipe take tens of microseconds, too close to gettimeofday's microsecond
   steps. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

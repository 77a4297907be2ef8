type t = Serial | Parallel of Pool.t

let serial = Serial

let jobs = function Serial -> 1 | Parallel p -> Pool.jobs p

(* Process-wide pool registry, one pool per requested size.  Pools are never
   torn down mid-run (parked workers cost nothing); the at_exit hook joins
   their domains so the process shuts down cleanly. *)
let registry : (int * Pool.t) list ref = ref []
let registry_mutex = Mutex.create ()
let cleanup_installed = ref false

let of_jobs n =
  if n <= 1 then Serial
  else
    Parallel
      (Mutex.protect registry_mutex (fun () ->
           match List.assoc_opt n !registry with
           | Some pool -> pool
           | None ->
               if not !cleanup_installed then begin
                 cleanup_installed := true;
                 at_exit (fun () ->
                     let pools =
                       Mutex.protect registry_mutex (fun () ->
                           let ps = List.map snd !registry in
                           registry := [];
                           ps)
                     in
                     List.iter Pool.shutdown pools)
               end;
               let pool = Pool.create ~jobs:n in
               registry := (n, pool) :: !registry;
               pool))

let env_var = "DTR_JOBS"

let default () =
  match Sys.getenv_opt env_var with
  | None -> Serial
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> of_jobs n
      | Some _ | None -> Serial)

let map t ~n ~f =
  match t with
  | Serial -> Array.init n f
  | Parallel pool -> Pool.map pool ~f n

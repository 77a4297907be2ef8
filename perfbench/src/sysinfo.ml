(* The run's environment: the pinned variables, and what the result records
   about the code and machine it measured. *)

(* Knobs that change how the library runs without changing its results —
   pool size, chunking, the dynamic-SPF and pruning escape hatches — and
   the OCaml runtime's own settings.  Timed runs never inherit them. *)
let pinned = [ "DTR_JOBS"; "DTR_CHUNK_SIZE"; "DTR_NO_DSPF"; "DTR_NO_PRUNE"; "OCAMLRUNPARAM" ]

let is_pinned binding =
  match String.index_opt binding '=' with
  | Some i -> List.mem (String.sub binding 0 i) pinned
  | None -> false

let clean_env () =
  Array.of_list (List.filter (fun b -> not (is_pinned b)) (Array.to_list (Unix.environment ())))

(* Library modules read these variables when they initialise, so clearing
   them has to happen before the program starts: re-execute without them. *)
let pin_environment () =
  if List.exists (fun v -> Sys.getenv_opt v <> None) pinned then
    Unix.execve Sys.executable_name Sys.argv (clean_env ())

(* Reads to end of file; /proc files report no length, so no seeking. *)
let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

(* The checked-out commit, read from .git directly so that a checkout
   without git metadata reports none instead of an enclosing repository's. *)
let commit () =
  let trim = String.trim in
  match read_file ".git/HEAD" with
  | None -> None
  | Some head -> (
      let head = trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; ref_ ] -> (
          match read_file (Filename.concat ".git" ref_) with
          | Some h -> Some (trim h)
          | None ->
              Option.bind (read_file ".git/packed-refs") (fun packed ->
                  List.find_map
                    (fun l ->
                      match String.split_on_char ' ' l with
                      | [ h; r ] when r = ref_ -> Some h
                      | _ -> None)
                    (String.split_on_char '\n' packed)))
      | _ -> Some head)

(* Digest of the program's sources, which identifies the measured code
   even where there is no commit to name. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                   || Filename.basename p = "dune"
           then [ p ]
           else [])
  in
  let paths = List.concat_map (fun d -> if Sys.file_exists d then files d else []) [ "lib"; "bin" ] in
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.map (fun p -> p ^ "\000" ^ Option.value (read_file p) ~default:"") paths)))

(* A field of a process's /proc status file (pid 0: this process). *)
let status_field pid key =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  Option.bind (read_file path) (fun s ->
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when String.sub l 0 i = key ->
              Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        (String.split_on_char '\n' s))

(* High-water resident set of a process, in MB. *)
let peak_rss_mb pid =
  match Option.map (String.split_on_char ' ') (status_field pid "VmHWM") with
  | Some (kb :: _) -> float_of_string kb /. 1024.
  | _ -> nan

let cpus_allowed () = status_field 0 "Cpus_allowed_list"

(* Online processors, whatever this process's affinity. *)
let nproc () =
  match read_file "/proc/cpuinfo" with
  | Some s ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' s))
  | None -> Domain.recommended_domain_count ()

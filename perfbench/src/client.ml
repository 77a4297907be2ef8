(* One closed-loop client of a dtr-serve subprocess over its stdin/stdout
   pipe: each request is sent only after the previous reply arrived. *)

type t = {
  pid : int;
  to_daemon : Unix.file_descr;
  from_daemon : Unix.file_descr;
  buf : Buffer.t;  (* bytes read past the last complete line *)
  chunk : Bytes.t;
}

exception Timeout

(* Path of the dtr-serve executable the benchmark built. *)
let exe = "_build/default/bin/dtr_serve.exe"

let spawn args =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (Sysinfo.clean_env ()) stdin_r stdout_w devnull
  in
  List.iter Unix.close [ stdin_r; stdout_w; devnull ];
  { pid; to_daemon = stdin_w; from_daemon = stdout_r; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let rec read_line t ~deadline =
  let s = Buffer.contents t.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear t.buf;
      Buffer.add_substring t.buf s (i + 1) (String.length s - i - 1);
      String.sub s 0 i
  | None ->
      let wait = deadline -. Clock.now () in
      if wait <= 0. then raise Timeout;
      (match Unix.select [ t.from_daemon ] [] [] wait with
      | [], _, _ -> raise Timeout
      | _ ->
          let n = Unix.read t.from_daemon t.chunk 0 (Bytes.length t.chunk) in
          if n = 0 then raise End_of_file;
          Buffer.add_subbytes t.buf t.chunk 0 n);
      read_line t ~deadline

(* Sends one request line and waits for its reply; returns the reply and
   the round trip in seconds. *)
let request t ?(timeout = 120.) line =
  let t0 = Clock.now () in
  write_all t.to_daemon (line ^ "\n") 0;
  let reply = read_line t ~deadline:(t0 +. timeout) in
  (reply, Clock.now () -. t0)

(* Asks the daemon to shut down and reaps it; kills it if it does not go. *)
let close t =
  (try ignore (request t ~timeout:10. {|{"id": -1, "event": "shutdown"}|}) with _ -> ());
  (try Unix.close t.to_daemon with Unix.Unix_error _ -> ());
  (try Unix.close t.from_daemon with Unix.Unix_error _ -> ());
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.05;
        reap (tries - 1)
    | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap tries
  in
  reap 100

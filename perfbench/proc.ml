(* The server as it ships, driven from outside: spawn
   `chronicle-cli serve --durable DIR`, take readiness from its
   `listening on` stdout line (never connect polling), talk the wire
   protocol over one Unix-domain connection, and SIGKILL it. *)

module P = Chronicle_net.Protocol
module Wire = Chronicle_net.Wire

let now = Unix.gettimeofday

type server = {
  pid : int;
  mutable reaped : bool;
  out : in_channel;  (** the server's stdout *)
  recovered : string option;  (** its `recovered …` line, if any *)
  ready_s : float;  (** spawn to `listening on` *)
}

let spawn ~exe ~socket ~dir ~sync ~batch =
  let argv =
    [|
      exe; "serve"; "--socket"; socket; "--durable"; dir; "--sync"; sync;
      "--batch"; string_of_int batch; "--jobs"; "1";
    |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now () in
  let pid = Unix.create_process exe argv devnull w Unix.stderr in
  Unix.close w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr r in
  let rec ready recovered =
    match input_line out with
    | line when String.starts_with ~prefix:"listening on" line -> recovered
    | line when String.starts_with ~prefix:"recovered" line -> ready (Some line)
    | _ -> ready recovered
    | exception End_of_file ->
        ignore (Unix.waitpid [] pid);
        close_in_noerr out;
        failwith "server exited before listening"
  in
  let recovered = ready None in
  { pid; reaped = false; out; recovered; ready_s = now () -. t0 }

(* Peak resident set of the server, from /proc. *)
let vm_hwm_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* CPU time the server has run, in seconds, from the scheduler's
   nanosecond account: unlike wall time it leaves out time the virtual
   CPU was taken away by the host. *)
let cpu_s s =
  let ic = open_in (Printf.sprintf "/proc/%d/schedstat" s.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Scanf.sscanf (input_line ic) "%d" (fun ns -> float_of_int ns /. 1e9))

let kill s =
  if not s.reaped then begin
    s.reaped <- true;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid);
    close_in_noerr s.out
  end

(* ---- one client connection ---- *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable data : string;  (** received bytes from [pos] on are unframed *)
  mutable pos : int;
  mutable closed : bool;
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; chunk = Bytes.create 65536; data = ""; pos = 0; closed = false }

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let send c bytes =
  let len = String.length bytes in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring c.fd bytes !sent (len - !sent)
  done

let rec recv c =
  match Wire.split c.data ~pos:c.pos with
  | `Frame (payload, next) ->
      c.pos <- next;
      P.decode_response payload
  | `Need_more -> (
      match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> raise End_of_file
      | n ->
          c.data <-
            String.sub c.data c.pos (String.length c.data - c.pos)
            ^ Bytes.sub_string c.chunk 0 n;
          c.pos <- 0;
          recv c)

(* One request, one response (STMT answering one statement, FLUSH). *)
let call c frame =
  send c frame;
  recv c

(* Total bytes of the files directly under [dir]. *)
let dir_bytes dir =
  Array.fold_left
    (fun acc name -> acc + (Unix.stat (Filename.concat dir name)).Unix.st_size)
    0 (Sys.readdir dir)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

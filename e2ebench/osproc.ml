(* Every system call the benchmark makes around the program under test:
   loopback sockets, spawning and killing the server, /proc reads and
   scratch directories. The rest of the benchmark talks to the program
   only through its public OCaml API and through these wrappers. *)

(* --- child processes ----------------------------------------------------- *)

let live = ref []

let forget pid = live := List.filter (fun p -> p <> pid) !live

(* ralint: allow P3 — the benchmark waits for every server it started *)
let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  forget pid

(* ralint: allow P3 — kill -9 is the crash the recovery metric measures *)
let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let kill_all () = List.iter kill !live

let () =
  at_exit kill_all;
  let stop = Sys.Signal_handle (fun _ -> exit 2) in
  Sys.set_signal Sys.sigterm stop;
  Sys.set_signal Sys.sigint stop;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* The child's start-up banner is dropped and its stderr is ours, so the
   last line of our stdout stays the result line.
   ralint: allow P3 — the server under test runs as its own process *)
let spawn prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) null null Unix.stderr)
  in
  live := pid :: !live;
  pid

(* ralint: allow P3 — detects a server that died on a taken port *)
let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      forget pid;
      true
  | exception Unix.Unix_error _ ->
      forget pid;
      true

(* ralint: allow P3 — the set-up poll waits between connection attempts *)
let sleep s = Unix.sleepf s

(* Exit (killing every child on the way out) if the run overstays.
   ralint: allow P3 — a timer signal bounds the run's wall time *)
let watchdog seconds =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "e2e: run exceeded its time limit";
         exit 3));
  ignore (Unix.alarm seconds)

(* --- /proc ----------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Peak resident set (VmHWM) of [pid], or of this process, in MB. *)
let peak_rss_mb ?pid () =
  let who = match pid with Some p -> string_of_int p | None -> "self" in
  let kb =
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
            match String.split_on_char ' ' (String.trim v) with
            | n :: _ -> int_of_string_opt n
            | [] -> None)
        | _ -> None)
      (read_lines (Printf.sprintf "/proc/%s/status" who))
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith ("no VmHWM for process " ^ who)

(* --- scratch directories --------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* --- loopback sockets ------------------------------------------------------ *)

type sock = Unix.file_descr

(* ralint: allow P3 — every socket here is on the loopback interface *)
let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* A port nothing listens on right now. Another process may take it before
   the server binds; callers detect that (the server exits) and retry.
   ralint: allow P3 — probing the kernel for a free loopback port *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (loopback 0);
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

(* Blocking connect, then non-blocking for the open-loop client. Nagle is
   off so a request leaves when it is due, not when the previous one is
   acknowledged.
   ralint: allow P3 — the load generator's client sockets *)
let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (loopback port) with
  | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.set_nonblock fd;
      Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* ralint: allow P3 — the load generator's client sockets *)
let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [Some n] bytes written, [None] when the socket buffer is full.
   ralint: allow P3 — the load generator's client sockets *)
let send fd buf off len =
  match Unix.single_write fd buf off len with
  | n -> Some n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None

type recv = Data of int | Would_block | Closed

(* ralint: allow P3 — the load generator's client sockets *)
let recv fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> Closed
  | n -> Data n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Would_block
  | exception Unix.Unix_error _ -> Closed

(* ralint: allow P3 — the load generator waits on its sockets until the next
   request falls due *)
let wait ~readable ~writable ~timeout_s =
  match Unix.select readable writable [] (Float.max 0. timeout_s) with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

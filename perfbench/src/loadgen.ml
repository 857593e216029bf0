(* The serve process and the closed-loop load generator that drives it.

   One process, two connection slots, one request in flight per
   connection (the protocol's own rule): a slot sends its next request
   only when the previous response line has fully arrived. With
   [rounds], the slots also wait for each other: each sends its next
   request once every slot's previous response has arrived. Core-churn's
   slots put the same kind of request at the same position, so the two
   requests of a round are alike and the one that arrives second waits
   behind its twin on the server's one pool worker. Left to run freely,
   the slots drift in and out of step, and which queries wait behind the
   other slot's [mmp] changes from run to run; that moved core-churn's
   query median by up to half. Responses are kept as digests and
   checked against the replay afterwards, so no checking happens inside
   a timed phase. *)

let now = Summary.now

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)

type server = { pid : int; socket : string }

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

(* An empty directory [dir/name]. *)
let fresh_dir dir name =
  let d = Filename.concat dir name in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755;
  d

(* Serve with no tracing, logging, slow capture, invariant checks or
   environment-named store: only the flags the workload asks for. *)
let spawn ~exe ~dir ~store =
  let socket = Filename.concat dir "serve.sock" in
  let store_args = if store then [ "--store"; fresh_dir dir "store" ] else [] in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"NETTOMO_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let args =
    Array.of_list
      ([ exe; "serve"; "--listen"; socket; "--jobs"; "2"; "--no-wall-time" ]
      @ store_args)
  in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process_env exe args env null log log in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  { pid; socket }

let forget pid = live := List.filter (fun p -> p <> pid) !live

(* Peak RSS (MiB, read before shutdown), then a graceful SIGTERM drain;
   SIGKILL if the drain overruns. *)
let stop server =
  let rss = Summary.peak_rss_mib server.pid in
  (try Unix.kill server.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] server.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] server.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  forget server.pid;
  rss

(* ------------------------------------------------------------------ *)
(* Request lines                                                       *)

(* Rendered lines per session; sessions that share their operation
   array (reconnect-warm reuses 64 states) share one rendering. *)
let render_slot (slot : Streams.slot) =
  let memo = ref [] in
  Array.map
    (fun s ->
      match List.assq_opt s !memo with
      | Some l -> l
      | None ->
          let l = Streams.lines s in
          memo := (s, l) :: !memo;
          l)
    slot.Streams.sessions

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

type conn = {
  lines : string array array;  (** per session *)
  latency : float array;  (** seconds, per request; nan until answered *)
  finished : float array;  (** when the response completed (epoch s) *)
  digest : string array;  (** response digest per request *)
  error : bool array;  (** response carried status "error" *)
  mutable connects : float list;  (** socket open to first response byte *)
  mutable si : int;  (** session of the next request *)
  mutable li : int;  (** its index within the session *)
  mutable k : int;  (** flattened index of the next request *)
  mutable fd : Unix.file_descr option;
  mutable opened : float;
  mutable first_byte : bool;  (** still waiting for this connection's first byte *)
  mutable sent : float;
  mutable inflight : bool;
  mutable dead : bool;
  buf : Buffer.t;
}

type t = { socket : string; rounds : bool; conns : conn array }

let create ~socket ~rounds rendered =
  {
    socket;
    rounds;
    conns =
      Array.map
        (fun lines ->
          let n = Array.fold_left (fun n s -> n + Array.length s) 0 lines in
          {
            lines;
            latency = Array.make n Float.nan;
            finished = Array.make n Float.nan;
            digest = Array.make n "";
            error = Array.make n false;
            connects = [];
            si = 0;
            li = 0;
            k = 0;
            fd = None;
            opened = 0.;
            first_byte = false;
            sent = 0.;
            inflight = false;
            dead = false;
            buf = Buffer.create 65536;
          })
        rendered;
  }

(* The server binds before it serves, but the socket file appears only
   once the process is up: retry until the deadline. *)
let rec connect path ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
    when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      connect path ~deadline
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close_conn c =
  Option.iter Unix.close c.fd;
  c.fd <- None

(* A response's status is the second field of every response line. *)
let is_error line =
  let probe = {|"status":"error"|} in
  let n = min (String.length line) 64 in
  let rec at i =
    i + String.length probe <= n
    && (String.sub line i (String.length probe) = probe || at (i + 1))
  in
  at 0

let send t c ~deadline =
  (if c.fd = None then
     match connect t.socket ~deadline with
     | Some fd ->
         c.fd <- Some fd;
         c.opened <- now ();
         c.first_byte <- true
     | None -> c.dead <- true);
  match c.fd with
  | None -> ()
  | Some fd -> (
      let line = c.lines.(c.si).(c.li) ^ "\n" in
      c.sent <- now ();
      match Unix.write_substring fd line 0 (String.length line) with
      | _ -> c.inflight <- true
      | exception Unix.Unix_error _ ->
          close_conn c;
          c.dead <- true)

let complete c =
  let t = now () in
  let resp = Buffer.sub c.buf 0 (Buffer.length c.buf - 1) in
  Buffer.clear c.buf;
  c.latency.(c.k) <- t -. c.sent;
  c.finished.(c.k) <- t;
  c.digest.(c.k) <- Digest.string resp;
  c.error.(c.k) <- is_error resp;
  c.inflight <- false;
  c.k <- c.k + 1;
  c.li <- c.li + 1;
  if c.li = Array.length c.lines.(c.si) then (
    close_conn c;
    c.si <- c.si + 1;
    c.li <- 0)

let chunk = Bytes.create 65536

let receive c fd =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 ->
      close_conn c;
      c.dead <- true
  | n ->
      if c.first_byte then (
        c.first_byte <- false;
        c.connects <- (now () -. c.opened) :: c.connects);
      Buffer.add_subbytes c.buf chunk 0 n;
      if Bytes.get chunk (n - 1) = '\n' then complete c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ ->
      close_conn c;
      c.dead <- true

(* Drive every slot until it has completed [target.(slot)] requests (or
   died, or the deadline passed). Returns false on a dead slot or a
   missed deadline. *)
let run_until t target ~deadline =
  let rec loop () =
    if (not t.rounds) || Array.for_all (fun c -> not c.inflight) t.conns then
      Array.iteri
        (fun i c ->
          if (not c.dead) && (not c.inflight) && c.k < target.(i) then
            send t c ~deadline)
        t.conns;
    let waiting =
      Array.to_list t.conns
      |> List.filter_map (fun c -> if c.inflight then c.fd else None)
    in
    if waiting <> [] then
      if now () > deadline then (
        Array.iter
          (fun c ->
            if c.inflight then (
              close_conn c;
              c.dead <- true))
          t.conns;
        false)
      else
        match Unix.select waiting [] [] 0.5 with
        | ready, _, _ ->
            Array.iter
              (fun c ->
                match c.fd with
                | Some fd when c.inflight && List.mem fd ready -> receive c fd
                | Some _ | None -> ())
              t.conns;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    else Array.for_all (fun c -> not c.dead) t.conns
  in
  loop ()

let close t = Array.iter close_conn t.conns

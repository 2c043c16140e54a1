type request = { meth : string; path : string; body : string }

let close_quiet fd = try Unix.close fd with _ -> ()

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let send fd s = write_all fd s 0 (String.length s)

let respond fd ~status ?(headers = []) ~ctype body =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  send fd
    (Printf.sprintf
       "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: \
        close\r\n\r\n"
       status ctype (String.length body) extra);
  send fd body

let start_chunked fd ~ctype =
  send fd
    (Printf.sprintf
       "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nTransfer-Encoding: \
        chunked\r\nConnection: close\r\n\r\n"
       ctype)

let send_chunk fd s =
  if s <> "" then send fd (Printf.sprintf "%x\r\n%s\r\n" (String.length s) s)

let send_last_chunk fd = send fd "0\r\n\r\n"

(* ---------- request parsing ---------- *)

let find_head_end s =
  let i = ref (-1) in
  (try
     for j = 0 to String.length s - 4 do
       if !i < 0 && String.sub s j 4 = "\r\n\r\n" then i := j
     done
   with _ -> ());
  !i

(* header values we care about are ASCII; a simple lowercase suffices *)
let content_length head =
  let lower = String.lowercase_ascii head in
  let key = "content-length:" in
  match
    String.split_on_char '\n' lower
    |> List.find_opt (fun line ->
           String.length line >= String.length key
           && String.sub line 0 (String.length key) = key)
  with
  | None -> 0
  | Some line -> (
      let v =
        String.trim
          (String.sub line (String.length key)
             (String.length line - String.length key))
      in
      match int_of_string_opt v with Some n when n >= 0 -> n | _ -> 0)

(* Read until the blank line (8 KiB head cap, relying on the socket
   timeout the loop set), then drain Content-Length body bytes. *)
let read_request ?(max_body = 1 lsl 20) fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let read_more () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> false
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    | exception _ -> false
  in
  let rec head_loop () =
    let s = Buffer.contents buf in
    match find_head_end s with
    | -1 ->
        if Buffer.length buf > 8192 then None
        else if read_more () then head_loop ()
        else None
    | i -> Some (s, i)
  in
  match head_loop () with
  | None -> None
  | Some (s, head_end) -> (
      let head = String.sub s 0 head_end in
      let want = content_length head in
      if want > max_body then None
      else
        let body_start = head_end + 4 in
        let rec body_loop () =
          if Buffer.length buf - body_start >= want then
            Some (String.sub (Buffer.contents buf) body_start want)
          else if read_more () then body_loop ()
          else None
        in
        match body_loop () with
        | None -> None
        | Some body -> (
            match String.index_opt head '\r' with
            | None -> None
            | Some eol -> (
                let line = String.sub head 0 eol in
                match String.split_on_char ' ' line with
                | meth :: target :: _ ->
                    let path =
                      match String.index_opt target '?' with
                      | None -> target
                      | Some i -> String.sub target 0 i
                    in
                    Some { meth; path; body }
                | _ -> None)))

(* ---------- line rings ---------- *)

type ring = {
  items : string Queue.t;  (** oldest first; seqs [base_seq, next_seq) *)
  cap : int;
  mutable base_seq : int;
  mutable next_seq : int;
}

let ring_create cap =
  { items = Queue.create (); cap = max 1 cap; base_seq = 0; next_seq = 0 }

let ring_push r line =
  Queue.push line r.items;
  r.next_seq <- r.next_seq + 1;
  if Queue.length r.items > r.cap then begin
    ignore (Queue.pop r.items);
    r.base_seq <- r.base_seq + 1
  end

let ring_since r since =
  let lines = ref [] in
  let seq = ref r.base_seq in
  Queue.iter
    (fun line ->
      if !seq >= since then lines := line :: !lines;
      incr seq)
    r.items;
  List.rev !lines

let ring_next_seq r = r.next_seq

(* ---------- the accept loop ---------- *)

type t = {
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  bound_port : int;
  dom : unit Domain.t;
  stop_mu : Mutex.t;
  mutable stopped : bool;
}

let serve listen_fd stop_r ~handle ~tick ~on_stop =
  let running = ref true in
  while !running do
    let rs, _, _ =
      try Unix.select [ listen_fd; stop_r ] [] [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem stop_r rs then running := false
    else begin
      if List.mem listen_fd rs then begin
        match (try Some (Unix.accept ~cloexec:true listen_fd) with _ -> None)
        with
        | None -> ()
        | Some (fd, _) -> (
            (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with _ -> ());
            match read_request fd with
            | None -> close_quiet fd
            | Some req -> ( try handle fd req with _ -> close_quiet fd))
      end;
      try tick () with _ -> ()
    end
  done;
  try on_stop () with _ -> ()

let sigpipe_ignored = ref false

let start ?(addr = "127.0.0.1") ~port ~handle ?(tick = ignore)
    ?(on_stop = ignore) () =
  if not !sigpipe_ignored then begin
    sigpipe_ignored := true;
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
    with Invalid_argument _ -> ()
  end;
  match Unix.inet_addr_of_string addr with
  | exception Failure _ -> Error (Printf.sprintf "bad listen address %S" addr)
  | inet -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (inet, port));
        Unix.listen fd 16;
        let bound_port =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        let stop_r, stop_w = Unix.pipe ~cloexec:true () in
        let dom =
          Domain.spawn (fun () -> serve fd stop_r ~handle ~tick ~on_stop)
        in
        Ok
          {
            listen_fd = fd;
            stop_r;
            stop_w;
            bound_port;
            dom;
            stop_mu = Mutex.create ();
            stopped = false;
          }
      with Unix.Unix_error (e, fn, _) ->
        close_quiet fd;
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let port t = t.bound_port

let stop t =
  Mutex.lock t.stop_mu;
  let first =
    if t.stopped then false
    else begin
      t.stopped <- true;
      true
    end
  in
  Mutex.unlock t.stop_mu;
  if first then begin
    (try ignore (Unix.write_substring t.stop_w "x" 0 1) with _ -> ());
    Domain.join t.dom;
    List.iter close_quiet [ t.listen_fd; t.stop_r; t.stop_w ]
  end

(* Learning-as-a-service daemon: accept learn jobs over HTTP, multiplex
   them onto a bounded pool of worker domains, and answer repeats from a
   content-addressed circuit cache (CEC-verified on every hit). *)

module Json = Lr_instr.Json
module Http = Lr_serve.Http
module Proto = Lr_serve.Proto
module Scheduler = Lr_serve.Scheduler
module Server = Lr_serve.Server

open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "error: %s\n" s;
      exit 1)
    fmt

let listen_arg =
  let doc = "Listen port; 0 binds an ephemeral port (see --port-file)." in
  Arg.(value & opt int 8123 & info [ "listen" ] ~docv:"PORT" ~doc)

let slots_arg =
  let doc = "Worker domains: learns running concurrently." in
  Arg.(value & opt int 2 & info [ "slots" ] ~docv:"N" ~doc)

let queue_arg =
  let doc =
    "Jobs allowed to wait beyond the running ones; a full queue answers \
     429 with Retry-After."
  in
  Arg.(value & opt int 16 & info [ "queue" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Persist the circuit cache here (<key>.lrc/<key>.json pairs, reloaded \
     on restart). In-memory only when absent."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let words_arg =
  let doc =
    "Fingerprint probe words (64 assignments each) behind the cache key."
  in
  Arg.(value & opt int 4 & info [ "fingerprint-words" ] ~docv:"N" ~doc)

let tenant_queries_arg =
  let doc =
    "Per-tenant total query quota; when set, every spec must carry an \
     explicit budget, reserved at submit."
  in
  Arg.(
    value & opt (some int) None & info [ "tenant-queries" ] ~docv:"N" ~doc)

let max_time_arg =
  let doc = "Refuse specs asking for a larger time budget than this." in
  Arg.(
    value
    & opt (some float) None
    & info [ "max-time-budget" ] ~docv:"SECONDS" ~doc)

let port_file_arg =
  let doc =
    "Write the bound port here once listening (handy with --listen 0)."
  in
  Arg.(
    value & opt (some string) None & info [ "port-file" ] ~docv:"FILE" ~doc)

let serve_run listen slots queue cache_dir words tenant_queries max_time
    port_file =
  if listen < 0 || listen > 0xffff then die "bad --listen port %d" listen;
  if slots < 1 then die "--slots must be >= 1";
  if queue < 0 then die "--queue must be >= 0";
  if words < 1 then die "--fingerprint-words must be >= 1";
  let sched =
    Scheduler.create ~slots ~queue_limit:queue ?cache_dir
      ~fingerprint_words:words ?tenant_queries ?max_time_budget_s:max_time ()
  in
  let srv = Server.create sched in
  match Server.start ~port:listen srv with
  | Error e ->
      Scheduler.shutdown sched;
      die "cannot listen on port %d: %s" listen e
  | Ok http ->
      let port = Http.port http in
      (match port_file with
      | None -> ()
      | Some f ->
          let oc =
            try open_out f
            with Sys_error m -> die "cannot write --port-file: %s" m
          in
          Printf.fprintf oc "%d\n" port;
          close_out oc);
      let on_signal _ = Server.request_shutdown srv in
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Printf.printf "lr_serve listening on 127.0.0.1:%d (%d slots, queue %d)\n%!"
        port slots queue;
      Server.wait_shutdown srv;
      Http.stop http;
      Scheduler.shutdown sched;
      0

let main =
  let doc = "learning-as-a-service daemon with a verified circuit cache" in
  Cmd.v
    (Cmd.info "lr_serve" ~doc)
    Term.(
      const serve_run $ listen_arg $ slots_arg $ queue_arg $ cache_dir_arg
      $ words_arg $ tenant_queries_arg $ max_time_arg $ port_file_arg)

let () = exit (Cmd.eval' main)

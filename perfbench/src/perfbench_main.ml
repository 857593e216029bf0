(* The serve benchmark driver.

     perfbench_main.exe --exe NETTOMO --work DIR --workload NAME
                        --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics: [servers] fresh `nettomo
   serve` processes, one after the other, each set up and then driven
   through a measured request list of its own, sized so that the
   measured phases add up to S seconds. --trace 1 makes one live run
   and then measures every layer in-process (see Layers). Either way
   every live response is checked byte for byte against an in-process
   replay, and the last line of standard output is one JSON object with
   the verdict and the metrics. *)

open Perfbench
module Jsonx = Nettomo_util.Jsonx

let default_seed = 1

(* Fresh servers per end-to-end run. Server [i] gets the streams of
   seed [seed × servers + i], so a run visits [servers] times as many
   states as one server would in its share of the time: on
   access-solve a few costly coverage states of one draw otherwise set
   the p99. The medians over servers and over their segments ride out a
   slow spell of the host that covers less than half the run. *)
let servers = 3
let server_seed seed i = (seed * servers) + i

(* The traced run costs about four times its stream's live time, so its
   stream is sized for at most this many seconds. *)
let trace_seconds = 15.

(* States sampled for the from-scratch layer costs: access-solve's
   AT&T-sized states take about a second each. *)
let samples = function "access-solve" -> 6 | _ -> 24
let run_budget_s = 150.

let usage () =
  prerr_endline
    "usage: perfbench_main.exe --exe NETTOMO --work DIR --workload \
     (core-churn|access-solve|reconnect-warm) [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then (
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755)

type args = {
  exe : string;
  work : string;
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
}

let parse_args () =
  let exe = ref "" and work = ref "" and workload = ref "" in
  let seed = ref default_seed and seconds = ref 15 and trace = ref 0 in
  let rec go = function
    | "--exe" :: v :: rest -> exe := v; go rest
    | "--work" :: v :: rest -> work := v; go rest
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> int_arg seed v rest
    | "--seconds" :: v :: rest -> int_arg seconds v rest
    | "--trace" :: v :: rest -> int_arg trace v rest
    | [] -> ()
    | _ -> usage ()
  and int_arg r v rest =
    match int_of_string_opt v with Some i -> r := i; go rest | None -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !exe = "" || !work = "" || not (List.mem !workload Streams.names) then usage ();
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  { exe = !exe; work = !work; workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

let now = Summary.now

(* One live server: set-up phase, then (when [measure]) the measured
   phase. *)
type live = {
  lg : Loadgen.t;
  setup_s : float;
  measure_start : float;
  measured_s : float;
  rss_mib : float option;
  ok : bool;
}

let live_run a (w : Streams.workload) rendered ~measure ~deadline =
  let t0 = now () in
  let server = Loadgen.spawn ~exe:a.exe ~dir:a.work ~store:w.Streams.store in
  let lg = Loadgen.create ~socket:server.Loadgen.socket ~rounds:w.Streams.rounds rendered in
  let setup = Array.map (fun (s : Streams.slot) -> s.Streams.setup) w.Streams.slots in
  let ok = Loadgen.run_until lg setup ~deadline in
  let setup_s = now () -. t0 in
  let t1 = now () in
  let ok =
    ok && ((not measure) || Loadgen.run_until lg (Array.map Streams.requests w.Streams.slots) ~deadline)
  in
  let measured_s = now () -. t1 in
  Loadgen.close lg;
  let rss_mib = Loadgen.stop server in
  { lg; setup_s; measure_start = t1; measured_s; rss_mib; ok }

(* Requests of [lg] below [upto.(slot)] that got no answer, an error, or
   bytes other than the replay's. *)
let count_failed (lg : Loadgen.t) expected upto =
  let failed = ref 0 in
  Array.iteri
    (fun slot (c : Loadgen.conn) ->
      for k = 0 to upto.(slot) - 1 do
        if c.Loadgen.error.(k) || c.Loadgen.digest.(k) <> expected.(slot).(k) then incr failed
      done)
    lg.Loadgen.conns;
  !failed

(* The measured phase's requests as (completion time, latency in ms,
   is a query), in completion order. *)
let measured_requests (w : Streams.workload) (lg : Loadgen.t) =
  let rows = ref [] in
  Array.iteri
    (fun slot (c : Loadgen.conn) ->
      let slot = w.Streams.slots.(slot) in
      let ops = Array.concat (Array.to_list slot.Streams.sessions) in
      for k = slot.Streams.setup to Array.length ops - 1 do
        rows := (c.Loadgen.finished.(k), c.Loadgen.latency.(k) *. 1e3, Streams.is_query ops.(k)) :: !rows
      done)
    lg.Loadgen.conns;
  let rows = Array.of_list !rows in
  Array.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) rows;
  rows

(* One server's measured phase cut into [segments] runs of consecutive
   completions, with each one's throughput. Throughput is reported as
   the median over every server's segments. *)
let segments = 5

let query_latencies rows =
  Array.of_list (List.filter_map (fun (_, l, q) -> if q then Some l else None) (Array.to_list rows))

let segment_rates rows ~start =
  let n = Array.length rows in
  let bound i = i * n / segments in
  let time i = if i = 0 then start else (fun (t, _, _) -> t) rows.(bound i - 1) in
  Array.init segments (fun i -> float (bound (i + 1) - bound i) /. (time (i + 1) -. time i))

let metric_json (name, value, unit_) =
  (name, Jsonx.Obj [ ("value", Jsonx.Float value); ("unit", Jsonx.String unit_) ])

let emit ~correct ~attempted ~failed metrics =
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("correct", Jsonx.Bool correct);
            ("attempted", Jsonx.Int attempted);
            ("failed", Jsonx.Int failed);
            ("metrics", Jsonx.Obj (List.map metric_json metrics));
          ]));
  if not correct then exit 1

let invalid fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: run invalid: " ^ m);
      exit 1)
    fmt

let end_to_end a (ws : Streams.workload array) ~deadline =
  let rendered = Array.map (fun (w : Streams.workload) -> Array.map Loadgen.render_slot w.Streams.slots) ws in
  let totals (w : Streams.workload) = Array.map Streams.requests w.Streams.slots in
  (* Each server's replay runs right after it, so that the measured
     phases are spread over the whole run rather than bunched at its
     start. *)
  let checked =
    List.init servers (fun i ->
        let r = live_run a ws.(i) rendered.(i) ~measure:true ~deadline in
        (r, count_failed r.lg (Replay.digests rendered.(i)) (totals ws.(i))))
  in
  let runs = List.map fst checked in
  let attempted = Array.fold_left (fun n w -> n + Array.fold_left ( + ) 0 (totals w)) 0 ws in
  let failed = List.fold_left (fun n (_, f) -> n + f) 0 checked in
  let w = ws.(0) in
  let rows = List.mapi (fun i r -> measured_requests ws.(i) r.lg) runs in
  (* Latencies are pooled over the servers. *)
  let queries = Array.concat (List.map query_latencies rows) in
  let nq = Array.length queries in
  let per_server f = Array.of_list (List.map f runs) in
  let setup_times = per_server (fun r -> r.setup_s) in
  let failed_frac = float failed /. float attempted in
  let show fmt a = String.concat " " (Array.to_list (Array.map (Printf.sprintf fmt) a)) in
  Printf.printf "workload %s  seed %d  seconds %d  servers %d\n" w.Streams.name a.seed a.seconds servers;
  Printf.printf "  setup_s          %10.4f s      median of %d set-ups: %s\n"
    (Summary.median setup_times) servers (show "%.4f" setup_times);
  if failed > 0 || not (List.for_all (fun r -> r.ok) runs) then (
    Printf.printf "  failed_frac      %10.6f ratio  %d of %d requests\n" failed_frac failed attempted;
    emit ~correct:false ~attempted ~failed [])
  else if nq < Summary.p99_min_samples then
    invalid "%s measured only %d query samples (< %d)" w.Streams.name nq Summary.p99_min_samples
  else
    let seg_rps =
      Array.concat (List.map2 (fun r rows -> segment_rates rows ~start:r.measure_start) runs rows)
    in
    let rps = Summary.median seg_rps and p50 = Summary.median queries in
    let p99 = Summary.quantile queries 0.99 in
    let rss_all = per_server (fun r -> Option.value r.rss_mib ~default:Float.nan) in
    let rss = Summary.median rss_all in
    Printf.printf "  throughput_rps   %10.2f req/s  median of %d segments: %s (%d requests in %s s)\n"
      rps (Array.length seg_rps) (show "%.2f" seg_rps)
      (List.fold_left (fun n r -> n + Array.length r) 0 rows)
      (show "%.3f" (per_server (fun r -> r.measured_s)));
    Printf.printf "  query_p50_ms     %10.4f ms     n=%d; per server: %s\n" p50 nq
      (show "%.2f" (Array.of_list (List.map (fun r -> Summary.median (query_latencies r)) rows)));
    Printf.printf "  query_p99_ms     %10.4f ms     n=%d (%d beyond)\n" p99 nq
      (Array.fold_left (fun n x -> if x > p99 then n + 1 else n) 0 queries);
    Printf.printf "  server_rss_mb    %10.2f MiB    median VmHWM before shutdown: %s\n" rss
      (show "%.2f" rss_all);
    Printf.printf "  failed_frac      %10.6f ratio  %d of %d requests (byte-checked against the replay)\n"
      failed_frac failed attempted;
    if Array.exists Float.is_nan rss_all then invalid "server peak RSS unreadable";
    emit ~correct:true ~attempted ~failed
      [
        ("setup_s", Summary.median setup_times, "s");
        ("throughput_rps", rps, "req/s");
        ("query_p50_ms", p50, "ms");
        ("query_p99_ms", p99, "ms");
        ("server_rss_mb", rss, "MiB");
      ]

let traced a w rendered ~deadline =
  let live = live_run a w rendered ~measure:true ~deadline in
  let expected = Replay.digests rendered in
  let r =
    Layers.run ~dir:a.work ~seed:a.seed ~samples:(samples w.Streams.name) w ~rendered ~expected
      ~live:live.lg
  in
  let out = Filename.dirname a.work in
  let base = Printf.sprintf "%s-seed%d" w.Streams.name a.seed in
  let trace_file = Filename.concat out ("trace-" ^ base ^ ".json") in
  let summary_file = Filename.concat out ("summary-" ^ base ^ ".json") in
  Jsonx.write_file trace_file (Spans.chrome_json r.Layers.spans);
  let metric_obj (m : Layers.metric) =
    ( m.Layers.name,
      Jsonx.Obj
        ([ ("unit", Jsonx.String m.Layers.unit_); ("n", Jsonx.Int m.Layers.n) ]
        @ match m.Layers.value with Some v -> [ ("value", Jsonx.Float v) ] | None -> []) )
  in
  Jsonx.write_file summary_file
    (Jsonx.Obj
       [
         ("workload", Jsonx.String w.Streams.name);
         ("seed", Jsonx.Int a.seed);
         ("metrics", Jsonx.Obj (List.map metric_obj r.Layers.metrics));
         ("notes", Jsonx.List (List.map (fun s -> Jsonx.String s) r.Layers.notes));
         ("spans", Jsonx.List (Spans.summary r.Layers.spans));
       ]);
  Printf.printf "workload %s  seed %d  traced run (trace: %s, summary: %s)\n"
    w.Streams.name a.seed trace_file summary_file;
  List.iter
    (fun (m : Layers.metric) ->
      match m.Layers.value with
      | Some v -> Printf.printf "  %-32s %12.4f %-8s n=%d\n" m.Layers.name v m.Layers.unit_ m.Layers.n
      | None -> Printf.printf "  %-32s %12s %-8s n=%d\n" m.Layers.name "n/a" m.Layers.unit_ m.Layers.n)
    r.Layers.metrics;
  List.iter (fun n -> Printf.printf "  %s\n" n) r.Layers.notes;
  let failed = r.Layers.failed in
  if failed > 0 || not live.ok then emit ~correct:false ~attempted:r.Layers.attempted ~failed []
  else
    let exported =
      List.map
        (fun name ->
          match List.find_opt (fun (m : Layers.metric) -> m.Layers.name = name) r.Layers.metrics with
          | Some { Layers.value = Some v; unit_; _ } -> (name, v, unit_)
          | Some { Layers.value = None; n; _ } -> invalid "%s has too few samples (n=%d)" name n
          | None -> invalid "%s was not measured" name)
        Layers.exported
    in
    emit ~correct:true ~attempted:r.Layers.attempted ~failed exported

let () =
  let a = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* In-process replays must see the same engine the server runs:
     no invariant re-derivation, no environment-named store. *)
  Nettomo_util.Invariant.set_enabled false;
  Unix.putenv "NETTOMO_STORE" "";
  rm_rf a.work;
  mkdir_p a.work;
  at_exit (fun () -> Loadgen.kill_all (); rm_rf a.work);
  let deadline = now () +. run_budget_s in
  if a.trace then
    let w = Streams.generate ~seed:a.seed ~seconds:(Float.min trace_seconds (float a.seconds)) a.workload in
    traced a w (Array.map Loadgen.render_slot w.Streams.slots) ~deadline
  else
    let seconds = float a.seconds /. float servers in
    end_to_end a
      (Array.init servers (fun i -> Streams.generate ~seed:(server_seed a.seed i) ~seconds a.workload))
      ~deadline

(* The traced run: per-layer costs measured from outside the library.

   Three passes over a workload's streams, after one live run against
   the real server and its check against the expected transcript
   ({!Replay}):
   - a traced replay of every request through in-process
     [Protocol.handle_line], which gives per-op service times, the
     tracing overhead and the GC cost of the replay, and — with the live
     latencies — how long each request waited inside the server;
   - a pass over the request lines timing [Jsonx.parse], [Edgelist.parse]
     of load documents and [Session.apply] of deltas on a shadow session;
   - from-scratch calls into the graph, core, coverage, measure, codec
     and store layers on a fixed sample of the queried states, reported
     beside how many analyses the sessions really ran (their [stats]). *)

open Nettomo_graph
module Jsonx = Nettomo_util.Jsonx
module Net = Nettomo_core.Net
module Mmp = Nettomo_core.Mmp
module Identifiability = Nettomo_core.Identifiability
module Coverage = Nettomo_coverage.Coverage
module Csr = Nettomo_measure.Csr
module Mpaths = Nettomo_measure.Paths
module Solve = Nettomo_measure.Solve
module Protocol = Nettomo_engine.Protocol
module Session = Nettomo_engine.Session
module Codec = Nettomo_engine.Codec
module Fingerprint = Nettomo_engine.Fingerprint
module Store = Nettomo_store.Store
module Edgelist = Nettomo_topo.Edgelist
module Obs = Nettomo_obs.Obs

type metric = {
  name : string;
  value : float option;  (** [None] when the samples do not support it *)
  unit_ : string;
  n : int;  (** samples behind the value *)
}

(* The per-layer metrics every workload produces; the traced run's
   result line carries exactly these. The rest are printed (and kept in
   the summary) where the workload exercises the layer. *)
let exported =
  [
    "server.wait_p50_ms"; "server.wait_p99_ms"; "server.connect_p50_ms";
    "protocol.load_p50_ms"; "protocol.mmp_p50_ms"; "protocol.identifiable_p50_ms";
    "protocol.solve_p50_ms"; "protocol.response_kb_mean"; "jsonx.parse_p50_ms";
    "session.memo_hit_ratio"; "session.block_hit_ratio"; "session.shortcut_ratio";
    "session.full_computes"; "graph.biconnected_p50_ms"; "graph.triconnected_p50_ms";
    "graph.cut_pairs_p50_ms"; "graph.three_connected_p50_ms"; "core.mmp_p50_ms";
    "core.identifiable_p50_ms"; "coverage.classify_p50_ms"; "coverage.fallback_ratio";
    "measure.csr_p50_ms"; "measure.plan_p50_ms"; "measure.recover_p50_ms";
    "codec.encode_p50_ms"; "codec.decode_p50_ms"; "store.find_p50_ms";
    "store.put_p50_ms"; "store.hit_ratio"; "store.mb_written"; "edgelist.parse_p50_ms";
    "gc.minor_mb_per_req"; "gc.major_collections"; "gc.heap_top_mb";
    "trace.overhead_frac";
  ]

(* A ratio over zero attempts reads 0. *)
let ratio name num den =
  { name; value = Some (if den = 0 then 0. else float num /. float den); unit_ = "ratio"; n = den }

let p50 name durs =
  {
    name;
    value = (if Array.length durs = 0 then None else Some (Summary.median durs));
    unit_ = "ms";
    n = Array.length durs;
  }

let p99 name durs =
  {
    name;
    value =
      (if Array.length durs >= Summary.p99_min_samples then
         Some (Summary.quantile durs 0.99)
       else None);
    unit_ = "ms";
    n = Array.length durs;
  }

let scalar name unit_ ~n v = { name; value = Some v; unit_; n }

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)

type counters = {
  mutable queries : int;
  mutable memo_hits : int;
  mutable shortcuts : int;
  mutable block_hits : int;
  mutable block_misses : int;
  mutable full_computes : int;
}

let add_stats c line =
  match Jsonx.parse line with
  | Error _ -> ()
  | Ok j ->
      let get k = Option.value (Option.bind (Jsonx.member k j) Jsonx.to_int_opt) ~default:0 in
      c.queries <- c.queries + get "queries";
      c.memo_hits <- c.memo_hits + get "memo_hits";
      c.shortcuts <- c.shortcuts + get "degree_shortcuts" + get "verdict_carries";
      c.block_hits <- c.block_hits + get "block_hits";
      c.block_misses <- c.block_misses + get "block_misses";
      c.full_computes <- c.full_computes + get "full_computes"

(* Replay every session of every slot in order, one fresh [Protocol.t]
   per session and one store shared by all of them when the workload
   runs with a store — the server's own arrangement, serialized. [each]
   wraps every [handle_line] call; the result is the responses' digests
   and byte counts per slot, and the sessions' [stats] summed. *)
let replay ~store (rendered : string array array array) each =
  let stats = { queries = 0; memo_hits = 0; shortcuts = 0; block_hits = 0; block_misses = 0; full_computes = 0 } in
  let digests =
    Array.mapi
      (fun slot sessions ->
        let out = ref [] in
        let k = ref 0 in
        Array.iter
          (fun lines ->
            let p = Protocol.create ~emit_wall_ms:false ?store () in
            Array.iter
              (fun line ->
                let resp = each ~slot ~k:!k (fun () -> Protocol.handle_line p line) in
                out := (Digest.string resp, String.length resp) :: !out;
                incr k)
              lines;
            add_stats stats (Protocol.handle_line p {|{"id":0,"op":"stats"}|}))
          sessions;
        Array.of_list (List.rev !out))
      rendered
  in
  (digests, stats)

(* ------------------------------------------------------------------ *)
(* From-scratch samples                                                *)

(* Up to [n] queried states, evenly spaced over the measured phase:
   the state right after each load or delta, as its first query saw it. *)
let sample_states (w : Streams.workload) n =
  let states = ref [] in
  Array.iter
    (fun (slot : Streams.slot) ->
      let k = ref 0 in
      Array.iter
        (fun session ->
          let base = !k in
          Streams.iter_query_states session (fun i g mon ->
              if base + i >= slot.Streams.setup && not (Streams.is_query session.(i - 1))
              then states := (g, mon) :: !states);
          k := base + Array.length session)
        slot.Streams.sessions)
    w.Streams.slots;
  let all = Array.of_list (List.rev !states) in
  let m = Array.length all in
  if m <= n then all else Array.init n (fun i -> all.(i * m / n))

(* A registry counter's value in the process-wide metrics dump, e.g.
   [session_memo_misses_total{query="mmp"} 17]. *)
let dump_counter dump key =
  String.split_on_char '\n' dump
  |> List.find_map (fun line ->
         match String.rindex_opt line ' ' with
         | Some i when String.sub line 0 i = key ->
             int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
         | Some _ | None -> None)
  |> Option.value ~default:0

type sample_costs = { fallback_links : int; links : int }

(* Time each layer's from-scratch public call on one state. Library
   precondition failures are part of the measured work, not errors. *)
let sample_state spans ~seed ~store (g, mon) =
  let net = Streams.net_of g mon in
  let call name f = Spans.span spans name (fun () -> try Some (f ()) with Invalid_argument _ -> None) in
  Spans.span spans "sample.state" @@ fun () ->
  ignore (call "graph.biconnected" (fun () -> Biconnected.decompose g));
  ignore (call "graph.triconnected" (fun () -> Triconnected.decompose g));
  ignore (call "graph.cut_pairs" (fun () -> Separation.cut_pairs g));
  ignore (call "graph.three_connected" (fun () -> Separation.is_three_vertex_connected g));
  let report = call "core.mmp" (fun () -> Mmp.place_report g) in
  let ident = call "core.identifiable" (fun () -> Identifiability.network_identifiable net) in
  let coverage =
    match
      call "coverage.classify" (fun () ->
          try Some (Coverage.classify ~seed net) with Paths.Limit_exceeded -> None)
    with
    | Some c -> c
    | None -> None
  in
  let sol =
    match call "measure.csr" (fun () -> Csr.of_net net) with
    | None -> None
    | Some csr -> (
        match call "measure.plan" (fun () -> Mpaths.of_csr csr) with
        | None | Some (Error _) -> None
        | Some (Ok plan) ->
            let truth = Session.Scratch.truth_of ~seed net in
            let w =
              Array.map
                (fun e ->
                  Nettomo_linalg.Rational.to_float
                    (Nettomo_core.Measurement.weight truth e))
                csr.Csr.edges
            in
            let values = Mpaths.measure plan w in
            call "measure.recover" (fun () -> Solve.recover plan values))
  in
  let result = function Some v -> Ok v | None -> Error "precondition" in
  let e_report, e_ident, e_cov, e_sol =
    Spans.span spans "codec.encode" (fun () ->
        ( Codec.encode_report (result report),
          Codec.encode_identifiable (result ident),
          Codec.encode_coverage (result coverage),
          Codec.encode_solution (result sol) ))
  in
  Spans.span spans "codec.decode" (fun () ->
      ignore (Codec.decode_report e_report);
      ignore (Codec.decode_identifiable e_ident);
      ignore (Codec.decode_coverage e_cov);
      ignore (Codec.decode_solution e_sol));
  let fp = Fingerprint.of_net net in
  let artifacts =
    [
      (Codec.key_report (Fingerprint.structure fp), e_report);
      (Codec.key_identifiable fp, e_ident);
      (Codec.key_coverage ~seed fp, e_cov);
      (Codec.key_solution ~seed fp, e_sol);
    ]
  in
  Spans.span spans "store.put" (fun () ->
      List.iter (fun (k, v) -> Store.put store k v) artifacts);
  Spans.span spans "store.find" (fun () ->
      List.iter (fun (k, _) -> ignore (Store.find store k)) artifacts);
  match coverage with
  | None -> { fallback_links = 0; links = 0 }
  | Some (c : Coverage.report) ->
      let fallback =
        Graph.EdgeMap.fold
          (fun _ (v : Coverage.verdict) n ->
            match v.Coverage.reason with
            | Coverage.Block_rank | Coverage.Rank | Coverage.Unresolved -> n + 1
            | Coverage.Whole_network | Coverage.Monitor_link | Coverage.Low_degree
            | Coverage.Unmeasurable | Coverage.Block_theorem ->
                n)
          c.Coverage.verdicts 0
      in
      { fallback_links = fallback; links = Graph.EdgeMap.cardinal c.Coverage.verdicts }

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)

type result = {
  metrics : metric list;
  failed : int;  (** live responses that differ from the replay *)
  attempted : int;
  notes : string list;  (** human-readable cross-layer checks *)
  spans : Spans.t;
}

let now = Summary.now

let run ~dir ~seed ~samples (w : Streams.workload) ~rendered ~expected ~(live : Loadgen.t) =
  let store name = if w.Streams.store then Some (Store.open_dir (Loadgen.fresh_dir dir name)) else None in
  let op_names =
    Array.map
      (fun (slot : Streams.slot) ->
        Array.concat (Array.to_list (Array.map (Array.map Streams.op_name) slot.Streams.sessions)))
      w.Streams.slots
  in
  let setup = Array.map (fun (s : Streams.slot) -> s.Streams.setup) w.Streams.slots in
  let total = Array.fold_left (fun n a -> n + Array.length a) 0 op_names in
  (* 1. traced replay. The tracing overhead is taken inside it: each
     traced call is timed once more from outside its span, and the
     difference is the span's own cost. Two separate replays would
     compare two different stretches of the host's drifting speed. *)
  let spans = Spans.create () in
  let service = Array.map (fun a -> Array.make (Array.length a) Float.nan) op_names in
  let traced_store = store "replay-traced" in
  Obs.Metrics.reset ();
  let gc0 = Gc.quick_stat () in
  let req = ref 0 in
  let outer = ref 0. and inner = ref 0. in
  let traced, stats =
    replay ~store:traced_store rendered (fun ~slot ~k f ->
        incr req;
        let t = now () in
        let r =
          Spans.with_request spans !req (fun () ->
              Spans.span spans ("protocol." ^ op_names.(slot).(k)) f)
        in
        outer := !outer +. (now () -. t);
        service.(slot).(k) <- Spans.last_dur spans;
        inner := !inner +. service.(slot).(k);
        r)
  in
  let gc1 = Gc.quick_stat () in
  let dump = Obs.Metrics.dump () in
  (* correctness: live bytes = expected transcript = traced replay *)
  let failed = ref 0 in
  Array.iteri
    (fun slot (c : Loadgen.conn) ->
      Array.iteri
        (fun k d ->
          if c.Loadgen.error.(k) || c.Loadgen.digest.(k) <> d || fst traced.(slot).(k) <> d
          then incr failed)
        expected.(slot))
    live.Loadgen.conns;
  (* 2. per-request parse / apply costs *)
  Array.iteri
    (fun si (slot : Streams.slot) ->
      Array.iteri
        (fun j session ->
          let shadow = ref None in
          Array.iteri
            (fun i op ->
              incr req;
              Spans.with_request spans !req (fun () ->
                  let json =
                    Spans.span spans "jsonx.parse" (fun () -> Jsonx.parse rendered.(si).(j).(i))
                  in
                  match op with
                  | Streams.Load { graph; monitors; seed } ->
                      Option.iter
                        (fun text -> ignore (Spans.span spans "edgelist.parse" (fun () -> Edgelist.parse text)))
                        (Option.bind (Option.bind (Result.to_option json) (Jsonx.member "edges"))
                           Jsonx.to_string_opt);
                      if Array.exists (function Streams.Delta _ -> true | _ -> false) session then
                        shadow := Some (Session.create ~seed (Net.create graph ~monitors))
                  | Streams.Delta d ->
                      Option.iter
                        (fun s -> ignore (Spans.span spans "session.apply" (fun () -> Session.apply s d)))
                        !shadow
                  | Streams.Query _ -> ()))
            session)
        slot.Streams.sessions)
    w.Streams.slots;
  (* 3. from-scratch samples *)
  let scratch = Store.open_dir (Loadgen.fresh_dir dir "scratch-store") in
  let costs =
    Array.map (fun st -> sample_state spans ~seed ~store:scratch st) (sample_states w samples)
  in
  (* measured-phase views *)
  let measured f =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun slot names ->
              Array.of_list
                (List.filteri (fun k _ -> k >= setup.(slot)) (Array.to_list names)
                |> List.mapi (fun i name -> f slot (i + setup.(slot)) name)
                |> List.filter_map Fun.id))
            op_names))
  in
  (* Service times cover every replayed request, set-up included, so
     that loads count too. *)
  let service_ms op =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun slot names ->
              Array.of_list
                (List.filter_map Fun.id
                   (List.mapi
                      (fun k name -> if name = op then Some (service.(slot).(k) *. 1e3) else None)
                      (Array.to_list names))))
            op_names))
  in
  let waits =
    measured (fun slot k _ ->
        let l = live.Loadgen.conns.(slot).Loadgen.latency.(k) in
        if Float.is_nan l then None else Some ((l -. service.(slot).(k)) *. 1e3))
  in
  let resp_kb = measured (fun slot k _ -> Some (float (snd traced.(slot).(k)) /. 1024.)) in
  let connects =
    Array.of_list
      (List.concat_map (fun (c : Loadgen.conn) -> List.map (fun s -> s *. 1e3) c.Loadgen.connects)
         (Array.to_list live.Loadgen.conns))
  in
  let d name = Spans.durations_ms spans name in
  let ops = [ "load"; "delta"; "mmp"; "identifiable"; "coverage"; "solve" ] in
  let sst = match traced_store with Some s -> Store.stats s | None -> { Store.hits = 0; misses = 0; corrupt_skips = 0; puts = 0; evictions = 0 } in
  let store_bytes = match traced_store with Some s -> fst (Store.occupancy s) | None -> 0 in
  let fallback = Array.fold_left (fun n c -> n + c.fallback_links) 0 costs in
  let links = Array.fold_left (fun n c -> n + c.links) 0 costs in
  let mib words = float words *. float (Sys.word_size / 8) /. 1048576. in
  let metrics =
    [
      p50 "server.wait_p50_ms" waits;
      p99 "server.wait_p99_ms" waits;
      p50 "server.connect_p50_ms" connects;
    ]
    @ List.concat_map
        (fun op ->
          let s = service_ms op in
          [ p50 ("protocol." ^ op ^ "_p50_ms") s; p99 ("protocol." ^ op ^ "_p99_ms") s ])
        ops
    @ [
        scalar "protocol.response_kb_mean" "KiB" ~n:(Array.length resp_kb) (Summary.mean resp_kb);
        p50 "jsonx.parse_p50_ms" (d "jsonx.parse");
        p50 "session.apply_p50_ms" (d "session.apply");
        ratio "session.memo_hit_ratio" stats.memo_hits stats.queries;
        ratio "session.block_hit_ratio" stats.block_hits (stats.block_hits + stats.block_misses);
        ratio "session.shortcut_ratio" stats.shortcuts stats.queries;
        scalar "session.full_computes" "count" ~n:stats.queries (float stats.full_computes);
        p50 "graph.biconnected_p50_ms" (d "graph.biconnected");
        p50 "graph.triconnected_p50_ms" (d "graph.triconnected");
        p99 "graph.triconnected_p99_ms" (d "graph.triconnected");
        p50 "graph.cut_pairs_p50_ms" (d "graph.cut_pairs");
        p50 "graph.three_connected_p50_ms" (d "graph.three_connected");
        p50 "core.mmp_p50_ms" (d "core.mmp");
        p50 "core.identifiable_p50_ms" (d "core.identifiable");
        p50 "coverage.classify_p50_ms" (d "coverage.classify");
        p99 "coverage.classify_p99_ms" (d "coverage.classify");
        ratio "coverage.fallback_ratio" fallback links;
        p50 "measure.csr_p50_ms" (d "measure.csr");
        p50 "measure.plan_p50_ms" (d "measure.plan");
        p50 "measure.recover_p50_ms" (d "measure.recover");
        p50 "codec.encode_p50_ms" (d "codec.encode");
        p50 "codec.decode_p50_ms" (d "codec.decode");
        p50 "store.find_p50_ms" (d "store.find");
        p50 "store.put_p50_ms" (d "store.put");
        ratio "store.hit_ratio" sst.Store.hits (sst.Store.hits + sst.Store.misses);
        scalar "store.mb_written" "MiB" ~n:sst.Store.puts (float store_bytes /. 1048576.);
        p50 "edgelist.parse_p50_ms" (d "edgelist.parse");
        scalar "gc.minor_mb_per_req" "MiB/req" ~n:total
          (mib (int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words)) /. float total);
        scalar "gc.major_collections" "count" ~n:total
          (float (gc1.Gc.major_collections - gc0.Gc.major_collections));
        scalar "gc.heap_top_mb" "MiB" ~n:total (mib gc1.Gc.top_heap_words);
        scalar "trace.overhead_frac" "ratio" ~n:total ((!outer /. !inner) -. 1.);
      ]
  in
  (* Where the core queries' service time goes: the from-scratch graph
     cost of one analysis times the analyses the sessions really ran.
     Only without a store, where every memo miss is an analysis. *)
  let get name = List.find_map (fun m -> if m.name = name then m.value else None) metrics in
  let sum a = Array.fold_left ( +. ) 0. a in
  let misses q = dump_counter dump (Printf.sprintf "session_memo_misses_total{query=\"%s\"}" q) in
  let core_service = sum (d "protocol.mmp") +. sum (d "protocol.identifiable") in
  let notes =
    match (get "graph.biconnected_p50_ms", get "graph.triconnected_p50_ms", get "graph.three_connected_p50_ms") with
    | Some bi, Some tri, Some three when core_service > 0. && not w.Streams.store ->
        let mmp_computes = misses "mmp" in
        let id_computes = max 0 (misses "identifiable" - stats.shortcuts) in
        let graph_ms = ((bi +. tri) *. float mmp_computes) +. (three *. float id_computes) in
        [
          Printf.sprintf
            "graph share of mmp+identifiable service: %.3f (%d mmp and %d identifiable analyses x from-scratch graph cost = %.1f ms of %.1f ms)"
            (graph_ms /. core_service) mmp_computes id_computes graph_ms core_service;
        ]
    | _ -> []
  in
  { metrics; failed = !failed; attempted = total; notes; spans }

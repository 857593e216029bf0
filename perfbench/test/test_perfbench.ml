(* The serve benchmark's own checks: its stream generators keep the
   properties each workload is defined by, and its percentile and RSS
   readers compute what the report says they do. *)

open Nettomo_graph
open Perfbench
module Session = Nettomo_engine.Session
module Fingerprint = Nettomo_engine.Fingerprint

let requests ?(map = Fun.id) (w : Streams.workload) =
  Array.to_list w.Streams.slots
  |> List.concat_map (fun (s : Streams.slot) ->
         Array.to_list s.Streams.sessions
         |> List.concat_map (fun x -> Array.to_list (Streams.lines (Array.map map x))))

let small ~seed name = Streams.generate ~seed ~seconds:1. name

(* Loads carry the session seed; blanking it leaves only what the
   generators drew. *)
let blank_seed = function
  | Streams.Load l -> Streams.Load { l with seed = 0 }
  | (Streams.Delta _ | Streams.Query _) as op -> op

let test_seeded () =
  List.iter
    (fun name ->
      let a = small ~seed:3 name in
      Alcotest.(check (list string))
        (name ^ ": same seed, same bytes")
        (requests a)
        (requests (small ~seed:3 name));
      Alcotest.(check bool)
        (name ^ ": another seed, other draws")
        false
        (requests ~map:blank_seed a = requests ~map:blank_seed (small ~seed:4 name)))
    Streams.names

let session_ops (s : Streams.slot) = Array.concat (Array.to_list s.Streams.sessions)

let test_core_churn () =
  let w = small ~seed:5 "core-churn" in
  Array.iter
    (fun (slot : Streams.slot) ->
      let seen = Hashtbl.create 64 in
      let session = slot.Streams.sessions.(0) in
      let g = ref Graph.empty in
      Array.iter
        (function
          | Streams.Load { graph; _ } -> g := graph
          | Streams.Delta (Session.Remove_link (u, v)) ->
              Alcotest.(check bool) "removed link is not a bridge" false
                (Graph.EdgeSet.mem (Graph.edge u v) (Bridges.bridges !g));
              g := Graph.remove_edge !g u v
          | Streams.Delta (Session.Add_link (u, v)) -> g := Graph.add_edge !g u v
          | Streams.Delta _ -> Alcotest.fail "core-churn only adds and removes links"
          | Streams.Query _ -> ())
        session;
      Streams.iter_query_states session (fun i g mon ->
          if not (Streams.is_query session.(i - 1)) then (
            let fp = Fingerprint.to_string (Fingerprint.of_net (Streams.net_of g mon)) in
            Alcotest.(check bool) "queried state is new" false (Hashtbl.mem seen fp);
            Hashtbl.add seen fp ()));
      Alcotest.(check bool) "states were queried" true (Hashtbl.length seen > slot.Streams.setup / 5))
    w.Streams.slots;
  (* Sent in rounds, each request waits only behind its twin. *)
  let kinds (s : Streams.slot) = Array.map Streams.op_name (session_ops s) in
  Alcotest.(check bool) "sent in rounds" true w.Streams.rounds;
  Alcotest.(check (array string)) "both slots put the same op at the same place"
    (kinds w.Streams.slots.(0)) (kinds w.Streams.slots.(1));
  Alcotest.(check int) "both slots warm up alike" w.Streams.slots.(0).Streams.setup
    w.Streams.slots.(1).Streams.setup

let test_access_solve () =
  let slot = Streams.access_solve_slot ~seed:5 ~slot:0 ~prefix:4 ~rounds:120 in
  let ops = session_ops slot in
  let g0 = match ops.(0) with Streams.Load { graph; _ } -> graph | _ -> Alcotest.fail "load first" in
  let base v = Graph.mem_node g0 v in
  Array.iter
    (function
      | Streams.Delta (Session.Add_link (u, v)) ->
          Alcotest.(check bool) "an added link has one fresh end" true (base u <> base v)
      | Streams.Delta (Session.Remove_node v) ->
          Alcotest.(check bool) "only fresh leaves detach" false (base v)
      | Streams.Delta (Session.Set_monitors _) | Streams.Query _ | Streams.Load _ -> ()
      | Streams.Delta _ -> Alcotest.fail "access churn never removes or adds a bare node/link")
    ops;
  Streams.iter_query_states ops (fun _ g _ ->
      Graph.iter_edges
        (fun (u, v) -> Alcotest.(check bool) "base link kept" true (Graph.mem_edge g u v))
        g0)

let test_reconnect_warm () =
  let w = small ~seed:5 "reconnect-warm" in
  let load s = (Streams.lines s).(0) in
  let filled = Hashtbl.create 64 in
  Array.iter
    (fun (slot : Streams.slot) ->
      let k = ref 0 in
      Array.iter
        (fun s ->
          if !k < slot.Streams.setup then Hashtbl.replace filled (load s) ();
          k := !k + Array.length s)
        slot.Streams.sessions)
    w.Streams.slots;
  Alcotest.(check int) "64 states filled" 64 (Hashtbl.length filled);
  Array.iter
    (fun (slot : Streams.slot) ->
      let k = ref 0 in
      Array.iter
        (fun s ->
          if !k >= slot.Streams.setup then
            Alcotest.(check bool) "measured session loads a filled state" true
              (Hashtbl.mem filled (load s));
          k := !k + Array.length s)
        slot.Streams.sessions)
    w.Streams.slots

let close = Alcotest.float 1e-9

let test_quantiles () =
  let xs = Array.init 100 (fun i -> float (100 - i)) in
  (* Python: statistics.quantiles(range(1, 101), n=100, method="inclusive") *)
  Alcotest.check close "p50" 50.5 (Summary.quantile xs 0.5);
  Alcotest.check close "p99" 99.01 (Summary.quantile xs 0.99);
  Alcotest.check close "p0" 1. (Summary.quantile xs 0.);
  Alcotest.check close "p100" 100. (Summary.quantile xs 1.);
  Alcotest.check close "one sample" 7. (Summary.quantile [| 7. |] 0.99);
  Alcotest.check close "median" 2.5 (Summary.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "mean" 2.5 (Summary.mean [| 4.; 1.; 3.; 2. |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Summary.quantile: no samples")
    (fun () -> ignore (Summary.quantile [||] 0.5))

let test_rss () =
  let status = "Name:\tnettomo\nVmPeak:\t  300000 kB\nVmHWM:\t  184320 kB\nVmRSS:\t  150000 kB\n" in
  Alcotest.(check (option close)) "VmHWM in MiB" (Some 180.) (Summary.vmhwm_mib status);
  Alcotest.(check (option close)) "no VmHWM line" None (Summary.vmhwm_mib "VmRSS:\t 1 kB\n");
  Alcotest.(check (option close)) "garbled" None (Summary.vmhwm_mib "VmHWM: lots kB\n");
  match Summary.peak_rss_mib (Unix.getpid ()) with
  | Some mib -> Alcotest.(check bool) "own peak RSS is positive" true (mib > 0.)
  | None -> Alcotest.fail "own /proc status unreadable"

let () =
  Alcotest.run "perfbench"
    [
      ( "streams",
        [
          Alcotest.test_case "seeded and byte-identical" `Quick test_seeded;
          Alcotest.test_case "core-churn: no bridge, no repeated state, aligned slots" `Quick test_core_churn;
          Alcotest.test_case "access-solve: base links untouched" `Quick test_access_solve;
          Alcotest.test_case "reconnect-warm: only filled states" `Quick test_reconnect_warm;
        ] );
      ( "summary",
        [
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "peak RSS reader" `Quick test_rss;
        ] );
    ]

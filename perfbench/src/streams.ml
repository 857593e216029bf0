(* Seeded request streams for the three serve workloads.

   A workload is two connection slots. Each slot runs a list of
   sessions; a session is one socket connection whose first request is
   a [load]. The first [setup] requests of a slot are its warm-up
   prefix, answered before the measured phase starts. Every stream is a
   pure function of the seed and the requested size. *)

open Nettomo_graph
module Prng = Nettomo_util.Prng
module Jsonx = Nettomo_util.Jsonx
module Net = Nettomo_core.Net
module Mmp = Nettomo_core.Mmp
module Isp = Nettomo_topo.Isp
module Edgelist = Nettomo_topo.Edgelist
module Session = Nettomo_engine.Session

type op =
  | Load of { graph : Graph.t; monitors : Graph.node list; seed : int }
  | Delta of Session.delta
  | Query of string

type slot = { sessions : op array array; setup : int }
(* [rounds]: the slots send in rounds (see Loadgen). *)
type workload = { name : string; store : bool; rounds : bool; slots : slot array }

let is_query = function Query _ -> true | Load _ | Delta _ -> false

let op_name = function Load _ -> "load" | Delta _ -> "delta" | Query q -> q

(* Request ids count within a session, so two sessions with the same
   operations send the same bytes. *)
let render id op =
  let int i = Jsonx.Int i in
  let ints l = Jsonx.List (List.map int l) in
  let str s = Jsonx.String s in
  let fields =
    match op with
    | Load { graph; monitors; seed } ->
        [
          ("op", str "load");
          ("edges", str (Edgelist.to_string graph));
          ("monitors", ints monitors);
          ("seed", int seed);
        ]
    | Delta d -> (
        let delta action rest = ("op", str "delta") :: ("action", str action) :: rest in
        match d with
        | Session.Add_node v -> delta "add_node" [ ("node", int v) ]
        | Session.Remove_node v -> delta "remove_node" [ ("node", int v) ]
        | Session.Add_link (u, v) -> delta "add_link" [ ("u", int u); ("v", int v) ]
        | Session.Remove_link (u, v) ->
            delta "remove_link" [ ("u", int u); ("v", int v) ]
        | Session.Set_monitors ms -> delta "set_monitors" [ ("monitors", ints ms) ])
    | Query q -> [ ("op", str q) ]
  in
  Jsonx.to_string (Jsonx.Obj (("id", int id) :: fields))

let lines session = Array.mapi render session

let requests slot =
  Array.fold_left (fun n s -> n + Array.length s) 0 slot.sessions

(* Independent generator per purpose, so resizing one stream never
   shifts another. *)
let rng seed purpose = Prng.substream (Prng.create seed) purpose

(* The topologies are fixed: the seed varies the churn, the link choice
   and the states drawn, not the network itself. Across seeds, a
   different Exodus or AT&T draw shifts per-request cost by more than
   the benchmark's bounds, which would drown the effect of any change. *)
let topology_seed = 2013

let non_bridges g =
  let bridges = Bridges.bridges g in
  Array.of_list
    (List.filter (fun e -> not (Graph.EdgeSet.mem e bridges)) (Graph.edges g))

let mmp_monitors g = Graph.NodeSet.elements (Mmp.place g)

(* A fixed topology and its MMP monitors. They do not depend on the
   seed, so they are made once per process: a run generates the streams
   of several seeds, and AT&T's placement alone takes most of a
   second. *)
let bases = Hashtbl.create 8

let topology purpose name =
  match Hashtbl.find_opt bases (purpose, name) with
  | Some b -> b
  | None ->
      let g =
        match Isp.find name with
        | Some s -> Isp.generate (rng topology_seed purpose) s
        | None -> invalid_arg ("Streams.topology: no ISP spec " ^ name)
      in
      let b = (g, mmp_monitors g) in
      Hashtbl.add bases (purpose, name) b;
      b

(* ------------------------------------------------------------------ *)
(* core-churn                                                          *)

let core_topologies = [| "Exodus"; "Ebone" |]

(* One slot: load the topology with its MMP monitors, then cycles of
   "re-add the link removed last, remove a fresh non-bridge link, ask
   mmp / identifiable / solve". Links are drawn without replacement from
   the base graph's non-bridges, so every queried state is new and the
   network stays connected; the cycle count is capped by that supply. *)
let core_churn_slot ~seed ~slot ~prefix ~cycles =
  let g0, mon0 = topology (10 + slot) core_topologies.(slot) in
  let links = non_bridges g0 in
  Prng.shuffle (rng seed (20 + slot)) links;
  let n = min (prefix + cycles) (Array.length links) in
  let ops = ref [ Load { graph = g0; monitors = mon0; seed } ] in
  let setup = ref 0 in
  for i = 0 to n - 1 do
    (if i > 0 then
       let u, v = links.(i - 1) in
       ops := Delta (Session.Add_link (u, v)) :: !ops);
    (let u, v = links.(i) in
     ops := Delta (Session.Remove_link (u, v)) :: !ops);
    List.iter (fun q -> ops := Query q :: !ops) [ "mmp"; "identifiable"; "solve" ];
    if i = prefix - 1 then setup := List.length !ops
  done;
  { sessions = [| Array.of_list (List.rev !ops) |]; setup = !setup }

(* ------------------------------------------------------------------ *)
(* access-solve                                                        *)

let access_queries = [| "solve"; "coverage"; "mmp"; "identifiable" |]

(* One slot over an AT&T-sized topology: each round applies one access
   delta — a fresh leaf attaches to a random base node (45%), the newest
   leaf detaches (40%), or the monitor set toggles between the MMP
   placement and that placement plus one extra node (15%) — and then
   asks the next query in rotation. Base-graph links are never touched,
   so the biconnected core stays fixed. *)
let access_solve_slot ~seed ~slot ~prefix ~rounds =
  let g0, mon0 = topology (30 + slot) "AT&T" in
  let monset = Graph.NodeSet.of_list mon0 in
  let extra = List.find (fun v -> not (Graph.NodeSet.mem v monset)) (Graph.nodes g0) in
  let base = Graph.node_array g0 in
  let r = rng seed (40 + slot) in
  let next = ref (1 + Array.fold_left max 0 base) in
  let attached = ref [] in
  let toggled = ref false in
  let delta () =
    let u = Prng.int r 100 in
    match !attached with
    | newest :: rest when u >= 45 && u < 85 ->
        attached := rest;
        Session.Remove_node newest
    | _ when u >= 85 ->
        toggled := not !toggled;
        Session.Set_monitors (if !toggled then extra :: mon0 else mon0)
    | _ ->
        let fresh = !next in
        incr next;
        attached := fresh :: !attached;
        Session.Add_link (fresh, base.(Prng.int r (Array.length base)))
  in
  let ops =
    Load { graph = g0; monitors = mon0; seed }
    :: List.concat
         (List.init (prefix + rounds) (fun i ->
              let d = delta () in
              [ Delta d; Query access_queries.(i mod Array.length access_queries) ]))
  in
  { sessions = [| Array.of_list ops |]; setup = 1 + (2 * prefix) }

(* ------------------------------------------------------------------ *)
(* reconnect-warm                                                      *)

let warm_states_per_topology = 32
let warm_queries = [ "mmp"; "identifiable"; "coverage"; "solve" ]

(* The fixed states: Exodus and Ebone, each minus one interior link (a
   non-bridge whose endpoints both have degree ≥ 3), with the base
   graph's MMP monitors. *)
let warm_states ~seed =
  Array.concat
    (List.mapi
       (fun i name ->
         let g0, monitors = topology (10 + i) name in
         let interior =
           Array.of_list
             (List.filter
                (fun (u, v) -> Graph.degree g0 u >= 3 && Graph.degree g0 v >= 3)
                (Array.to_list (non_bridges g0)))
         in
         Array.map
           (fun (u, v) -> (Graph.remove_edge g0 u v, monitors))
           (Prng.sample (rng seed (60 + i)) warm_states_per_topology interior))
       (Array.to_list core_topologies))

let warm_session ~seed (graph, monitors) =
  Array.of_list
    (Load { graph; monitors; seed } :: List.map (fun q -> Query q) warm_queries)

(* Slot [k] fills the store with every other state during setup, then
   opens [sessions] sessions on states drawn uniformly from all of
   them. *)
let reconnect_warm_slots ~seed ~sessions =
  let states = Array.map (warm_session ~seed) (warm_states ~seed) in
  Array.init 2 (fun k ->
      let fill = List.filteri (fun i _ -> i mod 2 = k) (Array.to_list states) in
      let r = rng seed (70 + k) in
      let measured =
        List.init sessions (fun _ -> states.(Prng.int r (Array.length states)))
      in
      {
        sessions = Array.of_list (fill @ measured);
        setup = List.fold_left (fun n s -> n + Array.length s) 0 fill;
      })

(* ------------------------------------------------------------------ *)
(* Workload table                                                      *)

(* Each workload's measured phase is a fixed request list of
   [seconds × nominal_rps] requests split over the two slots, so the same
   settings always do the same work. The rates are what the serve
   reaches on a 2-core x86-64 machine. *)
let names = [ "core-churn"; "access-solve"; "reconnect-warm" ]

let nominal_rps = function
  | "core-churn" -> 100.
  | "access-solve" -> 200.
  | "reconnect-warm" -> 1900.
  | w -> invalid_arg ("Streams.nominal_rps: unknown workload " ^ w)

let generate ~seed ~seconds name =
  let per_slot = int_of_float (seconds *. nominal_rps name /. 2.) in
  match name with
  | "core-churn" ->
      {
        name;
        store = false;
        rounds = true;
        slots =
          Array.init 2 (fun slot ->
              core_churn_slot ~seed ~slot ~prefix:12 ~cycles:(per_slot / 5));
      }
  | "access-solve" ->
      {
        name;
        store = true;
        rounds = false;
        slots =
          Array.init 2 (fun slot ->
              access_solve_slot ~seed ~slot ~prefix:12 ~rounds:(per_slot / 2));
      }
  | "reconnect-warm" ->
      {
        name;
        store = true;
        rounds = false;
        slots = reconnect_warm_slots ~seed ~sessions:(per_slot / 5);
      }
  | w -> invalid_arg ("Streams.generate: unknown workload " ^ w)

(* The network state every query of a session sees, in order: replays
   the session's load and deltas on a plain graph. [f] gets the
   request's index within the session and the state's graph and
   monitors. *)
let iter_query_states session f =
  let g = ref Graph.empty and mon = ref Graph.NodeSet.empty in
  Array.iteri
    (fun i op ->
      match op with
      | Load { graph; monitors; _ } ->
          g := graph;
          mon := Graph.NodeSet.of_list monitors
      | Delta (Session.Add_node v) -> g := Graph.add_node !g v
      | Delta (Session.Remove_node v) ->
          g := Graph.remove_node !g v;
          mon := Graph.NodeSet.remove v !mon
      | Delta (Session.Add_link (u, v)) -> g := Graph.add_edge !g u v
      | Delta (Session.Remove_link (u, v)) -> g := Graph.remove_edge !g u v
      | Delta (Session.Set_monitors ms) -> mon := Graph.NodeSet.of_list ms
      | Query _ -> f i !g !mon)
    session

let net_of g mon = Net.create g ~monitors:(Graph.NodeSet.elements mon)

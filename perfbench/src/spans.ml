(* The traced run's in-memory span recorder.

   Spans come only from the benchmark's own code, around calls into the
   library's public functions. They stay in memory and are written at
   exit as Chrome trace_event JSON plus a per-name summary. One thread
   records, so spans nest strictly and a parent's self time is its
   duration minus its direct children's. *)

module Jsonx = Nettomo_util.Jsonx

type span = {
  name : string;
  start : float;  (** seconds since the recorder was created *)
  dur : float;  (** seconds *)
  id : int;
  parent : int;  (** 0 at top level *)
  req : int;  (** the replayed request this span belongs to, 0 if none *)
}

type t = {
  t0 : float;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;
  mutable req : int;
}

let create () =
  { t0 = Summary.now (); spans = []; next_id = 1; stack = []; req = 0 }

(* Every span opened inside [f] carries request id [req]. *)
let with_request t req f =
  let prev = t.req in
  t.req <- req;
  Fun.protect ~finally:(fun () -> t.req <- prev) f

let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let start = Summary.now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Summary.now () in
      t.stack <- List.tl t.stack;
      t.spans <-
        { name; start = start -. t.t0; dur = stop -. start; id; parent; req = t.req }
        :: t.spans)
    f

(* Duration (s) of the span that closed last. *)
let last_dur t = match t.spans with s :: _ -> s.dur | [] -> 0.

(* Durations in ms of every span called [name], in recording order. *)
let durations_ms t name =
  List.rev t.spans
  |> List.filter_map (fun s -> if s.name = name then Some (s.dur *. 1e3) else None)
  |> Array.of_list

let chrome_json t =
  Jsonx.Obj
    [
      ( "traceEvents",
        Jsonx.List
          (List.rev_map
             (fun s ->
               Jsonx.Obj
                 [
                   ("name", Jsonx.String s.name);
                   ("ph", Jsonx.String "X");
                   ("ts", Jsonx.Float (s.start *. 1e6));
                   ("dur", Jsonx.Float (s.dur *. 1e6));
                   ("pid", Jsonx.Int 1);
                   ("tid", Jsonx.Int 1);
                   ( "args",
                     Jsonx.Obj
                       [
                         ("id", Jsonx.Int s.id);
                         ("parent", Jsonx.Int s.parent);
                         ("req", Jsonx.Int s.req);
                       ] );
                 ])
             t.spans) );
      ("displayTimeUnit", Jsonx.String "ms");
    ]

(* Per span name: count, total and self time, p50 and (with enough
   samples) p99 — sorted by name. *)
let summary t =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (s.dur +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.))
    t.spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.dur -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.
      in
      Hashtbl.replace by_name s.name
        ((s.dur, self) :: Option.value (Hashtbl.find_opt by_name s.name) ~default:[]))
    t.spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, samples) ->
         let durs = Array.of_list (List.map (fun (d, _) -> d *. 1e3) samples) in
         let total = Array.fold_left ( +. ) 0. durs in
         let self = List.fold_left (fun a (_, s) -> a +. (s *. 1e3)) 0. samples in
         let n = Array.length durs in
         Jsonx.Obj
           ([
              ("name", Jsonx.String name);
              ("count", Jsonx.Int n);
              ("total_ms", Jsonx.Float total);
              ("self_ms", Jsonx.Float self);
              ("p50_ms", Jsonx.Float (Summary.median durs));
            ]
           @
           if n >= Summary.p99_min_samples then
             [ ("p99_ms", Jsonx.Float (Summary.quantile durs 0.99)) ]
           else []))

(* The expected transcript: every session replayed through a fresh
   in-process [Protocol.t] with wall times off, which the server's
   determinism contract says each live connection must match byte for
   byte. *)

module Protocol = Nettomo_engine.Protocol

let session ?store lines =
  let p = Protocol.create ~emit_wall_ms:false ?store () in
  Array.map (Protocol.handle_line p) lines

(* Response digests of one slot, flattened in request order. Sessions
   that share their rendered lines are replayed once. *)
let slot_digests (sessions : string array array) =
  let memo = ref [] in
  Array.concat
    (Array.to_list
       (Array.map
          (fun lines ->
            match List.assq_opt lines !memo with
            | Some d -> d
            | None ->
                let d = Array.map Digest.string (session lines) in
                memo := (lines, d) :: !memo;
                d)
          sessions))

(* Slots are independent sessions, so they replay on their own domains. *)
let digests (rendered : string array array array) =
  Array.map
    (fun sessions -> Domain.spawn (fun () -> slot_digests sessions))
    rendered
  |> Array.map Domain.join

(* The clock, order statistics and process-size readers shared by the
   benchmark's end-to-end and per-layer reports. *)

(* The benchmark's one clock. It reads the system clock itself, not
   [Obs.Clock], so that no change to the library can change the
   instrument that measures it. *)
(* nettomo-lint: allow wall-clock — the benchmark times the library from outside *)
let now = Unix.gettimeofday

(* Linear interpolation between closest ranks (the "R-7" rule that
   numpy and Python's statistics.quantiles(method="inclusive") use):
   the q-quantile of sorted x.(0..n-1) sits at rank q·(n−1). *)
let quantile_sorted (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.quantile: no samples";
  if q < 0. || q > 1. then invalid_arg "Summary.quantile: q outside [0, 1]";
  let r = q *. float_of_int (n - 1) in
  let lo = int_of_float r in
  let hi = min (n - 1) (lo + 1) in
  let frac = r -. float_of_int lo in
  xs.(lo) +. (frac *. (xs.(hi) -. xs.(lo)))

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then invalid_arg "Summary.mean: no samples";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* A p99 is reported only over at least this many samples, so that at
   least ten lie beyond it. *)
let p99_min_samples = 1000

(* Peak resident set size from the text of /proc/<pid>/status: the
   "VmHWM:  123456 kB" line, in MiB. *)
let vmhwm_mib status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = "VmHWM" -> (
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             match
               String.split_on_char ' ' rest
               |> List.concat_map (String.split_on_char '\t')
               |> List.filter (fun s -> s <> "")
             with
             | [ kb; "kB" ] ->
                 Option.map
                   (fun k -> float_of_int k /. 1024.)
                   (int_of_string_opt kb)
             | _ -> None)
         | Some _ | None -> None)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (* /proc files report length 0, so read until EOF. *)
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec loop () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then (
          Buffer.add_subbytes buf chunk 0 n;
          loop ())
      in
      loop ();
      Buffer.contents buf)

let peak_rss_mib pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | status -> vmhwm_mib status
  | exception Sys_error _ -> None

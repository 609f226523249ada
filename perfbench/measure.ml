(* Summary statistics and process readings shared by the timed and the
   traced runs. *)

let now = Unix.gettimeofday

let median xs = Stats.Summary.quantile (Array.of_list xs) 0.5

(* The highest of the usual percentiles with at least ten samples beyond
   it; the median when there are fewer than twenty samples. *)
let tail_percentile samples =
  let k = float_of_int samples in
  match List.find_opt (fun p -> (1.0 -. p) *. k >= 10.0) [ 0.999; 0.99; 0.95; 0.9; 0.75 ] with
  | Some p -> p
  | None -> 0.5

let quantile xs p = Stats.Summary.quantile (Array.of_list xs) p

(* Peak resident set size in MB: VmHWM from the kernel's status file. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> failwith "perfbench: no VmHWM in /proc/self/status"
      in
      loop ())

(* Wall time and this domain's allocation across [f]. *)
type block = { seconds : float; minor_words : float }

let block f =
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = now () in
  let r = f () in
  let seconds = now () -. t0 in
  let minor_words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  (r, { seconds; minor_words })

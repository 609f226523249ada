(* perfbench: the repository's benchmark.

     perfbench --workload agent-optimal --seed 1 --seconds 30 --trace 0

   Runs one named workload (Workload.catalogue; see README.md) for the
   given number of seconds and prints, one per line, every end-to-end
   metric with its unit, the result digest and the run manifest. The last
   line is a JSON object {correct, attempted, failed, metrics}. With
   [--trace 1] it runs the traced pass instead and reports the per-layer
   metrics (Trace). Exit 0 iff every trial passed its checks. *)

open Perfbench

let label = Printf.sprintf "%-34s %s"

let result_line ~correct ~attempted ~failed metrics =
  let open Telemetry.Json in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, value, unit) ->
                  (name, Obj [ ("value", Float value); ("unit", String unit) ]))
                metrics) );
       ])

(* Provenance: git describe, argv, seed, OCaml version and domain count,
   through the same manifest [ssr_sim --events] writes. *)
let print_manifest (w : Workload.t) ~seed ~trials ~start ~trace =
  let open Telemetry.Json in
  let flags = String.concat " " (Workload.ssr_sim_flags w ~seed ~trials) in
  let m =
    Telemetry.Manifest.make ~run:"perfbench"
      ~protocol:
        (match w.Workload.protocol with Workload.Silent -> "silent" | Workload.Optimal -> "optimal")
      ~engine:(Engine.Exec.kind_to_string w.Workload.engine)
      ~n:w.Workload.n ~seed ~trials ~jobs:w.Workload.jobs
      ~params:
        [
          ("workload", String w.Workload.name);
          ("trace", Bool trace);
          ("ssr_sim_flags", String flags);
          ("ocaml", String Sys.ocaml_version);
          ("nproc", Int (Domain.recommended_domain_count ()));
        ]
      ~wall_clock_s:(Measure.now () -. start) ()
  in
  Printf.printf "manifest %s\n" (to_string (Telemetry.Manifest.to_json m))

(* Set up [w.setups] times (each timed, all but the last torn down again),
   then run rounds until [seconds] have passed. *)
let setup_and_run w ~seed ~seconds =
  let setups = ref [] and prepared = ref None in
  for _ = 1 to w.Workload.setups do
    Option.iter Workload.release !prepared;
    let p, b = Measure.block (fun () -> Workload.prepare w ~seed) in
    setups := b.Measure.seconds :: !setups;
    prepared := Some p
  done;
  let prepared = Option.get !prepared in
  let t0 = Measure.now () in
  let rounds = ref [] in
  while !rounds = [] || Measure.now () -. t0 < seconds do
    rounds := Workload.run_round prepared ~count:w.Workload.round :: !rounds
  done;
  Workload.release prepared;
  (!setups, List.rev !rounds)

let timed w ~seed ~seconds =
  let start = Measure.now () in
  let setups, rounds = setup_and_run w ~seed ~seconds in
  let results = Array.concat (List.map (fun r -> r.Workload.results) rounds) in
  let attempted = Array.length results in
  let failed = List.length (List.filter Workload.trial_failed (Array.to_list results)) in
  let trial_ms =
    List.filter_map
      (function Ok t -> Some (1000.0 *. t.Workload.wall_s) | Error _ -> None)
      (Array.to_list results)
  in
  let tail_p = Measure.tail_percentile (List.length trial_ms) in
  (* Rates are medians over rounds, so a burst of contention from outside
     the process moves them less than a total over the run would. *)
  let per_round f = Measure.median (List.map (fun r -> f r /. r.Workload.round_s) rounds) in
  let metrics =
    [
      ("setup_s", Measure.median setups, "s");
      ("wall_s", Measure.median (List.map (fun r -> r.Workload.round_s) rounds), "s");
      ( "trials_per_s",
        per_round (fun r -> float_of_int (Array.length r.Workload.results)),
        "1/s" );
      ("trial_ms_p50", Measure.quantile trial_ms 0.5, "ms");
      ("trial_ms_tail", Measure.quantile trial_ms tail_p, "ms");
      ("events_per_s", per_round (fun r -> float_of_int (Workload.round_events r)), "1/s");
      ("peak_rss_mb", Measure.peak_rss_mb (), "MB");
    ]
  in
  print_endline (label "workload" (w.Workload.name ^ ": " ^ w.Workload.why));
  print_endline
    (label "ssr_sim equivalent"
       ("ssr_sim " ^ String.concat " " (Workload.ssr_sim_flags w ~seed ~trials:w.Workload.round)));
  List.iter
    (fun (name, value, unit) -> print_endline (label name (Printf.sprintf "%.6g %s" value unit)))
    metrics;
  print_endline
    (label "trial_ms_tail percentile"
       (Printf.sprintf "p%g of %d trials" (100.0 *. tail_p) (List.length trial_ms)));
  print_endline
    (label "failed_frac"
       (Printf.sprintf "%.6g (%d of %d trials)"
          (float_of_int failed /. float_of_int attempted)
          failed attempted));
  (match List.filter_map (fun r -> r.Workload.readback_s) rounds with
  | [] -> ()
  | rb ->
      let median = Measure.median rb in
      print_endline
        (label "readback_s" (Printf.sprintf "%.6g s (median of %d)" median (List.length rb))));
  Array.iter
    (function
      | Error e -> print_endline (label "failure" ("raised: " ^ e))
      | Ok { Workload.problem = Some p; index; _ } ->
          print_endline (label "failure" (Printf.sprintf "trial %d: %s" index p))
      | Ok _ -> ())
    results;
  (match rounds with
  | first :: _ ->
      let r = first.Workload.results in
      print_endline
        (label (Printf.sprintf "digest (first %d trials)" (Array.length r)) (Workload.digest r));
      List.iter
        (fun l -> print_endline (label "summary (first round)" l))
        (Workload.summary_lines w r)
  | [] -> ());
  print_manifest w ~seed ~trials:attempted ~start ~trace:false;
  print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  if failed = 0 then 0 else 1

let traced w ~seed ~seconds =
  let start = Measure.now () in
  match Trace.run w ~seed ~seconds with
  | exception Trace.Replica_mismatch why ->
      Printf.eprintf "perfbench: agent replica check failed (%s); refusing to report\n" why;
      1
  | t ->
      print_endline (label "workload" (w.Workload.name ^ " (traced run)"));
      List.iter
        (fun { Trace.name; value; unit; origin } ->
          print_endline (label name (Printf.sprintf "%.6g %s (%s)" value unit origin)))
        t.Trace.metrics;
      List.iter (fun n -> print_endline (label "note" n)) t.Trace.notes;
      print_manifest w ~seed ~trials:t.Trace.attempted ~start ~trace:true;
      print_endline
        (result_line ~correct:(t.Trace.failed = 0) ~attempted:t.Trace.attempted
           ~failed:t.Trace.failed
           (List.map (fun { Trace.name; value; unit; _ } -> (name, value, unit)) t.Trace.metrics));
      if t.Trace.failed = 0 then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced per-layer run (1)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        let names = List.map (fun w -> w.Workload.name) Workload.catalogue in
        fail (Printf.sprintf "unknown workload '%s' (%s)" !workload (String.concat " | " names))
  in
  if not (!seconds > 0.0) then fail "--seconds must be > 0";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  (try Unix.mkdir Workload.events_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let seed = !seed and seconds = !seconds in
  exit (if !trace = 0 then timed w ~seed ~seconds else traced w ~seed ~seconds)

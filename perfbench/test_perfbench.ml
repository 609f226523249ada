(* The benchmark's own tests, at reduced sizes:

   - each workload's summary equals the report [ssr_sim] prints for the
     same flags, so the benchmark measures the program users run;
   - the soak's events file is byte-identical at 1 and 2 domains, and
     equal to [ssr_sim --events];
   - the seed changes the inputs and nothing else;
   - the agent-engine replica reproduces [Sim.run];
   - the command prints every metric BENCHMARK.json names. *)

open Perfbench

let ssr_sim = "../bin/ssr_sim.exe"

let small =
  [
    { Workload.agent_optimal with Workload.n = 32; round = 6 };
    { Workload.count_silent with Workload.n = 96; round = 3 };
    { Workload.chaos_soak with Workload.n = 32; round = 4 };
  ]

let small_soak = List.nth small 2

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let run_command prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = read_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail (prog ^ " was killed")

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_dir name f =
  let dir = Filename.concat Workload.events_dir name in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let one_round ?events_dir w ~seed =
  let prepared = Workload.prepare ?events_dir w ~seed in
  Fun.protect
    ~finally:(fun () -> Workload.release prepared)
    (fun () -> Workload.run_round prepared ~count:w.Workload.round)

let test_matches_ssr_sim w () =
  with_dir w.Workload.name @@ fun dir ->
  let seed = 5 in
  let round = one_round ~events_dir:dir w ~seed in
  Array.iter
    (fun r -> Alcotest.(check bool) "trial passed its checks" false (Workload.trial_failed r))
    round.Workload.results;
  let code, out = run_command ssr_sim (Workload.ssr_sim_flags w ~seed ~trials:w.Workload.round) in
  Alcotest.(check int) "ssr_sim exit" 0 code;
  let reported = String.split_on_char '\n' out in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "ssr_sim prints %S" line) true (List.mem line reported))
    (Workload.summary_lines w round.Workload.results)

let test_events_jobs_invariant () =
  with_dir "events" @@ fun dir ->
  let seed = 3 in
  let file jobs =
    let w = { small_soak with Workload.jobs } in
    let prepared = Workload.prepare ~events_dir:dir w ~seed in
    Fun.protect
      ~finally:(fun () -> Workload.release prepared)
      (fun () ->
        let (_ : Workload.round) = Workload.run_round prepared ~count:w.Workload.round in
        read_file (Filename.concat dir (Printf.sprintf "%s-s%d.events.jsonl" w.Workload.name seed)))
  in
  let one = file 1 and two = file 2 in
  Alcotest.(check bool) "events file is not empty" true (String.length one > 0);
  Alcotest.(check bool) "1 and 2 domains write the same bytes" true (one = two);
  let path = Filename.concat dir "ssr_sim.events.jsonl" in
  let code, _ =
    run_command ssr_sim
      (Workload.ssr_sim_flags small_soak ~seed ~trials:small_soak.Workload.round
      @ [ "--events"; path ])
  in
  Alcotest.(check int) "ssr_sim exit" 0 code;
  Alcotest.(check bool) "ssr_sim --events writes the same bytes" true (read_file path = one);
  Sys.remove (path ^ ".manifest.json")

let test_seed_changes_inputs_only () =
  List.iter
    (fun w ->
      let digest seed = Workload.digest (one_round w ~seed).Workload.results in
      let d1 = digest 1 in
      Alcotest.(check string) (w.Workload.name ^ ": same seed, same results") d1 (digest 1);
      Alcotest.(check bool)
        (w.Workload.name ^ ": another seed, other inputs")
        true
        (d1 <> digest 2);
      let f1 = Workload.ssr_sim_flags w ~seed:1 ~trials:4
      and f2 = Workload.ssr_sim_flags w ~seed:2 ~trials:4 in
      let differing = List.filter (fun (a, b) -> a <> b) (List.combine f1 f2) in
      Alcotest.(check (list (pair string string)))
        (w.Workload.name ^ ": only the seed differs")
        [ ("1", "2") ]
        differing)
    small

let test_replica () =
  let n = 24 in
  let params = Core.Params.optimal_silent n in
  let protocol = Core.Optimal_silent.protocol ~params ~n () in
  let rng = Prng.create ~seed:9 in
  let init = Core.Scenarios.optimal_uniform rng ~params ~n in
  let r = Trace.replica protocol init rng ~steps:50_000 in
  Alcotest.(check int) "steps" 50_000 r.Trace.steps;
  let k = Ir.Kernel.compile (Core.Optimal_silent.enumerable ~params ~n ()) in
  let codes = Array.map (Ir.Kernel.encode k) init in
  let r = Trace.replica k.Ir.Kernel.compiled codes rng ~steps:50_000 in
  Alcotest.(check int) "compiled steps" 50_000 r.Trace.steps;
  let randomized = { protocol with Engine.Protocol.deterministic = false } in
  Alcotest.check_raises "refuses a protocol that may draw"
    (Trace.Replica_mismatch "the phase-split replica needs a deterministic protocol") (fun () ->
      ignore (Trace.replica randomized init rng ~steps:10))

(* Names BENCHMARK.json declares under [key]. *)
let declared key =
  match Telemetry.Json.parse (read_file "../BENCHMARK.json") with
  | Error e -> Alcotest.fail e
  | Ok json -> (
      match Option.bind (Telemetry.Json.member key json) Telemetry.Json.to_list with
      | None -> Alcotest.fail ("BENCHMARK.json has no list " ^ key)
      | Some items ->
          List.filter_map
            (fun m -> Option.bind (Telemetry.Json.member "name" m) Telemetry.Json.to_string_opt)
            items)

let test_command_prints_declared_metrics () =
  Alcotest.(check (list string))
    "workloads" (declared "workloads")
    (List.map (fun w -> w.Workload.name) Workload.catalogue);
  List.iter
    (fun (trace, key) ->
      let code, out =
        run_command "./main.exe"
          [ "--workload"; "agent-optimal"; "--seed"; "2"; "--seconds"; "0.2"; "--trace"; trace ]
      in
      Alcotest.(check int) "exit" 0 code;
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
      match Telemetry.Json.parse (List.nth lines (List.length lines - 1)) with
      | Error e -> Alcotest.fail e
      | Ok json ->
          let keys = match json with Telemetry.Json.Obj kv -> List.map fst kv | _ -> [] in
          Alcotest.(check (list string))
            "result keys"
            [ "correct"; "attempted"; "failed"; "metrics" ]
            keys;
          Alcotest.(check (option bool)) "correct" (Some true)
            (Option.bind (Telemetry.Json.member "correct" json) Telemetry.Json.to_bool);
          let printed =
            match Telemetry.Json.member "metrics" json with
            | Some (Telemetry.Json.Obj kv) -> List.map fst kv
            | _ -> []
          in
          Alcotest.(check (list string))
            (key ^ " metrics")
            (List.sort compare (declared key))
            (List.sort compare printed))
    [ ("0", "end_to_end"); ("1", "per_layer") ]

let () =
  (try Unix.mkdir Workload.events_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        List.map
          (fun w ->
            let name = w.Workload.name ^ " matches ssr_sim" in
            Alcotest.test_case name `Quick (test_matches_ssr_sim w))
          small
        @ [
            Alcotest.test_case "soak events file is jobs-invariant" `Quick
              test_events_jobs_invariant;
            Alcotest.test_case "seed changes the inputs only" `Quick test_seed_changes_inputs_only;
            Alcotest.test_case "replica reproduces Sim.run" `Quick test_replica;
            Alcotest.test_case "command prints the declared metrics" `Quick
              test_command_prints_declared_metrics;
          ] );
    ]

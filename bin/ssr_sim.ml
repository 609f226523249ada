(* ssr_sim: run one self-stabilizing ranking simulation from the command
   line and print a timeline. Examples:

     ssr_sim -p optimal -n 64 -s uniform --seed 7
     ssr_sim -p sublinear -n 16 -H 4 -s name-collision -v
     ssr_sim -p silent -n 32 -s worst-case
     ssr_sim -p silent -n 2048 -s worst-case --engine count
     ssr_sim -p loose -n 32
     ssr_sim -p optimal -n 24 -s duplicate-rank --topology ring
     ssr_sim -p optimal -n 64 --trials 200 --jobs 4
     ssr_sim -p silent -n 512 --trials 50 --engine count
     ssr_sim -p optimal -n 1000000 -s correct --engine count
     ssr_sim -p optimal -n 100000 -s uniform --engine count --topology star

   The flags become a Fleet.Spec, which Fleet.Run executes exactly as a
   fleet job with the same fields; this file only parses and reports. *)

let usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let pt ~n i = float_of_int i /. float_of_int n

let pp_header (r : Fleet.Run.t) =
  let spec = r.Fleet.Run.spec in
  Printf.printf "protocol            : %s\n" r.Fleet.Run.protocol;
  Printf.printf "engine              : %s\n" (Engine.Exec.kind_to_string spec.Fleet.Spec.engine);
  Option.iter
    (fun (k : Fleet.Run.kernel) ->
      Printf.printf "kernel              : compiled (%d live states, %s, %.1f ms compile)\n"
        k.Fleet.Run.states
        (if k.Fleet.Run.exact then "exact" else "quotient")
        (1000.0 *. k.Fleet.Run.compile_s))
    r.Fleet.Run.kernel;
  Printf.printf "population          : %d\n" spec.Fleet.Spec.n;
  Option.iter (Printf.printf "chaos               : %s\n") spec.Fleet.Spec.chaos

let pp_trials ~jobs (r : Fleet.Run.t) =
  Printf.printf "trials              : %d (on %d domain%s)\n" r.Fleet.Run.spec.Fleet.Spec.trials
    jobs
    (if jobs = 1 then "" else "s")

(* Batch trials run supervised (Fleet.Supervise): a raising trial — a
   protocol bug, a bad scenario, an injected fault — is captured as a
   per-trial failure instead of aborting the batch, so the completed
   trials' statistics and telemetry survive and the failure is accounted
   in the summary (and the exit code). Failures are PRNG-driven like
   everything else, so which trials fail is identical for every --jobs
   value. *)
let pp_trial_failures errors =
  if errors <> [] then begin
    Printf.printf "trial failures      : %d\n" (List.length errors);
    Format.printf "%a" Fleet.Supervise.pp_failures errors
  end

let stable = function Fleet.Run.Stable o -> Some o | Fleet.Run.Soaked _ -> None
let soaked = function Fleet.Run.Soaked r -> Some r | Fleet.Run.Stable _ -> None

(* The single-run report reads the final configuration off the executor. *)
type exec = Exec : 's Engine.Exec.t -> exec

let pp_single_stable ~(exec : exec) (r : Fleet.Run.t) (o : Engine.Runner.outcome) =
  let (Exec exec) = exec in
  let n = r.Fleet.Run.spec.Fleet.Spec.n in
  pp_header r;
  Printf.printf "converged           : %b\n" o.Engine.Runner.converged;
  Printf.printf "stabilization time  : %.2f (parallel time units)\n"
    o.Engine.Runner.convergence_time;
  Printf.printf "interactions        : %d\n" o.Engine.Runner.total_interactions;
  if r.Fleet.Run.spec.Fleet.Spec.engine = Engine.Exec.Count then
    Printf.printf "productive events   : %d\n" (Engine.Exec.events exec);
  Printf.printf "correctness losses  : %d\n" o.Engine.Runner.violations;
  let protocol = Engine.Exec.protocol exec in
  match Engine.Exec.silent exec with
  | Some silent -> Printf.printf "final config silent : %b (exact oracle)\n" silent
  | None ->
      if protocol.Engine.Protocol.deterministic && o.Engine.Runner.converged then
        if n <= 4096 then
          (* the fallback scan is O(distinct states²) transition probes —
             fine at experiment sizes, not at the count engine's n = 10⁶ *)
          Printf.printf "final config silent : %b\n"
            (Engine.Silence.configuration_is_silent protocol (Engine.Exec.snapshot exec))
        else Printf.printf "final config silent : unknown (population too large to scan)\n"

let pp_batch_stable ~jobs ~errors (r : Fleet.Run.t) outcomes =
  let times =
    List.filter_map
      (fun o ->
        if o.Engine.Runner.converged then Some o.Engine.Runner.convergence_time else None)
      outcomes
  in
  pp_header r;
  pp_trials ~jobs r;
  Printf.printf "converged           : %d of %d\n" (List.length times)
    r.Fleet.Run.spec.Fleet.Spec.trials;
  pp_trial_failures errors;
  if times <> [] then begin
    let s = Stats.Summary.of_list times in
    Printf.printf "stabilization time  : mean %.2f  median %.2f  p95 %.2f  max %.2f\n"
      s.Stats.Summary.mean s.Stats.Summary.median s.Stats.Summary.p95 s.Stats.Summary.max
  end

let pp_single_soak (r : Fleet.Run.t) (s : Chaos.Soak.report) =
  let n = r.Fleet.Run.spec.Fleet.Spec.n in
  pp_header r;
  Printf.printf "horizon             : %.2f time units (%d interactions)\n" (pt ~n s.Chaos.Soak.horizon)
    s.Chaos.Soak.horizon;
  Printf.printf "availability        : %.4f (%d of %d interactions correct)\n"
    s.Chaos.Soak.availability s.Chaos.Soak.correct_interactions s.Chaos.Soak.total_interactions;
  Printf.printf "schedule firings    : %d (%d agent states overwritten%s)\n" s.Chaos.Soak.firings
    s.Chaos.Soak.faults_applied
    (if s.Chaos.Soak.repins > 0 then Printf.sprintf ", %d re-pins" s.Chaos.Soak.repins else "");
  Printf.printf "fault bursts        : %d (%d absorbed, %d recovered, %d censored)\n"
    s.Chaos.Soak.bursts s.Chaos.Soak.absorbed s.Chaos.Soak.recoveries s.Chaos.Soak.sla.Chaos.Soak.censored;
  Printf.printf "correctness losses  : %d\n" s.Chaos.Soak.violations;
  if Array.length s.Chaos.Soak.recovery_times > 0 then begin
    let t = Stats.Summary.of_array s.Chaos.Soak.recovery_times in
    Printf.printf "recovery time       : mean %.2f  p95 %.2f  max %.2f (time units)\n"
      t.Stats.Summary.mean t.Stats.Summary.p95 t.Stats.Summary.max
  end;
  let sla = s.Chaos.Soak.sla in
  Printf.printf "SLA                 : budget %.2f time units — %s\n" (pt ~n sla.Chaos.Soak.budget)
    (if sla.Chaos.Soak.met then "MET"
     else
       Printf.sprintf "MISSED (%d over budget, %d censored)" sla.Chaos.Soak.misses
         sla.Chaos.Soak.censored)

let pp_batch_soak ~jobs ~errors (r : Fleet.Run.t) rs =
  let spec = r.Fleet.Run.spec in
  let n = spec.Fleet.Spec.n and trials = spec.Fleet.Spec.trials in
  let horizon = Fleet.Spec.horizon_interactions spec in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let pooled = List.concat_map (fun r -> Array.to_list r.Chaos.Soak.recovery_times) rs in
  let met = List.length (List.filter (fun r -> r.Chaos.Soak.sla.Chaos.Soak.met) rs) in
  let misses = sum (fun r -> r.Chaos.Soak.sla.Chaos.Soak.misses) in
  let censored = sum (fun r -> r.Chaos.Soak.sla.Chaos.Soak.censored) in
  pp_header r;
  pp_trials ~jobs r;
  Printf.printf "horizon             : %.2f time units each (%d interactions)\n" (pt ~n horizon)
    horizon;
  pp_trial_failures errors;
  if rs <> [] then begin
    let avail = Stats.Summary.of_list (List.map (fun r -> r.Chaos.Soak.availability) rs) in
    Printf.printf "availability        : mean %.4f  min %.4f  max %.4f\n"
      avail.Stats.Summary.mean avail.Stats.Summary.min avail.Stats.Summary.max
  end;
  Printf.printf "schedule firings    : %d (%d agent states overwritten)\n"
    (sum (fun r -> r.Chaos.Soak.firings))
    (sum (fun r -> r.Chaos.Soak.faults_applied));
  Printf.printf "fault bursts        : %d (%d absorbed, %d recovered, %d censored)\n"
    (sum (fun r -> r.Chaos.Soak.bursts))
    (sum (fun r -> r.Chaos.Soak.absorbed))
    (sum (fun r -> r.Chaos.Soak.recoveries))
    censored;
  if pooled <> [] then begin
    let s = Stats.Summary.of_list pooled in
    Printf.printf "recovery time       : mean %.2f  p95 %.2f  max %.2f (pooled, time units)\n"
      s.Stats.Summary.mean s.Stats.Summary.p95 s.Stats.Summary.max
  end;
  match rs with
  | first :: _ ->
      Printf.printf "SLA                 : budget %.2f time units — %d/%d trials met"
        (pt ~n first.Chaos.Soak.sla.Chaos.Soak.budget) met trials;
      if met < trials then Printf.printf " (%d over budget, %d censored)" misses censored;
      print_newline ()
  | [] -> ()

let write_metrics ~path reg (r : Fleet.Run.t) ~stable ~soaked =
  Array.iteri
    (fun slot { Engine.Pool.tasks; busy_s } ->
      Telemetry.Metrics.set reg (Printf.sprintf "pool.domain%d.tasks" slot) (float_of_int tasks);
      Telemetry.Metrics.set reg (Printf.sprintf "pool.domain%d.busy_s" slot) busy_s)
    r.Fleet.Run.pool;
  Telemetry.Metrics.set reg "trials" (float_of_int r.Fleet.Run.spec.Fleet.Spec.trials);
  let count p l = float_of_int (List.length (List.filter p l)) in
  if stable <> [] then
    Telemetry.Metrics.set reg "converged" (count (fun o -> o.Engine.Runner.converged) stable);
  if soaked <> [] then begin
    Telemetry.Metrics.set reg "availability_mean"
      Stats.Summary.(of_list (List.map (fun s -> s.Chaos.Soak.availability) soaked)).mean;
    Telemetry.Metrics.set reg "sla_trials_met"
      (count (fun s -> s.Chaos.Soak.sla.Chaos.Soak.met) soaked)
  end;
  Telemetry.Metrics.write ~path reg

(* Runs a validated spec and prints its report: the single-run report for
   one trial, summary statistics for a batch. A batch runs on a pool of
   [jobs] domains; its numbers are identical for every [jobs] value. *)
let run spec ~jobs ~verbose ~events ~metrics =
  let single = spec.Fleet.Spec.trials = 1 in
  let jobs = if single then 1 else jobs in
  let n = spec.Fleet.Spec.n in
  let last_exec = ref None in
  let collector = Engine.Instrument.collector ~interval:(max 1 (n / 2)) () in
  let verbose = verbose && single && spec.Fleet.Spec.chaos = None in
  let on_exec ~trial:_ exec =
    if single then last_exec := Some (Exec exec);
    if verbose then
      Engine.Exec.on exec
        (Engine.Instrument.sampled collector (fun () ->
             ( Engine.Exec.leader_count exec,
               Engine.Exec.ranked_agents exec,
               if Engine.Exec.ranking_correct exec then "RANKED" else "" )))
  in
  (* The registry is installed before any executor is built so the timed
     phase spans (init drain, advance, soak) land in it. *)
  let reg = Option.map (fun _ -> Telemetry.Metrics.create ()) metrics in
  Option.iter Telemetry.Metrics.install reg;
  let r =
    Fun.protect
      ~finally:(fun () -> if reg <> None then Telemetry.Metrics.uninstall ())
      (fun () ->
        Fleet.Run.execute
          ?jobs:(if single then None else Some jobs)
          ~events:(events <> None) ~hook:{ Fleet.Run.on_exec } spec)
  in
  let ok = ref [] and errors = ref [] in
  Array.iteri
    (fun i -> function
      | Ok v -> ok := v :: !ok
      | Error f -> errors := (Printf.sprintf "trial %d" i, f) :: !errors)
    r.Fleet.Run.trials;
  let ok = List.rev !ok and errors = List.rev !errors in
  let stable = List.filter_map stable ok and soaked = List.filter_map soaked ok in
  if verbose then begin
    Printf.printf "time       leaders  ranked  status\n";
    List.iter
      (fun (t, (leaders, ranked, status)) ->
        Printf.printf "%-10.2f %-8d %-7d %s\n" t leaders ranked status)
      (Engine.Instrument.series collector)
  end;
  (match (spec.Fleet.Spec.chaos, single, stable, soaked) with
  | None, true, [ o ], _ -> pp_single_stable ~exec:(Option.get !last_exec) r o
  | Some _, true, _, [ s ] -> pp_single_soak r s
  | None, _, _, _ -> pp_batch_stable ~jobs ~errors r stable
  | Some _, _, _, _ -> pp_batch_soak ~jobs ~errors r soaked);
  Option.iter
    (fun path ->
      Fleet.Run.write_events r path;
      Telemetry.Manifest.write ~path:(path ^ ".manifest.json")
        (Fleet.Run.manifest ~jobs ~run:"ssr_sim" r))
    events;
  (match (metrics, reg) with
  | Some path, Some reg -> write_metrics ~path reg r ~stable ~soaked
  | _ -> ());
  (* A trial that raised is a harness failure; an unconverged trial fails
     a stability run. Chaos reports are data: SLA misses exit 0. *)
  let converged = List.for_all (fun o -> o.Engine.Runner.converged) stable in
  if errors = [] && converged then 0 else 1

let run_loose ~n ~seed ~verbose =
  let t_max = 4 * n in
  let protocol = Core.Loose.protocol ~n ~t_max in
  let rng = Prng.create ~seed in
  let sim = Engine.Sim.make ~protocol ~init:(Core.Loose.uniform rng ~n ~t_max) ~rng in
  let horizon = 100 * t_max * n in
  while (not (Engine.Sim.leader_correct sim)) && Engine.Sim.interactions sim < horizon do
    Engine.Sim.step sim
  done;
  Printf.printf "protocol            : %s\n" protocol.Engine.Protocol.name;
  Printf.printf "population          : %d (rules only use t_max=%d)\n" n t_max;
  Printf.printf "unique leader       : %b after %.2f time units\n"
    (Engine.Sim.leader_correct sim) (Engine.Sim.parallel_time sim);
  if verbose then begin
    let start = Engine.Sim.interactions sim in
    while Engine.Sim.leader_correct sim && Engine.Sim.interactions sim - start < 50_000 * n do
      Engine.Sim.step sim
    done;
    if Engine.Sim.leader_correct sim then
      Printf.printf "holding time        : > %.0f time units (budget exhausted)\n"
        (float_of_int (Engine.Sim.interactions sim - start) /. float_of_int n)
    else
      Printf.printf "holding time        : %.0f time units (loose stabilization)\n"
        (float_of_int (Engine.Sim.interactions sim - start) /. float_of_int n)
  end;
  if Engine.Sim.leader_correct sim || verbose then 0 else 1

let main protocol n h scenario seed verbose topology engine kernel trials jobs events metrics chaos
    sla horizon =
  let jobs = match jobs with Some j -> j | None -> Engine.Pool.default_jobs () in
  if jobs < 1 then usage "--jobs must be >= 1 (got %d)" jobs;
  let ok = function Ok v -> v | Error msg -> usage "%s" msg in
  let engine = ok (Fleet.Spec.engine_of_string engine) in
  let compiled = ok (Fleet.Spec.compiled_of_string kernel) in
  if protocol = "loose" then begin
    (* Loose is not a ranking protocol: it keeps its own small path. *)
    let unsupported what = usage "%s is not supported for the loose protocol" what in
    if n < 2 then usage "n must be >= 2 (got %d)" n;
    if compiled then unsupported "--kernel compiled";
    if trials <> 1 then unsupported "--trials";
    if engine = Engine.Exec.Count then unsupported "--engine count";
    if events <> None || metrics <> None then unsupported "--events/--metrics";
    if chaos <> None || sla <> None || horizon <> None then unsupported "--chaos";
    run_loose ~n ~seed ~verbose
  end
  else
    let spec =
      ok
        (Fleet.Spec.validate
           {
             Fleet.Spec.protocol;
             n;
             h;
             seed;
             scenario;
             engine;
             compiled;
             topology;
             trials;
             chaos;
             horizon;
             sla;
           })
    in
    run spec ~jobs ~verbose ~events ~metrics

open Cmdliner

let protocol_arg =
  let doc = "Protocol: silent (Silent-n-state-SSR), optimal (Optimal-Silent-SSR), sublinear (Sublinear-Time-SSR) or loose (loosely-stabilizing LE)." in
  Arg.(value & opt string "optimal" & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let n_arg =
  let doc = "Population size." in
  Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc)

let h_arg =
  let doc = "History depth H for the sublinear protocol (0 = direct detection)." in
  Arg.(value & opt int 2 & info [ "H"; "depth" ] ~docv:"H" ~doc)

let scenario_arg =
  let doc = "Initial-configuration scenario (use a bogus name to list the options)." in
  Arg.(value & opt string "uniform" & info [ "s"; "scenario" ] ~docv:"SCENARIO" ~doc)

let seed_arg =
  let doc = "PRNG seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let verbose_arg =
  let doc = "Print the convergence timeline (for loose: also measure holding time)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let topology_arg =
  let doc =
    "Interaction graph: complete, ring, star or regular4. The agent engine samples the graph's \
     edges directly; the count engine lumps it by degree class (exact on star, annealed \
     approximation — with a warning — on ring and regular4)."
  in
  Arg.(value & opt string "complete" & info [ "topology" ] ~docv:"GRAPH" ~doc)

let engine_arg =
  let doc =
    "Executor: agent (every interaction simulated) or count (lazy count-based engine for \
     deterministic protocols: exact null-interaction skipping with on-demand pair probing, and \
     an exact silence oracle while the live-state set stays small — reaches populations of \
     10⁶ on every deterministic protocol, e.g. $(b,-p optimal -n 1000000 -s correct))."
  in
  Arg.(value & opt string "agent" & info [ "engine" ] ~docv:"ENGINE" ~doc)

let kernel_arg =
  let doc =
    "Transition kernel: interp (call the protocol's OCaml transition directly) or compiled \
     (compile the protocol through the IR pipeline to packed int codes with a memoized \
     transition table; observables are identical, but it is currently slower end to end — see \
     EXPERIMENTS.md \"Experiment IR\"). Deterministic protocols with a declared state space only."
  in
  Arg.(value & opt string "interp" & info [ "kernel" ] ~docv:"KERNEL" ~doc)

let trials_arg =
  let doc =
    "Run this many independent trials and print summary statistics instead of a single timeline."
  in
  Arg.(value & opt int 1 & info [ "trials" ] ~docv:"TRIALS" ~doc)

let jobs_arg =
  let doc =
    "Number of domains running trials in parallel (default: $(b,REPRO_JOBS) or the recommended \
     domain count). Results are identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let events_arg =
  let doc =
    "Write the run's instrumentation events to $(docv) as JSONL (schema v1; see DESIGN.md \
     \"Telemetry\"). A run manifest is written next to it as $(docv).manifest.json. With \
     --trials, every trial's events land in the same file, tagged with their trial index, in \
     trial order regardless of --jobs."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a JSON metrics summary (engine counters, per-trial wall times, pool utilization) \
     to $(docv) at the end of the run."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let chaos_arg =
  let doc =
    "Soak the run under a sustained fault schedule instead of running to stability, and report \
     availability and recovery SLAs. $(docv) is a comma-separated spec combining schedule \
     clauses (burst:AT, periodic:EVERY, poisson:RATE — RATE in faults per parallel time unit; \
     compose with +) with exactly one adversary clause (corrupt:F, kill-leader, duplicate-rank, \
     stuck:AGENTS:DURATION). Example: $(b,--chaos poisson:0.1,corrupt:0.05)."
  in
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)

let sla_arg =
  let doc =
    "Recovery SLA budget in parallel time units (chaos mode only). A burst that breaks \
     correctness must recover within the budget; default: 4 confirmation windows."
  in
  Arg.(value & opt (some float) None & info [ "sla" ] ~docv:"TIME" ~doc)

let horizon_arg =
  let doc =
    "Soak length in parallel time units (chaos mode only; default: 8 confirmation windows)."
  in
  Arg.(value & opt (some float) None & info [ "horizon" ] ~docv:"TIME" ~doc)

let cmd =
  let doc = "simulate self-stabilizing ranking / leader election population protocols" in
  let info = Cmd.info "ssr_sim" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const main $ protocol_arg $ n_arg $ h_arg $ scenario_arg $ seed_arg $ verbose_arg
      $ topology_arg $ engine_arg $ kernel_arg $ trials_arg $ jobs_arg $ events_arg $ metrics_arg
      $ chaos_arg $ sla_arg $ horizon_arg)

let () = exit (Cmd.eval' cmd)

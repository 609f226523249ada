(* Workload catalogue and the untraced trial path.

   A trial here is exactly one trial of [ssr_sim --trials T]: the same
   scenario generator, engine construction, measurement policy and trial
   seeding (child [i] of [Prng.split_many (Prng.create ~seed)]), so the
   benchmark times the program users run. Rounds of trials go through
   [Engine.Pool] and [Fleet.Supervise] like [ssr_sim]'s batch modes. *)

type protocol = Silent | Optimal

type mode =
  | Stability
  | Soak of { spec : string; horizon_time : float }
      (** [ssr_sim --chaos spec --horizon horizon_time --events FILE] *)

type t = {
  name : string;
  why : string;
  protocol : protocol;
  n : int;
  scenario : string;
  engine : Engine.Exec.kind;
  compiled : bool;
  jobs : int;
  mode : mode;
  round : int;  (** trials per round; rounds repeat until the run's time is up *)
  setups : int;  (** timed set-up repetitions per run (median reported) *)
}

let agent_optimal =
  {
    name = "agent-optimal";
    why =
      "the single-threaded agent hot path: pair draw, transition, Monitor update; count \
       engine, kernel and pool untouched";
    protocol = Optimal;
    n = 256;
    scenario = "uniform";
    engine = Engine.Exec.Agent;
    compiled = false;
    jobs = 1;
    mode = Stability;
    round = 8;
    setups = 25;
  }

let count_silent =
  {
    name = "count-silent";
    why =
      "the Omega(n^2) worst case, reachable only on the count engine: eager drain probing, \
       no pair draws or per-interaction Monitor updates";
    protocol = Silent;
    n = 4096;
    scenario = "worst-case";
    engine = Engine.Exec.Count;
    compiled = false;
    jobs = 1;
    mode = Stability;
    round = 4;
    setups = 9;
  }

let chaos_soak =
  {
    name = "chaos-soak";
    why =
      "the only path through the pool at 2 domains, the compiled kernel, chaos injection and \
       the events write and read-back";
    protocol = Optimal;
    n = 256;
    scenario = "uniform";
    engine = Engine.Exec.Agent;
    compiled = true;
    jobs = 2;
    mode = Soak { spec = "poisson:0.0005,corrupt:0.05"; horizon_time = 4000.0 };
    round = 4;
    setups = 25;
  }

let catalogue = [ agent_optimal; count_silent; chaos_soak ]
let find name = List.find_opt (fun w -> w.name = name) catalogue

(* The [ssr_sim] flags that run the same trials. *)
let ssr_sim_flags w ~seed ~trials =
  let base =
    [
      "-p";
      (match w.protocol with Silent -> "silent" | Optimal -> "optimal");
      "-n";
      string_of_int w.n;
      "-s";
      w.scenario;
      "--engine";
      Engine.Exec.kind_to_string w.engine;
      "--kernel";
      (if w.compiled then "compiled" else "interp");
      "--trials";
      string_of_int trials;
      "--jobs";
      string_of_int w.jobs;
      "--seed";
      string_of_int seed;
    ]
  in
  match w.mode with
  | Stability -> base
  | Soak { spec; horizon_time } ->
      base @ [ "--chaos"; spec; "--horizon"; Printf.sprintf "%g" horizon_time ]

(* One protocol with everything [ssr_sim]'s [Runnable] carries. *)
type 's proto = {
  protocol : 's Engine.Protocol.t;
  enumerable : 's Engine.Enumerable.t;
  gen : Prng.t -> 's array;
  random_state : Prng.t -> 's;
  horizon_scale : float;
}

type packed = Proto : 's proto -> packed

let proto w =
  let n = w.n in
  let scenario catalogue =
    match List.assoc_opt w.scenario catalogue with
    | Some gen -> gen
    | None -> invalid_arg ("perfbench: unknown scenario " ^ w.scenario)
  in
  match w.protocol with
  | Silent ->
      Proto
        {
          protocol = Core.Silent_n_state.protocol ~n;
          enumerable = Core.Silent_n_state.enumerable ~n;
          gen = scenario (Core.Scenarios.silent_catalogue ~n);
          random_state = (fun rng -> Core.Scenarios.silent_random_state rng ~n);
          horizon_scale = float_of_int n;
        }
  | Optimal ->
      let params = Core.Params.optimal_silent n in
      Proto
        {
          protocol = Core.Optimal_silent.protocol ~params ~n ();
          enumerable = Core.Optimal_silent.enumerable ~params ~n ();
          gen = scenario (Core.Scenarios.optimal_catalogue ~params ~n);
          random_state = (fun rng -> Core.Scenarios.optimal_random_state rng ~params ~n);
          horizon_scale = 40.0;
        }

type outcome = Stable of Engine.Runner.outcome | Soaked of Chaos.Soak.report

type trial = {
  index : int;
  wall_s : float;  (** engine build + run, as the trial's pool task sees it *)
  events : int;  (** [Exec.events] at the end of the trial *)
  interactions : int;
  outcome : outcome;
  problem : string option;  (** [Some why] when the trial failed a check *)
}

(* A workload ready to run: protocol built, kernel compiled, pool spawned.
   [root] yields trial [i]'s generator as its [i]-th split, which is how
   [ssr_sim --trials] seeds trial [i]. *)
type 's ready = {
  w : t;
  p : 's proto;
  kernel : 's Ir.Kernel.t option;
  pool : Engine.Pool.t;
  seed : int;
  root : Prng.t;
  mutable next : int;
  chaos : (Chaos.Schedule.t * Chaos.Adversary.t) option;
  horizon : int;  (** soak horizon, interactions *)
  events_path : string;
}

type prepared = Ready : 's ready -> prepared

let now = Unix.gettimeofday

(* Same construction as [ssr_sim]'s [make_exec] on the complete graph. *)
let make_exec (type s) (r : s ready) ~(init : s array) ~rng : s Engine.Exec.t =
  match r.kernel with
  | Some k -> Ir.Kernel.exec ~kind:r.w.engine k ~init ~rng
  | None -> Engine.Exec.make ~kind:r.w.engine ~protocol:r.p.protocol ~init ~rng ()

let horizon_interactions w =
  match w.mode with
  | Stability -> 0
  | Soak { horizon_time; _ } -> max 1 (int_of_float (Float.ceil (horizon_time *. float_of_int w.n)))

(* Where runs write their events files, relative to the working directory. *)
let events_dir = "_perfbench"

(* Protocol construction, initial configuration, kernel compile, pool spawn
   and the first trial's engine build: everything before the first
   interaction. The first engine is built from a copy of the root stream,
   so the trials themselves start from the same generator state. *)
let prepare ?(events_dir = events_dir) w ~seed =
  let (Proto p) = proto w in
  let kernel = if w.compiled then Some (Ir.Kernel.compile p.enumerable) else None in
  let chaos =
    match w.mode with
    | Stability -> None
    | Soak { spec; _ } -> (
        match Chaos.Spec.parse spec with
        | Ok c -> Some c
        | Error msg -> invalid_arg ("perfbench: " ^ msg))
  in
  let pool = Engine.Pool.create ~jobs:w.jobs in
  let root = Prng.create ~seed in
  let r =
    {
      w;
      p;
      kernel;
      pool;
      seed;
      root;
      next = 0;
      chaos;
      horizon = horizon_interactions w;
      events_path = Filename.concat events_dir (Printf.sprintf "%s-s%d.events.jsonl" w.name seed);
    }
  in
  let rng = Prng.split (Prng.copy root) in
  let (_ : _ Engine.Exec.t) = make_exec r ~init:(p.gen rng) ~rng in
  Ready r

let release (Ready r) =
  Engine.Pool.shutdown r.pool;
  if Sys.file_exists r.events_path then Sys.remove r.events_path

(* Step events thinned like [ssr_sim --events]. *)
let step_interval ~n = max 1 (n / 2)

let stability_problem (type s) (exec : s Engine.Exec.t) (o : Engine.Runner.outcome) =
  if not o.Engine.Runner.converged then Some "did not converge within the horizon"
  else if not (Engine.Exec.ranking_correct exec) then Some "converged but not ranking_correct"
  else if Engine.Exec.silent exec = Some false then Some "converged but provably not silent"
  else None

(* [ssr_sim]'s stability policy: ranking, its horizon and confirmation
   window. *)
let stability (type s) (r : s ready) (exec : s Engine.Exec.t) =
  let n = r.w.n in
  Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
    ~max_interactions:
      (Engine.Runner.default_horizon ~n ~expected_time:(r.p.horizon_scale *. float_of_int n))
    ~confirm_interactions:(Engine.Runner.default_confirm ~n)
    exec

(* One trial. [wrap] lets the traced run interpose on the executor; the
   untraced path leaves it alone. *)
let run_trial (type s) ?(wrap : s Engine.Exec.t -> s Engine.Exec.t = Fun.id) (r : s ready) ~index
    ~rng ~sink =
  let n = r.w.n in
  let t0 = now () in
  let init = r.p.gen rng in
  let exec = wrap (make_exec r ~init ~rng) in
  Option.iter
    (fun sink ->
      let run =
        Telemetry.Events.make_run ~engine:r.w.engine ~protocol:r.p.protocol.Engine.Protocol.name ~n
          ~seed:r.seed ~trial:index ()
      in
      Telemetry.Events.attach ~step_interval:(step_interval ~n) exec ~run sink)
    sink;
  let outcome, problem =
    match r.chaos with
    | None ->
        let o = stability r exec in
        (Stable o, stability_problem exec o)
    | Some (schedule, adversary) ->
        let report =
          Chaos.Soak.run ~schedule ~adversary ~random_state:r.p.random_state ~rng
            ~horizon:r.horizon exec
        in
        (Soaked report, None)
  in
  {
    index;
    wall_s = now () -. t0;
    events = Engine.Exec.events exec;
    interactions = Engine.Exec.interactions exec;
    outcome;
    problem;
  }

(* The read-back check: folding the written events file with
   [Telemetry.Timeline] must reproduce each soak report. *)
let readback_problem (s : Telemetry.Timeline.summary) (rep : Chaos.Soak.report) =
  let bursts = s.Telemetry.Timeline.bursts in
  let count f = List.length (List.filter f bursts) in
  let absorbed = count (fun b -> not b.Telemetry.Timeline.broke) in
  let recovered =
    count (fun b -> b.Telemetry.Timeline.broke && b.Telemetry.Timeline.recovered_at <> None)
  in
  let censored =
    count (fun b -> b.Telemetry.Timeline.broke && b.Telemetry.Timeline.recovered_at = None)
  in
  let checks =
    [
      ("availability", Telemetry.Timeline.availability s = rep.Chaos.Soak.availability);
      ( "correct interactions",
        s.Telemetry.Timeline.correct_interactions = rep.Chaos.Soak.correct_interactions );
      ("horizon", s.Telemetry.Timeline.end_interactions = rep.Chaos.Soak.total_interactions);
      ("bursts", List.length bursts = rep.Chaos.Soak.bursts);
      ("absorbed", absorbed = rep.Chaos.Soak.absorbed);
      ("recovered", recovered = rep.Chaos.Soak.recoveries);
      ("censored", censored = rep.Chaos.Soak.sla.Chaos.Soak.censored);
    ]
  in
  match List.filter (fun (_, ok) -> not ok) checks with
  | [] -> None
  | bad -> Some ("timeline read-back differs: " ^ String.concat ", " (List.map fst bad))

type round = {
  results : (trial, string) result array;  (** in trial order; [Error] = the trial raised *)
  round_s : float;  (** wall time of the whole round, read-back included *)
  readback_s : float option;  (** [Timeline.load] + fold of the events file *)
}

let failure_text (f : Fleet.Supervise.failure) = f.Fleet.Supervise.error

(* Replays per-trial buffers into the events file in trial order, like
   [ssr_sim]'s batch modes; failed trials' partial buffers are skipped. *)
let write_events path results buffers =
  let sink = Telemetry.Sink.file path in
  Array.iteri
    (fun i buffer ->
      if Result.is_ok results.(i) then
        String.split_on_char '\n' (Telemetry.Sink.contents buffer)
        |> List.iter (fun line -> if line <> "" then Telemetry.Sink.write_line sink line))
    buffers;
  Telemetry.Sink.close sink

let readback path =
  let ic = open_in_bin path in
  let loaded =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Telemetry.Timeline.load ic)
  in
  Result.map Telemetry.Timeline.fold loaded

(* Check each soak trial against its summary in the read-back (summaries
   come in first-appearance order, which is trial order). *)
let check_readback results summaries =
  let summaries = ref summaries in
  Array.map
    (function
      | Ok ({ outcome = Soaked rep; _ } as t) -> (
          match !summaries with
          | s :: rest ->
              summaries := rest;
              let problem =
                match t.problem with Some _ as p -> p | None -> readback_problem s rep
              in
              Ok { t with problem }
          | [] -> Ok { t with problem = Some "missing from the events file" })
      | other -> other)
    results

let run_round_with ?wrap r ~count =
  let t0 = now () in
  let first = r.next in
  let children = Prng.split_many r.root count in
  r.next <- r.next + count;
  let soak = r.chaos <> None in
  let buffers = if soak then Array.init count (fun _ -> Telemetry.Sink.buffer ()) else [||] in
  let results =
    Engine.Pool.init r.pool count (fun k ->
        Fleet.Supervise.run (fun () ->
            run_trial ?wrap r ~index:(first + k) ~rng:children.(k)
              ~sink:(if soak then Some buffers.(k) else None)))
  in
  let results = Array.map (Result.map_error failure_text) results in
  let results, readback_s =
    if not soak then (results, None)
    else begin
      write_events r.events_path results buffers;
      let t1 = now () in
      let loaded = readback r.events_path in
      let dt = now () -. t1 in
      match loaded with
      | Ok summaries -> (check_readback results summaries, Some dt)
      | Error msg ->
          let fail t = { t with problem = Some ("read-back: " ^ msg) } in
          (Array.map (Result.map fail) results, Some dt)
    end
  in
  { results; round_s = now () -. t0; readback_s }

let run_round (Ready r) ~count = run_round_with r ~count

let round_events r =
  Array.fold_left (fun acc -> function Ok t -> acc + t.events | Error _ -> acc) 0 r.results

let trial_failed = function Ok t -> t.problem <> None | Error _ -> true

(* One line per trial, hashed: changes whenever the random stream, the
   protocol or the engine's observable behaviour does. *)
let trial_line = function
  | Error e -> "raised " ^ e
  | Ok t -> (
      match t.outcome with
      | Stable o ->
          Printf.sprintf "%d stable %b %d %d %d %d" t.index o.Engine.Runner.converged
            o.Engine.Runner.convergence_interactions o.Engine.Runner.total_interactions
            o.Engine.Runner.violations t.events
      | Soaked rep ->
          Printf.sprintf "%d soak %d %d %d %d %d %d %d %d" t.index
            rep.Chaos.Soak.correct_interactions rep.Chaos.Soak.firings
            rep.Chaos.Soak.faults_applied rep.Chaos.Soak.bursts rep.Chaos.Soak.absorbed
            rep.Chaos.Soak.recoveries rep.Chaos.Soak.sla.Chaos.Soak.censored t.events)

let digest results =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map trial_line (Array.to_list results))))

(* The summary [ssr_sim --trials] prints for the same flags, rendered the
   same way, so tests can compare the two byte for byte. *)
let summary_lines w results =
  let ok = List.filter_map Result.to_option (Array.to_list results) in
  let trials = Array.length results in
  match w.mode with
  | Stability ->
      let times =
        List.filter_map
          (fun t ->
            match t.outcome with
            | Stable o when o.Engine.Runner.converged -> Some o.Engine.Runner.convergence_time
            | _ -> None)
          ok
      in
      Printf.sprintf "converged           : %d of %d" (List.length times) trials
      ::
      (if times = [] then []
       else
         let s = Stats.Summary.of_list times in
         [
           Printf.sprintf "stabilization time  : mean %.2f  median %.2f  p95 %.2f  max %.2f"
             s.Stats.Summary.mean s.Stats.Summary.median s.Stats.Summary.p95 s.Stats.Summary.max;
         ])
  | Soak _ ->
      let reps =
        List.filter_map (fun t -> match t.outcome with Soaked r -> Some r | Stable _ -> None) ok
      in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
      let avail =
        if reps = [] then []
        else
          let s = Stats.Summary.of_list (List.map (fun r -> r.Chaos.Soak.availability) reps) in
          [
            Printf.sprintf "availability        : mean %.4f  min %.4f  max %.4f"
              s.Stats.Summary.mean s.Stats.Summary.min s.Stats.Summary.max;
          ]
      in
      avail
      @ [
          Printf.sprintf "schedule firings    : %d (%d agent states overwritten)"
            (sum (fun r -> r.Chaos.Soak.firings))
            (sum (fun r -> r.Chaos.Soak.faults_applied));
          Printf.sprintf "fault bursts        : %d (%d absorbed, %d recovered, %d censored)"
            (sum (fun r -> r.Chaos.Soak.bursts))
            (sum (fun r -> r.Chaos.Soak.absorbed))
            (sum (fun r -> r.Chaos.Soak.recoveries))
            (sum (fun r -> r.Chaos.Soak.sla.Chaos.Soak.censored));
        ]

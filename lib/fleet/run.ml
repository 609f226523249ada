type outcome = Stable of Engine.Runner.outcome | Soaked of Chaos.Soak.report
type kernel = { states : int; exact : bool; compile_s : float }

type t = {
  spec : Spec.t;
  protocol : string;
  kernel : kernel option;
  trials : (outcome, Supervise.failure) result array;
  events : Telemetry.Sink.t array;
  pool : Engine.Pool.domain_stats array;
  wall_clock_s : float;
}

type hook = { on_exec : 's. trial:int -> 's Engine.Exec.t -> unit }

let no_hook = { on_exec = (fun ~trial:_ _ -> ()) }

let entry spec =
  match Spec.resolve spec with
  | Ok entry -> entry
  | Error msg -> invalid_arg ("Fleet.Run: " ^ msg)

(* The count engine takes a non-complete topology through its
   degree-class lumping (Topology.degree_classes). On the star the
   lumping is exact; on the ring or a random regular graph it is the
   annealed approximation — say so rather than silently reporting
   approximate numbers as exact. *)
let classes g =
  let c = Engine.Topology.degree_classes g in
  if not c.Engine.Topology.exact then
    Printf.eprintf
      "warning: degree-class lumping of '%s' is not exact; the count engine runs the annealed \
       approximation (degree sequence honored, wiring resampled every interaction)\n\
       %!"
      (Engine.Topology.name g);
  c

(* The run's executor factory. Topology and kernel are built here, once,
   and shared by every trial: the agent engine samples the graph's edges,
   the count engine lumps it by degree class, and a compiled kernel runs
   either engine on packed int codes. *)
let make_exec (type s) (spec : Spec.t) (protocol : s Engine.Protocol.t)
    (kernel : s Ir.Kernel.t option) : init:s array -> rng:Prng.t -> s Engine.Exec.t =
  let kind = spec.Spec.engine and g = Spec.graph spec in
  let classes, sampler =
    match kind with
    | Engine.Exec.Count -> (Option.map classes g, None)
    | Engine.Exec.Agent -> (None, Option.map Engine.Topology.sampler g)
  in
  match (kernel, sampler) with
  | Some k, _ -> fun ~init ~rng -> Ir.Kernel.exec ?sampler ?classes ~kind k ~init ~rng
  | None, Some sampler ->
      fun ~init ~rng -> Engine.Exec.of_sim (Engine.Sim.make_with ~sampler ~protocol ~init ~rng)
  | None, None -> fun ~init ~rng -> Engine.Exec.make ?classes ~kind ~protocol ~init ~rng ()

(* (scenario generator, simulation generator) per trial; see the seeding
   rule in run.mli. *)
let trial_rngs (spec : Spec.t) =
  if spec.Spec.trials = 1 then
    [| (Prng.create ~seed:(spec.Spec.seed + 1000), Prng.create ~seed:spec.Spec.seed) |]
  else
    Prng.split_many (Prng.create ~seed:spec.Spec.seed) spec.Spec.trials
    |> Array.map (fun c -> (c, c))

let execute ?jobs ?(events = false) ?(hook = no_hook) (spec : Spec.t) =
  let t0 = Unix.gettimeofday () in
  let (Catalogue.Entry e) = entry spec in
  let n = spec.Spec.n and trials = spec.Spec.trials in
  let kernel =
    match e.enumerable with
    | Ok enumerable when spec.Spec.compiled -> Some (Ir.Kernel.compile (enumerable ()))
    | Ok _ | Error _ -> None
  in
  let make = make_exec spec e.protocol kernel in
  let gen = List.assoc spec.Spec.scenario e.scenarios in
  let chaos = Option.map (fun s -> Result.get_ok (Chaos.Spec.parse s)) spec.Spec.chaos in
  let rngs = trial_rngs spec in
  let buffers = if events then Array.init trials (fun _ -> Telemetry.Sink.buffer ()) else [||] in
  let trial i =
    let trial_t0 = Unix.gettimeofday () in
    let scenario_rng, rng = rngs.(i) in
    let init = gen scenario_rng in
    let exec = Telemetry.Span.wrap "init_drain" (fun () -> make ~init ~rng) in
    if events then begin
      let run =
        Telemetry.Events.make_run ~engine:spec.Spec.engine ~protocol:e.protocol.Engine.Protocol.name
          ~n ~seed:spec.Spec.seed
          ?trial:(if trials = 1 then None else Some i)
          ()
      in
      Telemetry.Events.attach ~step_interval:(max 1 (n / 2)) exec ~run buffers.(i)
    end;
    hook.on_exec ~trial:i exec;
    let outcome =
      match chaos with
      | None ->
          Stable
            (Telemetry.Span.wrap "advance" (fun () ->
                 Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
                   ~max_interactions:
                     (Engine.Runner.default_horizon ~n
                        ~expected_time:(e.horizon_scale *. float_of_int n))
                   ~confirm_interactions:(Engine.Runner.default_confirm ~n)
                   exec))
      | Some (schedule, adversary) ->
          Soaked
            (Telemetry.Span.wrap "soak" (fun () ->
                 Chaos.Soak.run ?sla_budget:(Spec.sla_interactions spec) ~schedule ~adversary
                   ~random_state:e.random_state ~rng ~horizon:(Spec.horizon_interactions spec)
                   exec))
    in
    Option.iter
      (fun reg ->
        Telemetry.Metrics.record_exec exec;
        Telemetry.Metrics.observe reg "trial_wall_s" (Unix.gettimeofday () -. trial_t0))
      (Telemetry.Metrics.ambient ());
    outcome
  in
  let results, pool =
    match jobs with
    | None -> (Array.init trials (fun i -> Ok (trial i)), [||])
    | Some jobs ->
        Engine.Pool.with_pool ~jobs (fun pool ->
            let results =
              Engine.Pool.init pool trials (fun i -> Supervise.run (fun () -> trial i))
            in
            (results, Engine.Pool.stats pool))
  in
  {
    spec;
    protocol = e.protocol.Engine.Protocol.name;
    kernel =
      Option.map
        (fun k ->
          {
            states = Ir.Kernel.states k;
            exact = Ir.Kernel.exact k;
            compile_s = k.Ir.Kernel.compile_s;
          })
        kernel;
    trials = results;
    events = buffers;
    pool;
    wall_clock_s = Unix.gettimeofday () -. t0;
  }

let write_events t path =
  let sink = Telemetry.Sink.file path in
  Array.iteri
    (fun i buffer ->
      if Result.is_ok t.trials.(i) then
        String.split_on_char '\n' (Telemetry.Sink.contents buffer)
        |> List.iter (fun line -> if line <> "" then Telemetry.Sink.write_line sink line))
    t.events;
  Telemetry.Sink.close sink

let manifest_params (spec : Spec.t) =
  let module J = Telemetry.Json in
  let (Catalogue.Entry e) = entry spec in
  [
    ("scenario", J.String spec.Spec.scenario);
    ("topology", J.String spec.Spec.topology);
    ("kernel", J.String (Spec.kernel_name spec));
  ]
  @
  match spec.Spec.chaos with
  | None -> [ ("horizon_scale", J.Float e.horizon_scale) ]
  | Some chaos ->
      let budget =
        match Spec.sla_interactions spec with
        | Some b -> b
        | None -> Chaos.Soak.default_budget ~n:spec.Spec.n
      in
      [
        ("chaos", J.String chaos);
        ("horizon_interactions", J.Int (Spec.horizon_interactions spec));
        ("sla_budget_interactions", J.Int budget);
      ]

let manifest ?(jobs = 1) ?(params = []) ~run t =
  let spec = t.spec in
  Telemetry.Manifest.make ~run ~protocol:t.protocol
    ~engine:(Engine.Exec.kind_to_string spec.Spec.engine)
    ~n:spec.Spec.n ~seed:spec.Spec.seed ~trials:spec.Spec.trials ~jobs
    ~params:(manifest_params spec @ params) ~wall_clock_s:t.wall_clock_s ()

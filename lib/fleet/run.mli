(** Executes a {!Spec}: the one run path behind [ssr_sim] and the fleet.

    {!execute} builds the executor factory once per run — catalogue
    entry, compiled kernel, topology (a scheduler sampler on the agent
    engine, a degree-class lumping on the count engine) — and then runs
    every trial either to stability or, under a chaos spec, through a
    soak. Trials run on a pool of [jobs] domains, each supervised
    ({!Supervise.run}), or sequentially in the calling domain, where the
    first raising trial aborts the run.

    {b Seeding.} A one-trial run draws its scenario from [seed + 1000]
    and simulates from [seed]; its events carry no trial tag. With
    [trials >= 2], trial [i] draws both from child [i] of
    [Prng.split_many (Prng.create ~seed) trials] and its events are
    tagged [i]. The rule depends on the spec alone — never on [jobs],
    the front-end, the attempt or the worker — so a spec's events file
    is the same bytes from [ssr_sim --events] and from a fleet job.

    Events are thinned to about two [Step] samples per parallel time
    unit; landmark events are always kept. *)

type outcome =
  | Stable of Engine.Runner.outcome  (** run to stability *)
  | Soaked of Chaos.Soak.report  (** soaked under the spec's chaos *)

type kernel = { states : int; exact : bool; compile_s : float }
(** What the compiled kernel reports on the [ssr_sim] kernel line. *)

type t = {
  spec : Spec.t;
  protocol : string;  (** the protocol's display name *)
  kernel : kernel option;  (** [Some] iff [spec.compiled] *)
  trials : (outcome, Supervise.failure) result array;  (** in trial order *)
  events : Telemetry.Sink.t array;  (** per-trial event buffers; empty unless [~events:true] *)
  pool : Engine.Pool.domain_stats array;  (** empty for a sequential run *)
  wall_clock_s : float;
}

type hook = { on_exec : 's. trial:int -> 's Engine.Exec.t -> unit }
(** Called with each trial's executor after it is built and its events
    are attached, before it runs: [ssr_sim -v] samples a timeline from
    it, the fleet arms its kill and deadline faults on it. On a pool it
    runs on the trial's domain. *)

val execute : ?jobs:int -> ?events:bool -> ?hook:hook -> Spec.t -> t
(** Runs every trial of a valid spec ([Invalid_argument] otherwise).
    With [jobs], on that many pool domains; without, sequentially,
    raising what a trial raises. [events] (default [false]) buffers each
    trial's event stream. With a metrics registry installed, each trial
    records its executor counters, a [trial_wall_s] sample and the
    [init_drain] / [advance] / [soak] spans. *)

val write_events : t -> string -> unit
(** Writes the buffered events of the successful trials to a file, in
    trial order; a failed trial's partial buffer is dropped. *)

val manifest_params : Spec.t -> (string * Telemetry.Json.t) list
(** The manifest's [params], a function of the spec alone: scenario,
    topology, kernel, then [horizon_scale] for a stability run or the
    chaos spec with its horizon and SLA budget in interactions for a
    soak. *)

val manifest :
  ?jobs:int -> ?params:(string * Telemetry.Json.t) list -> run:string -> t -> Telemetry.Manifest.t
(** The run's manifest: {!manifest_params} followed by [params]. *)

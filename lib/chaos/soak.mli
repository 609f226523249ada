(** Soak runs: drive an executor under a sustained fault schedule and
    measure steady-state availability.

    [Runner.run_to_stability] measures one recovery; a soak run measures
    what self-stabilization buys under {e continuous} attack, which is the
    regime the Ω(log n) per-recovery lower bound (Sudo & Masuzawa, PODC
    2019) makes interesting: each burst costs at least logarithmic time,
    so there is a fault rate beyond which the system is never correct.
    The runner interleaves {!Schedule} arrivals with [Exec.advance] up to
    a fixed interaction horizon and reports the fraction of the
    interaction clock spent correct, plus per-burst recovery statistics
    and a verdict against a recovery SLA.

    {b Bursts} are computed by [Telemetry.Timeline]'s per-run fold: the
    soak feeds it a [Fault] landmark per firing that overwrote an agent
    and per re-pin, and every [Correct_entered] / [Correct_lost], then
    reads bursts, {!Telemetry.Timeline.outcome}s, correctness losses and
    correct interactions off it. A maximal group of faults with no
    intervening re-entry into correctness is one burst; it is absorbed,
    recovers (timed from its last fault, on the interaction clock) or is
    censored by the horizon. The same landmarks reach the executor's
    [Instrument] stream ([Fault] from the injection surface), so folding
    the run's events file with [bin/timeline] gives the same bursts.

    {b Determinism.} The soak draws randomness only from [Prng.split]
    children of [rng] (one for the schedule, one for the adversary), taken
    before the run starts; given a fresh executor and seed the report and
    the event stream are bit-identical — on any [--jobs] value when each
    trial's generator is pre-split, as [Exp_common.run_trials] does.

    {b Metrics.} When an ambient [Telemetry.Metrics] registry is
    installed, every run folds its counters into it
    ([chaos.firings], [chaos.faults_applied], [chaos.repins],
    [chaos.bursts], [chaos.recoveries], [chaos.censored],
    [chaos.violations], [chaos.sla_misses]). *)

type sla = {
  budget : int;  (** recovery budget, interactions *)
  misses : int;  (** recovered bursts over budget *)
  censored : int;  (** broken bursts never recovered — counted as misses *)
  met : bool;  (** no misses and nothing censored *)
}

type report = {
  horizon : int;  (** interaction budget of the run *)
  total_interactions : int;  (** clock actually elapsed (= horizon) *)
  correct_interactions : int;  (** interaction-clock spent correct *)
  availability : float;  (** correct / total *)
  firings : int;  (** schedule arrivals applied *)
  faults_applied : int;  (** agent states overwritten, re-pins included *)
  repins : int;  (** stuck-agent re-injections *)
  bursts : int;  (** fault bursts (Timeline semantics) *)
  absorbed : int;  (** bursts that never broke correctness *)
  recoveries : int;  (** broken bursts that re-entered correctness *)
  recovery_times : float array;
      (** recovery parallel times (entry − last fault), chronological *)
  violations : int;  (** correctness losses *)
  sla : sla;
}

val default_budget : n:int -> int
(** Default recovery budget: [4 · Runner.default_confirm ~n] interactions
    — a few confirmation windows, so a recovery that would also satisfy
    the stability runner comfortably meets the SLA. *)

val run :
  ?sla_budget:int ->
  ?task:Engine.Runner.task ->
  schedule:Schedule.t ->
  adversary:Adversary.t ->
  random_state:(Prng.t -> 'a) ->
  rng:Prng.t ->
  horizon:int ->
  'a Engine.Exec.t ->
  report
(** [run ~schedule ~adversary ~random_state ~rng ~horizon exec] soaks
    [exec] for [horizon] interactions (>= 1). [task] defaults to
    [Ranking]; [sla_budget] (interactions, >= 1) defaults to
    {!default_budget}. Schedule arrivals are interpreted relative to the
    executor's clock at call time. *)

(** Fold an events stream into a per-run recovery summary.

    This is the analysis behind [bin/timeline]: given the decoded events
    of a JSONL file (possibly several interleaved runs — a trial batch),
    it reconstructs, per run, the convergence and recovery story the
    paper's time claims are about: when correctness was first entered,
    how often it was lost, how long each burst of injected faults took to
    recover from, and when the configuration went silent.

    A {e fault burst} is a maximal group of [Fault] events with no
    intervening [Correct_entered]: the repeated-corruption experiments
    inject several faults back to back, and recovery is only meaningful
    once the stream re-enters correctness. A burst that is never followed
    by a [Correct_lost] did not break correctness (the protocol absorbed
    it); one that is, recovers at the next [Correct_entered].

    This fold is the only code that classifies bursts: [bin/timeline] and
    the dashboards run it over an events file, and [Chaos.Soak] feeds it
    the landmarks of a soak as they happen and reads its report off the
    result. *)

type burst = {
  faults : int;  (** [Fault] events in the burst *)
  agents : int;  (** total agents overwritten *)
  first_at : float;  (** parallel time of the first fault *)
  last_at : float;  (** …and of the last *)
  last_interactions : int;  (** interaction clock of the last fault *)
  broke : bool;  (** a [Correct_lost] followed before recovery *)
  recovered_at : float option;
      (** time of the next [Correct_entered]; [None] if the stream ends
          first (only a failure if [broke]) *)
  recovered_interactions : int option;  (** interaction clock of [recovered_at] *)
}

type summary = {
  run : Events.run;
  events : int;  (** events seen for this run *)
  steps : int;
  first_correct_at : float option;  (** first [Correct_entered] *)
  last_correct_at : float option;  (** last [Correct_entered] (final convergence) *)
  violations : int;  (** [Correct_lost] count *)
  silent_at : float option;  (** first [Silence] of the final silent stretch *)
  end_time : float;
  end_interactions : int;
  correct_interactions : int;
      (** interactions spent inside a correct stretch, integrated exactly
          from the [Correct_entered]/[Correct_lost] landmarks (which are
          never thinned); the numerator of {!availability} *)
  bursts : burst list;  (** chronological *)
}

(** {2 Per-run fold}: one run's stream, fed an event at a time. The rest
    of this module is built on it. *)

type acc

val acc : unit -> acc
val feed : acc -> Engine.Instrument.event -> unit

val reach : acc -> interactions:int -> time:float -> unit
(** The clock got here with no event (a soak's horizon): moves the end
    of stream forward, never back. *)

val bursts : acc -> burst list
val violations : acc -> int
val correct_interactions : acc -> int

val summary : run:Events.run -> acc -> summary
(** Non-destructive, like the three readers above: more events may be
    fed afterwards, and an open burst reads as [recovered_at = None]. *)

(** {2 Many runs}

    Events of different runs may interleave freely; summaries come in
    first-appearance order of run ids, one {!acc} per run. The live
    dashboard ([timeline --serve]) pushes events as they are tailed from
    a growing file and snapshots summaries between polls; {!fold} is
    [state]/[push]/[snapshot] run to completion. *)

val fold : (Events.run * Engine.Instrument.event) list -> summary list

type state

val state : unit -> state
val push : state -> Events.run * Engine.Instrument.event -> unit

val snapshot : state -> summary list
(** Current summaries, in first-appearance order. Non-destructive: more
    events may be pushed afterwards. A fault burst still awaiting its
    [Correct_entered] appears with [recovered_at = None]. *)

val availability : summary -> float
(** Fraction of the stream's interactions spent correct
    ([correct_interactions / end_interactions]). An empty stream counts
    as 0 unless it converged ([last_correct_at] set). *)

val load : in_channel -> ((Events.run * Engine.Instrument.event) list, string) result
(** Reads a JSONL stream to EOF. Empty lines are skipped; the first
    undecodable {e complete} line fails the whole load with its line
    number. A final line with no terminating newline that fails to decode
    is dropped instead: it is a writer caught mid-append (live tailing) or
    a crashed run's torn last write, not a corrupt file. *)

val recovery_time : burst -> float option
(** [recovered_at - last_at], the time-to-correct the recovery tables
    report. *)

(** The one burst classification. [Recovered] carries both recovery
    times: [recovered_at - last_at], and the exact
    [recovered_interactions - last_interactions]. *)
type outcome = Absorbed | Recovered of { time : float; interactions : int } | Censored

val outcome : burst -> outcome

(** {2 Recovery SLAs}

    A recovery budget in parallel time units, checked against every burst
    that broke correctness: a recovery slower than the budget is a miss,
    and a broken burst the stream never recovers from (censored) also
    counts against the SLA. Soak runs ([Chaos.Soak], [ssr_sim --chaos])
    apply the same rule to the same {!outcome}s with a budget in
    interactions; this is the equivalent in parallel time. *)

type sla = {
  sla_budget : float;  (** parallel time units *)
  broke : int;  (** bursts that lost correctness *)
  sla_misses : int;  (** recovered over budget *)
  sla_censored : int;  (** broke but never recovered *)
  sla_met : bool;  (** no misses, nothing censored *)
}

val check_sla : budget:float -> summary -> sla
(** Requires [budget > 0] (raises [Invalid_argument] otherwise). *)

val pp_summary : ?sla_budget:float -> Format.formatter -> summary -> unit
(** Human-readable block, one per run. With [sla_budget], each recovered
    burst is annotated against the budget and an SLA verdict line is
    appended. *)

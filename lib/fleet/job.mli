(** Fleet job specifications.

    One job = one {!Spec} (a batch of simulation trials, to stability or
    a chaos soak) plus the fleet's scheduling fields, executed by a
    single supervised worker task. Jobs arrive as JSONL — one JSON
    object per line in a job file or on the control socket — and are
    validated {e at admission}: a malformed spec is shed with a message,
    it never reaches a worker. Only [id] and [n] are required; every
    other field has the default documented below.

    {b Determinism.} A job's trials follow {!Run}'s seeding rule, which
    depends on the spec alone, never on the attempt number or
    scheduling — so a retried attempt replays the identical simulation,
    the job's events file is bit-identical however many attempts,
    workers or resumes it took, and it equals [ssr_sim --events] for the
    same flags (one-trial jobs included). Fleet jobs run on the complete
    interaction graph (the paper's model); restricted topologies stay in
    [ssr_sim]. *)

type t = {
  id : string;  (** unique in the fleet; 1-64 chars of [A-Za-z0-9_.-] (names the job's output files) *)
  deadline : int option;
      (** per-trial interaction budget of a to-stability job: a trial
          whose interaction clock reaches it before stabilizing fails the
          attempt (and retries). On the {e interaction} clock, not wall
          time, so deadline verdicts are deterministic. *)
  retries : int;  (** attempts after the first before the job fails (default 2) *)
  group : string;  (** fair-share scheduling class (default: the protocol) *)
  spec : Spec.t;
      (** JSON fields [protocol] (default optimal), [n], [h] (2), [seed]
          (1), [scenario] (uniform), [engine] (agent), [kernel] (interp),
          [trials] (1), [chaos], [horizon], [sla]; always the complete
          graph *)
}

val make :
  id:string ->
  protocol:string ->
  n:int ->
  ?h:int ->
  seed:int ->
  ?scenario:string ->
  ?engine:Engine.Exec.kind ->
  ?compiled:bool ->
  ?trials:int ->
  ?chaos:string ->
  ?horizon:float ->
  ?sla:float ->
  ?deadline:int ->
  ?retries:int ->
  ?group:string ->
  unit ->
  (t, string) result
(** Builds and validates a spec (same checks as {!of_json}). *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Parses and fully validates one spec: id shape, retries and deadline
    ranges, then {!Spec.validate}. *)

val of_line : string -> (t, string) result
(** [of_json] over one JSONL line. *)

val to_json : t -> Telemetry.Json.t
(** Canonical encoding; [of_json (to_json t) = Ok t]. The journal stores
    specs in this form. *)

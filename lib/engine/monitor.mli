(** Incremental correctness monitoring.

    Rescanning all [n] agents after every interaction would make convergence
    detection Θ(n) per step. A monitor instead maintains multiset counts of
    the observed ranks and of the leader bit, updated in O(1) when an agent's
    state changes, so the runner can test correctness after every single
    interaction at constant cost.

    Correctness follows the paper's definitions:
    - {e ranking} (SSR): for each rank in [1..n] exactly one agent observes
      that rank (this forces every agent to be ranked);
    - {e leader election} (SSLE): exactly one agent observes as leader. *)

type 'a t

val create : 'a Protocol.t -> 'a array -> 'a t
(** [create protocol population] scans the initial population once. The
    array is only read; the monitor keeps no reference to it. Pass [[||]]
    for an empty monitor to be filled with {!add} (the count-based engine
    accounts agents through its state multiset). *)

val update : 'a t -> old_state:'a -> new_state:'a -> unit
(** Report that one agent moved from [old_state] to [new_state]. *)

val add : 'a t -> 'a -> unit
(** Account one more agent observing [state] (multiset view; [update] is
    [remove] followed by [add]). *)

val remove : 'a t -> 'a -> unit
(** Account one fewer agent observing [state]. *)

val ranking_correct : 'a t -> bool
val leader_correct : 'a t -> bool

val leader_count : 'a t -> int
val ranked_agents : 'a t -> int
(** Number of agents currently observing some rank (with multiplicity). *)

val distinct_singleton_ranks : 'a t -> int
(** Number of ranks in [1..n] held by exactly one agent. *)

val updates : 'a t -> int
(** Re-check counter: total {!add}/{!remove} operations actually
    performed (an {!update} counts as two). Callers skip updates that
    cannot move the counts — [Sim.step] skips a side its transition
    returns physically unchanged — so an agent-engine run reports fewer
    than 4 per interaction. Scraped by the telemetry layer via
    [Exec.stats]; a plain increment, so it costs nothing to keep. *)

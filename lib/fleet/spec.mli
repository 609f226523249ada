(** Run specifications: the fields every front-end shares.

    A run is (protocol, n, scenario, engine, kernel, topology, trials,
    chaos, horizon, SLA) → trials. [ssr_sim] builds a spec from argv,
    {!Job} from one JSONL line; both validate it here, and {!Run}
    executes it. *)

type t = {
  protocol : string;  (** a {!Catalogue.names} entry *)
  n : int;  (** population size, >= 2 *)
  h : int;  (** sublinear history depth, >= 0 *)
  seed : int;  (** PRNG root of the run *)
  scenario : string;  (** initial-configuration scenario of the protocol *)
  engine : Engine.Exec.kind;  (** [Count] requires a deterministic protocol *)
  compiled : bool;  (** run the compiled IR kernel instead of the OCaml transition *)
  topology : string;  (** complete | ring | star | regular4 *)
  trials : int;  (** independent trials, >= 1 *)
  chaos : string option;  (** [Chaos.Spec] — soak instead of run-to-stability *)
  horizon : float option;  (** soak length, parallel time units (chaos only) *)
  sla : float option;  (** recovery SLA budget, time units (chaos only) *)
}

val default : protocol:string -> n:int -> seed:int -> t
(** h 2, scenario uniform, agent engine, interpreted, complete graph, one
    trial, no chaos. *)

val validate : t -> (t, string) result
(** Total: [Error] with a one-line message (never raises) on an unknown
    protocol, scenario, topology or chaos spec, an out-of-range number, a
    horizon or SLA without chaos, the count engine with a randomized
    protocol, or a compiled kernel for a protocol the catalogue cannot
    compile. *)

val resolve : t -> (Catalogue.entry, string) result
(** {!validate}, returning the spec's catalogue entry. *)

val engine_of_string : string -> (Engine.Exec.kind, string) result
(** [agent | count] *)

val compiled_of_string : string -> (bool, string) result
(** [interp | compiled] *)

val kernel_name : t -> string
(** ["compiled"] or ["interp"] *)

val graph : t -> Engine.Topology.t option
(** The interaction graph of [topology]; [None] for the complete graph.
    [regular4] is one fixed random 4-regular graph per [n]. *)

val horizon_interactions : t -> int
(** Soak length in interactions: [horizon] converted, or 8 confirmation
    windows. *)

val sla_interactions : t -> int option
(** The SLA budget converted to interactions ([None]: the soak default). *)

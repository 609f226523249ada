(** The ranking protocols a run can name, and everything a run needs to
    know about each.

    This is the one place that maps a protocol name ([silent | optimal |
    sublinear]) to its {!Engine.Protocol.t}, its initial-configuration
    scenarios, the per-agent draw fault injection uses, its stability
    horizon and whether it compiles to an IR kernel. {!Spec.validate}
    asks it which protocols are deterministic and compile; {!Run}
    builds executors from it. *)

type entry =
  | Entry : {
      protocol : 's Engine.Protocol.t;
      scenarios : (string * (Prng.t -> 's array)) list;
          (** named initial configurations, drawn from the given generator *)
      random_state : Prng.t -> 's;  (** one uniformly drawn agent state (chaos corruption) *)
      enumerable : (unit -> 's Engine.Enumerable.t, string) result;
          (** the declared state space the IR compiler takes, built only
              when forced — it is far larger than the protocol (seconds
              and gigabytes at n = 10⁶); [Error reason] when the protocol
              has no compiled kernel *)
      horizon_scale : float;
          (** expected stabilization time over [n], for
              [Engine.Runner.default_horizon] *)
    }
      -> entry

val names : string list
(** [silent; optimal; sublinear] *)

val find : protocol:string -> n:int -> h:int -> entry option
(** The entry at population [n] ([h] is the sublinear history depth,
    ignored by the others); [None] for an unknown name. Requires
    [n >= 2] and [h >= 0] — {!Spec.validate} checks both first. *)

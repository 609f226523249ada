(** Population-protocol definitions.

    A population protocol (Angluin et al.) is a pairwise transition function
    over agent states. The scheduler repeatedly picks a uniformly random
    {e ordered} pair of distinct agents (initiator, responder) and replaces
    their states with the transition's output. Protocols in this repository
    are {e strongly nonuniform} (they hardcode the population size [n], as
    Theorem 2.1 of the paper proves any self-stabilizing leader election
    protocol must), so constructors receive [n] explicitly and record it.

    A protocol value also carries the observation functions that define
    correctness for the ranking and leader election tasks:
    - ranking is correct when the observed ranks are exactly a permutation
      of [1..n];
    - leader election is correct when exactly one agent observes as leader.

    The transition receives a {!Prng.t}: the paper allows randomized
    transitions (they can be derandomized by synthetic coins without
    changing the bounds). Protocols with [deterministic = true] promise to
    never consult the generator, which enables generic silence checking. *)

type 'a t = {
  name : string;  (** human-readable protocol name *)
  n : int;  (** population size the protocol is compiled for *)
  transition : Prng.t -> 'a -> 'a -> 'a * 'a;
      (** [transition rng initiator responder] returns the new
          (initiator, responder) states. Returning an input physically
          unchanged ([==]) on a side nothing happened to lets engines skip
          that side: [Sim] leaves its array slot and monitor counts alone,
          and a compiled kernel keeps its code. Returning a fresh but
          structurally equal value is still correct, only slower. *)
  deterministic : bool;  (** [true] iff [transition] never draws randomness *)
  equal : 'a -> 'a -> bool;  (** structural state equality *)
  pp : Format.formatter -> 'a -> unit;  (** state printer for traces *)
  rank : 'a -> int option;
      (** observed rank in [1..n], or [None] when the agent currently has no
          rank (e.g. unsettled or resetting) *)
  is_leader : 'a -> bool;  (** observed leader bit *)
}

val leader_from_rank : ('a -> int option) -> 'a -> bool
(** The paper's convention: the leader is the agent with rank 1. *)

val validate : ?config:'a array -> 'a t -> unit
(** Sanity-checks protocol metadata ([n >= 2], non-empty name); raises
    [Invalid_argument] otherwise. When [config] is given (simulator
    constructors pass the initial configuration), additionally checks each
    state's observations: any observed rank lies in [1..n], and the leader
    bit agrees with the paper's [leader <=> rank = 1] convention
    ({!leader_from_rank}). *)

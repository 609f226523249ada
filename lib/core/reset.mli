(** Propagate-Reset (Protocol 2), as a reusable component.

    When a protocol detects evidence that the initial configuration was
    illegal (a rank collision, a starved agent, an oversized roster, …), a
    {e triggered} agent enters the [Resetting] role with
    [resetcount = R_max]. The positive resetcount spreads like an epidemic,
    decreasing by one per hop ([max(a−1, b−1, 0)] on every Resetting pair),
    clearing the whole population into the Resetting role. Agents whose
    resetcount reaches 0 become {e dormant} and count a [delaytimer] down
    from [D_max] — a quiet period the outer protocol can exploit (slow
    leader election in Optimal-Silent-SSR, random name generation in
    Sublinear-Time-SSR). A dormant agent {e awakens} — executes the outer
    protocol's [Reset] and resumes computing — when its timer expires or
    when it meets an agent that already computes again, so awakening also
    spreads by epidemic. Crucially, agents retain no memory that a reset
    happened (an adversary could forge such memory), yet the delay ensures
    no agent awakens twice during one reset wave, WHP.

    The component is polymorphic in the {e payload} carried through the
    Resetting role ([leader ∈ {L,F}] for Optimal-Silent-SSR, the partial
    [name] for Sublinear-Time-SSR) and in the computing state. The whole
    reset completes in O(log n) + O(D_max) parallel time. *)

type 'p resetting = {
  resetcount : int;  (** 0 = dormant, positive = propagating, [R_max] = just triggered *)
  delaytimer : int;  (** meaningful while dormant *)
  payload : 'p;
}

type ('c, 'p) role = Computing of 'c | Resetting of 'p resetting

type ('c, 'p) spec = {
  r_max : int;
  d_max : int;
  recruit_payload : Prng.t -> 'p;
      (** payload given to a computing agent pulled into the reset *)
  propagating_tick : Prng.t -> 'p -> 'p;
      (** applied each interaction to an agent ending with positive
          resetcount (Sublinear-Time-SSR clears the name here) *)
  dormant_tick : Prng.t -> 'p -> 'p;
      (** applied each interaction to an agent ending dormant
          (Sublinear-Time-SSR appends a random name bit here) *)
  resetting_pair : Prng.t -> 'p -> 'p -> 'p * 'p;
      (** pairwise payload interaction when both agents are Resetting
          (Optimal-Silent-SSR runs [L,L → L,F] here) *)
  awaken : Prng.t -> 'p -> 'c;  (** the outer protocol's [Reset] *)
}

val trigger : spec:('c, 'p) spec -> 'p -> ('c, 'p) role
(** A freshly triggered Resetting state with [resetcount = R_max]. *)

val is_resetting : ('c, 'p) role -> bool
val is_propagating : ('c, 'p) role -> bool
(** [is_propagating] holds for Resetting states with positive resetcount. *)

val step :
  spec:('c, 'p) spec -> Prng.t -> ('c, 'p) role -> ('c, 'p) role -> ('c, 'p) role * ('c, 'p) role
(** One interaction under Propagate-Reset. Callers must ensure at least one
    side is [Resetting]; a [Computing]/[Computing] pair is returned
    unchanged (the outer protocol owns that case).

    The spec's closures run in a fixed order, which is part of the
    contract because closures may draw from the generator (Sublinear-Time-SSR
    draws name bits in [dormant_tick]): first side [a] —
    [recruit_payload] if it is recruited, then one of [propagating_tick],
    [awaken] or [dormant_tick] — then side [b] in the same way, then
    [resetting_pair] if both sides are still Resetting. A side that takes
    no part (a computing agent not recruited) calls nothing and is
    returned as is. *)

val equal_role : ('c -> 'c -> bool) -> ('p -> 'p -> bool) -> ('c, 'p) role -> ('c, 'p) role -> bool

val pp_role :
  (Format.formatter -> 'c -> unit) ->
  (Format.formatter -> 'p -> unit) ->
  Format.formatter ->
  ('c, 'p) role ->
  unit

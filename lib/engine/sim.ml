(* The default scheduler's bounds are prepared once: [below_n] for the
   initiator and [below_n1] for the responder, drawn exactly as
   [Prng.distinct_pair] draws them. [sampler] is [None] for that
   scheduler and [Some] for a custom one. The last pair lives in two int
   fields ([last_i = -1] before the first step) so a step allocates
   nothing for it. *)
type 'a t = {
  protocol : 'a Protocol.t;
  states : 'a array;
  rng : Prng.t;
  sampler : (Prng.t -> int * int) option;
  below_n : Prng.below;
  below_n1 : Prng.below;
  monitor : 'a Monitor.t;
  mutable interactions : int;
  mutable last_i : int;
  mutable last_j : int;
}

let make_opt sampler ~protocol ~init ~rng =
  if Array.length init <> protocol.Protocol.n then
    invalid_arg "Sim.make: initial configuration size differs from protocol.n";
  Protocol.validate ~config:init protocol;
  let states = Array.copy init in
  let n = protocol.Protocol.n in
  {
    protocol;
    states;
    rng;
    sampler;
    below_n = Prng.below n;
    below_n1 = Prng.below (n - 1);
    monitor = Monitor.create protocol states;
    interactions = 0;
    last_i = -1;
    last_j = -1;
  }

let make ~protocol ~init ~rng = make_opt None ~protocol ~init ~rng

let make_with ~sampler ~protocol ~init ~rng = make_opt (Some sampler) ~protocol ~init ~rng

let protocol t = t.protocol

let n t = t.protocol.Protocol.n

(* A side the transition returns physically unchanged ([a' == a]) is
   skipped: its array slot already holds it and the monitor's counts would
   move by zero. *)
let step t =
  let rng = t.rng in
  (match t.sampler with
  | None ->
      let i = Prng.draw rng t.below_n in
      let j = Prng.draw rng t.below_n1 in
      t.last_i <- i;
      t.last_j <- (if j >= i then j + 1 else j)
  | Some sampler ->
      let i, j = sampler rng in
      t.last_i <- i;
      t.last_j <- j);
  let i = t.last_i and j = t.last_j in
  let states = t.states in
  let a = states.(i) and b = states.(j) in
  let a', b' = t.protocol.Protocol.transition rng a b in
  if a' != a then begin
    states.(i) <- a';
    Monitor.update t.monitor ~old_state:a ~new_state:a'
  end;
  if b' != b then begin
    states.(j) <- b';
    Monitor.update t.monitor ~old_state:b ~new_state:b'
  end;
  t.interactions <- t.interactions + 1

let run t k =
  for _ = 1 to k do
    step t
  done

let interactions t = t.interactions

let parallel_time t = float_of_int t.interactions /. float_of_int (n t)

let ranking_correct t = Monitor.ranking_correct t.monitor

let leader_correct t = Monitor.leader_correct t.monitor

let leader_count t = Monitor.leader_count t.monitor

let ranked_agents t = Monitor.ranked_agents t.monitor

let monitor_updates t = Monitor.updates t.monitor

let state t i = t.states.(i)

let inject t i s =
  if i < 0 || i >= n t then invalid_arg "Sim.inject: agent index out of range";
  let old_state = t.states.(i) in
  t.states.(i) <- s;
  Monitor.update t.monitor ~old_state ~new_state:s

let corrupt t ~rng ~fraction gen =
  if not (fraction >= 0.0 && fraction <= 1.0) then
    invalid_arg "Sim.corrupt: fraction outside [0,1]";
  let count =
    if fraction = 0.0 then 0
    else max 1 (int_of_float (Float.round (fraction *. float_of_int (n t))))
  in
  let victims = Prng.permutation rng (n t) in
  for k = 0 to count - 1 do
    inject t victims.(k) (gen rng)
  done;
  count

let snapshot t = Array.copy t.states

let fold_states t ~init ~f = Array.fold_left f init t.states

let last_pair t = if t.last_i < 0 then None else Some (t.last_i, t.last_j)

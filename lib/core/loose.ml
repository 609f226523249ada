type state = { leader : bool; timer : int }

let default_t_max ~upper_bound =
  if upper_bound < 2 then invalid_arg "Loose.default_t_max: upper bound must be >= 2";
  8 * upper_bound * Params.ceil_ln upper_bound

let protocol ~n ~t_max : state Engine.Protocol.t =
  if n < 2 then invalid_arg "Loose.protocol: n must be >= 2";
  if t_max < 1 then invalid_arg "Loose.protocol: t_max must be >= 1";
  let transition _rng a b =
    (* the larger timer propagates, one tick poorer *)
    let shared = Int.max (Int.max a.timer b.timer - 1) 0 in
    let settle s =
      if s.leader then { s with timer = t_max }
      else if shared = 0 then { leader = true; timer = t_max } (* timeout: no leader heard *)
      else { s with timer = shared }
    in
    let a' = settle a in
    let b' = settle b in
    (* surplus leaders annihilate pairwise *)
    if a'.leader && b'.leader then (a', { b' with leader = false }) else (a', b')
  in
  let rank s = if s.leader then Some 1 else None in
  {
    Engine.Protocol.name = Printf.sprintf "Loose-LE(T_max=%d)" t_max;
    n;
    transition;
    deterministic = true;
    equal = (fun a b -> Bool.equal a.leader b.leader && a.timer = b.timer);
    pp = (fun fmt s -> Format.fprintf fmt "%s(timer=%d)" (if s.leader then "L" else "F") s.timer);
    rank;
    is_leader = (fun s -> s.leader);
  }

let enumerable ~n ~t_max : state Engine.Enumerable.t =
  let protocol = protocol ~n ~t_max in
  let states =
    List.concat_map
      (fun leader -> List.init (t_max + 1) (fun timer -> { leader; timer }))
      [ false; true ]
  in
  Engine.Enumerable.make ~protocol ~states
    ~invariants:
      [
        {
          Engine.Enumerable.iname = "timer-in-0..T_max";
          holds = (fun s -> s.timer >= 0 && s.timer <= t_max);
        };
      ]
    ~correct:(Engine.Enumerable.unique_leader protocol)
      (* Loose stabilization only: a follower whose timer expires while a
         leader lives creates a second leader, so no one-leader region is
         forward-closed. The checkable guarantee is that every bottom SCC
         contains unique-leader configurations (correctness recurs w.p. 1;
         the holding-time experiments measure how long it persists). *)
    ~expectation:Engine.Enumerable.Loosely_stabilizing
    ~declared_count:(2 * (t_max + 1))
    ~fields:
      [
        { Engine.Enumerable.fname = "leader"; frange = 2; fget = (fun s -> Bool.to_int s.leader) };
        { Engine.Enumerable.fname = "timer"; frange = t_max + 1; fget = (fun s -> s.timer) };
      ]
    ()

let all_followers ~n ~t_max = Array.make n { leader = false; timer = t_max }

let uniform rng ~n ~t_max =
  Array.init n (fun _ -> { leader = Prng.bool rng; timer = Prng.int rng (t_max + 1) })

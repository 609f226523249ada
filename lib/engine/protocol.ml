type 'a t = {
  name : string;
  n : int;
  transition : Prng.t -> 'a -> 'a -> 'a * 'a;
  deterministic : bool;
  equal : 'a -> 'a -> bool;
  pp : Format.formatter -> 'a -> unit;
  rank : 'a -> int option;
  is_leader : 'a -> bool;
}

let leader_from_rank rank state = match rank state with Some 1 -> true | Some _ | None -> false

let validate ?config t =
  if t.n < 2 then invalid_arg "Protocol.validate: population size must be >= 2";
  if String.length t.name = 0 then invalid_arg "Protocol.validate: empty name";
  match config with
  | None -> ()
  | Some config ->
      Array.iteri
        (fun i s ->
          (match t.rank s with
          | Some r when r < 1 || r > t.n ->
              invalid_arg
                (Printf.sprintf
                   "Protocol.validate: %s: agent %d observes rank %d outside 1..%d" t.name i r
                   t.n)
          | Some _ | None -> ());
          if t.is_leader s <> leader_from_rank t.rank s then
            invalid_arg
              (Printf.sprintf
                 "Protocol.validate: %s: agent %d breaks the leader <=> rank 1 convention"
                 t.name i))
        config

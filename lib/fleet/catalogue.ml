type entry =
  | Entry : {
      protocol : 's Engine.Protocol.t;
      scenarios : (string * (Prng.t -> 's array)) list;
      random_state : Prng.t -> 's;
      enumerable : (unit -> 's Engine.Enumerable.t, string) result;
      horizon_scale : float;
    }
      -> entry

let names = [ "silent"; "optimal"; "sublinear" ]

let find ~protocol ~n ~h =
  match protocol with
  | "silent" ->
      Some
        (Entry
           {
             protocol = Core.Silent_n_state.protocol ~n;
             scenarios = Core.Scenarios.silent_catalogue ~n;
             random_state = (fun rng -> Core.Scenarios.silent_random_state rng ~n);
             enumerable = Ok (fun () -> Core.Silent_n_state.enumerable ~n);
             horizon_scale = float_of_int n;
           })
  | "optimal" ->
      let params = Core.Params.optimal_silent n in
      Some
        (Entry
           {
             protocol = Core.Optimal_silent.protocol ~params ~n ();
             scenarios = Core.Scenarios.optimal_catalogue ~params ~n;
             random_state = (fun rng -> Core.Scenarios.optimal_random_state rng ~params ~n);
             enumerable = Ok (fun () -> Core.Optimal_silent.enumerable ~params ~n ());
             horizon_scale = 40.0;
           })
  | "sublinear" ->
      let params = Core.Params.sublinear ~h n in
      Some
        (Entry
           {
             protocol = Core.Sublinear.protocol ~params ~n ~h ();
             scenarios = Core.Scenarios.sublinear_catalogue ~params ~n;
             random_state = (fun rng -> Core.Scenarios.sublinear_random_state rng ~params ~n);
             enumerable = Error "the transition is randomized (it draws real coins)";
             horizon_scale = 40.0;
           })
  | _ -> None

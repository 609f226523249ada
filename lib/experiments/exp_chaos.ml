let name = "chaos"

let description =
  "Steady-state availability under sustained Poisson faults, per protocol tier and engine"

(* The sweep is parameterized by offered load k = rate · t_rec: the
   expected number of fault arrivals per recovery time. The Ω(log n)
   per-recovery lower bound makes k the natural control variable — for
   k ≪ 1 the system is almost always correct, and as k approaches and
   passes 1 recoveries stop completing before the next strike and
   availability collapses, whatever the tier's absolute speed. *)
let loads = [ 0.25; 1.0; 4.0 ]

let header =
  [ "protocol"; "engine"; "n"; "load"; "rate"; "trials"; "avail"; "rec mean"; "rec p95"; "cens"; "SLA" ]

let mean_availability reports =
  List.fold_left (fun acc r -> acc +. r.Chaos.Soak.availability) 0.0 reports
  /. float_of_int (List.length reports)

let censored reports =
  List.fold_left (fun acc r -> acc + r.Chaos.Soak.sla.Chaos.Soak.censored) 0 reports

let recovery_times reports =
  List.concat_map (fun r -> Array.to_list r.Chaos.Soak.recovery_times) reports

let row ~tier ~engine ~n ~load ~rate ~trials reports =
  let pooled = recovery_times reports in
  let met = List.length (List.filter (fun r -> r.Chaos.Soak.sla.Chaos.Soak.met) reports) in
  let rec_mean, rec_p95 =
    if pooled = [] then ("-", "-")
    else begin
      let s = Stats.Summary.of_list pooled in
      (Stats.Table.cell_float s.Stats.Summary.mean, Stats.Table.cell_float s.Stats.Summary.p95)
    end
  in
  [
    tier;
    Engine.Exec.kind_to_string engine;
    string_of_int n;
    Printf.sprintf "%.2f" load;
    Printf.sprintf "%.2g" rate;
    string_of_int trials;
    Printf.sprintf "%.3f" (mean_availability reports);
    rec_mean;
    rec_p95;
    string_of_int (censored reports);
    Printf.sprintf "%d/%d met" met trials;
  ]

(* One tier/engine combo swept over the offered loads. Soaks start from
   the correct configuration: the subject is steady-state availability,
   not initial convergence (Exp_table1 measures that). [t_rec] is the
   tier's expected recovery scale in parallel time units; the horizon is
   20 recovery times and the SLA budget 2, so a healthy recovery meets
   the SLA with slack and a merged burst misses it. *)
let sweep (type s) table ~tier ~engine ~(protocol : s Engine.Protocol.t)
    ~(init : Prng.t -> s array) ~(random_state : Prng.t -> s) ~t_rec ~jobs ~trials ~seed =
  let n = protocol.Engine.Protocol.n in
  let nf = float_of_int n in
  let horizon = max 1 (int_of_float (20.0 *. t_rec *. nf)) in
  let sla_budget = max 1 (int_of_float (2.0 *. t_rec *. nf)) in
  let sweeps =
    List.map
      (fun load ->
        let rate = load /. t_rec in
        let reports =
          Exp_common.run_trials ~jobs ~trials ~seed (fun rng ->
              let exec = Engine.Exec.make ~kind:engine ~protocol ~init:(init rng) ~rng () in
              Chaos.Soak.run ~sla_budget
                ~schedule:(Chaos.Schedule.poisson ~rate)
                ~adversary:(Chaos.Adversary.corrupt ~fraction:0.05)
                ~random_state ~rng ~horizon exec)
          |> Array.to_list
        in
        Stats.Table.add_row table (row ~tier ~engine ~n ~load ~rate ~trials reports);
        (load, reports))
      loads
  in
  let reports = List.concat_map snd sweeps in
  ( Printf.sprintf "%s / %s" tier (Engine.Exec.kind_to_string engine),
    List.map (fun (load, reports) -> (load, mean_availability reports)) sweeps,
    recovery_times reports,
    censored reports )

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment CH: availability under sustained faults ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:12 in
  let table = Stats.Table.create ~header in
  let combos = ref [] in
  let record c = combos := c :: !combos in
  (* Silent-n-state-SSR: Θ(n²) recovery, both engines at the same n so the
     rows are distributionally comparable. *)
  let n_silent = match mode with Exp_common.Quick -> 24 | Exp_common.Full -> 32 in
  let silent_protocol = Core.Silent_n_state.protocol ~n:n_silent in
  let silent_t_rec = float_of_int (n_silent * n_silent) /. 2.0 in
  List.iter
    (fun engine ->
      record
        (sweep table ~tier:"silent" ~engine ~protocol:silent_protocol
           ~init:(fun _ -> Core.Scenarios.silent_correct ~n:n_silent)
           ~random_state:(fun rng -> Core.Scenarios.silent_random_state rng ~n:n_silent)
           ~t_rec:silent_t_rec ~jobs ~trials ~seed))
    [ Engine.Exec.Agent; Engine.Exec.Count ];
  (* Optimal-Silent-SSR: Θ(n) recovery, both engines. Randomly corrupted
     counter states (resetcount × delaytimer) used to blow the old eager
     probe fixpoint's closure up quadratically, which forced this tier
     onto the agent engine; the lazy kernel only probes cell pairs that
     become live, so the count cell is back. *)
  let n_opt = match mode with Exp_common.Quick -> 24 | Exp_common.Full -> 48 in
  let opt_params = Core.Params.optimal_silent n_opt in
  let opt_protocol = Core.Optimal_silent.protocol ~params:opt_params ~n:n_opt () in
  let opt_t_rec = float_of_int (8 * n_opt) in
  List.iter
    (fun engine ->
      record
        (sweep table ~tier:"optimal" ~engine ~protocol:opt_protocol
           ~init:(fun _ -> Core.Scenarios.optimal_correct ~n:n_opt)
           ~random_state:(fun rng ->
             Core.Scenarios.optimal_random_state rng ~params:opt_params ~n:n_opt)
           ~t_rec:opt_t_rec ~jobs ~trials ~seed:(seed + 1)))
    [ Engine.Exec.Agent; Engine.Exec.Count ];
  (* Sublinear-Time-SSR is randomized, so the count engine is unsupported
     by design (see Count_sim); agent engine only. *)
  let n_sub = match mode with Exp_common.Quick -> 12 | Exp_common.Full -> 16 in
  let h = 1 in
  let sub_params = Core.Params.sublinear ~h n_sub in
  let sub_protocol = Core.Sublinear.protocol ~params:sub_params ~n:n_sub ~h () in
  let sub_t_rec =
    float_of_int
      (sub_params.Core.Params.d_max + (8 * sub_params.Core.Params.t_h) + (8 * n_sub))
  in
  record
    (sweep table ~tier:"sublinear" ~engine:Engine.Exec.Agent ~protocol:sub_protocol
       ~init:(fun rng -> Core.Scenarios.sublinear_correct rng ~params:sub_params ~n:n_sub)
       ~random_state:(fun rng ->
         Core.Scenarios.sublinear_random_state rng ~params:sub_params ~n:n_sub)
       ~t_rec:sub_t_rec ~jobs ~trials ~seed:(seed + 2));
  (* The availability-vs-load and recovery-CDF figures, one series per
     tier × engine (no-ops without an installed figure registry). *)
  let combos = List.rev !combos in
  Viz.Figures.emit "chaos-availability"
    (Viz.Charts.availability
       (List.map (fun (label, points, _, _) -> (label, points)) combos));
  Viz.Figures.emit "recovery-cdf"
    (Viz.Charts.recovery_samples
       (List.map (fun (label, _, times, censored) -> (label, times, censored)) combos));
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf
    "\n\
     (load = expected faults per recovery time (rate · t_rec); each soak starts correct,\n\
     runs 20 recovery times, corrupts 5% of agents per strike, SLA budget 2 recovery\n\
     times. One tier×engine combo is absent by design: sublinear×count, because the\n\
     count engine requires a deterministic protocol and Sublinear-Time-SSR is\n\
     randomized.)\n";
  Buffer.contents buf

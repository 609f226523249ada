type sla = { budget : int; misses : int; censored : int; met : bool }

type report = {
  horizon : int;
  total_interactions : int;
  correct_interactions : int;
  availability : float;
  firings : int;
  faults_applied : int;
  repins : int;
  bursts : int;
  absorbed : int;
  recoveries : int;
  recovery_times : float array;
  violations : int;
  sla : sla;
}

let default_budget ~n = 4 * Engine.Runner.default_confirm ~n

let run (type a) ?sla_budget ?(task = Engine.Runner.Ranking) ~schedule ~adversary
    ~(random_state : Prng.t -> a) ~rng ~horizon (exec : a Engine.Exec.t) =
  if horizon < 1 then invalid_arg "Chaos.Soak.run: horizon must be >= 1";
  let protocol = Engine.Exec.protocol exec in
  let n = protocol.Engine.Protocol.n in
  let budget = match sla_budget with Some b -> b | None -> default_budget ~n in
  if budget < 1 then invalid_arg "Chaos.Soak.run: sla_budget must be >= 1";
  (* Split order is part of the determinism contract (see .mli). *)
  let schedule_rng = Prng.split rng in
  let adversary_rng = Prng.split rng in
  let stream = Schedule.start schedule ~rng:schedule_rng ~n in
  let nf = float_of_int n in
  let t0 = Engine.Exec.interactions exec in
  let horizon_abs = t0 + horizon in
  let clock = ref t0 in
  let correct = ref false in
  let firings = ref 0 in
  let faults_applied = ref 0 in
  let repins = ref 0 in
  let pins : a Adversary.pin list ref = ref [] in
  (* The report is read off this run's own Timeline fold. *)
  let timeline = Telemetry.Timeline.acc () in
  let time () = float_of_int !clock /. nf in
  (* One fault landmark per firing that hit and per re-pin. The executor
     publishes its own [Fault] events, one per injection call, at the
     same clock, so an events file folds into the same bursts. *)
  let note_fault agents =
    Telemetry.Timeline.feed timeline
      (Engine.Instrument.Fault { agents; interactions = !clock; time = time () })
  in
  (* Correctness transitions are also published on the executor's event
     stream, so telemetry subscribers see the same landmarks a stability
     run would produce. *)
  let observe () =
    let now_correct = Engine.Runner.is_correct ~task exec in
    if not (Bool.equal now_correct !correct) then begin
      correct := now_correct;
      let event =
        if now_correct then
          Engine.Instrument.Correct_entered { interactions = !clock; time = time () }
        else Engine.Instrument.Correct_lost { interactions = !clock; time = time () }
      in
      Telemetry.Timeline.feed timeline event;
      Engine.Exec.emit exec event
    end
  in
  let fire () =
    incr firings;
    let hit, new_pins =
      (* Rare relative to productive steps, so a span here is cheap; the
         per-step [advance] below is far too hot to time. *)
      Telemetry.Span.wrap "inject" (fun () ->
          Adversary.apply ~rng:adversary_rng ~random_state ~now:!clock exec adversary)
    in
    faults_applied := !faults_applied + hit;
    if hit > 0 then note_fault hit;
    pins := !pins @ new_pins;
    observe ()
  in
  (* Pending arrivals [a] are shifted to the executor's clock as [t0 + a]. *)
  let fire_due () =
    let rec loop () =
      match Schedule.peek stream with
      | Some a when t0 + a <= !clock ->
          ignore (Schedule.pop stream : int option);
          fire ();
          loop ()
      | Some _ | None -> ()
    in
    loop ()
  in
  (* Re-inject every active pin whose agent has drifted. Expired pins are
     dropped first, so a pin holds for exactly [duration] interactions. *)
  let enforce_pins () =
    match !pins with
    | [] -> ()
    | _ :: _ ->
        pins := List.filter (fun p -> p.Adversary.expires_at > !clock) !pins;
        List.iter
          (fun { Adversary.agent; state; expires_at = _ } ->
            if not (protocol.Engine.Protocol.equal (Engine.Exec.state exec agent) state) then begin
              Engine.Exec.inject exec agent state;
              incr repins;
              incr faults_applied;
              note_fault 1
            end)
          !pins;
        observe ()
  in
  observe ();
  fire_due ();
  while !clock < horizon_abs do
    let until =
      match Schedule.peek stream with
      | Some a when t0 + a < horizon_abs -> t0 + a
      | Some _ | None -> horizon_abs
    in
    let (_ : bool) = Engine.Exec.advance exec ~until in
    clock := Engine.Exec.interactions exec;
    enforce_pins ();
    observe ();
    fire_due ()
  done;
  Telemetry.Timeline.reach timeline ~interactions:!clock ~time:(time ());
  let outcomes = List.map Telemetry.Timeline.outcome (Telemetry.Timeline.bursts timeline) in
  let count p = List.length (List.filter p outcomes) in
  (* Recoveries stay on the integer clock until divided by n below. *)
  let recovered =
    List.filter_map
      (function Telemetry.Timeline.Recovered r -> Some r.interactions | _ -> None)
      outcomes
  in
  let censored = count (function Telemetry.Timeline.Censored -> true | _ -> false) in
  let misses = List.length (List.filter (fun dt -> dt > budget) recovered) in
  let total = !clock - t0 in
  let correct_interactions = Telemetry.Timeline.correct_interactions timeline in
  let report =
    {
      horizon;
      total_interactions = total;
      correct_interactions;
      availability = float_of_int correct_interactions /. float_of_int total;
      firings = !firings;
      faults_applied = !faults_applied;
      repins = !repins;
      bursts = List.length outcomes;
      absorbed = count (function Telemetry.Timeline.Absorbed -> true | _ -> false);
      recoveries = List.length recovered;
      recovery_times = Array.of_list (List.map (fun dt -> float_of_int dt /. nf) recovered);
      violations = Telemetry.Timeline.violations timeline;
      sla = { budget; misses; censored; met = misses = 0 && censored = 0 };
    }
  in
  (match Telemetry.Metrics.ambient () with
  | None -> ()
  | Some reg ->
      let add name v = Telemetry.Metrics.add reg name (float_of_int v) in
      add "chaos.firings" report.firings;
      add "chaos.faults_applied" report.faults_applied;
      add "chaos.repins" report.repins;
      add "chaos.bursts" report.bursts;
      add "chaos.recoveries" report.recoveries;
      add "chaos.censored" report.sla.censored;
      add "chaos.violations" report.violations;
      add "chaos.sla_misses" (report.sla.misses + report.sla.censored));
  report

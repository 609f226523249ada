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

(* Open burst: interaction of its last fault + whether correctness has
   been lost since the burst began (Timeline's [broke]). *)
type burst = { mutable last_fault_at : int; mutable broke : bool }

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
  let correct_interactions = ref 0 in
  let violations = ref 0 in
  let firings = ref 0 in
  let faults_applied = ref 0 in
  let repins = ref 0 in
  let bursts = ref 0 in
  let absorbed = ref 0 in
  let recoveries = ref 0 in
  let recovery_interactions = ref [] in
  let sla_misses = ref 0 in
  let open_burst : burst option ref = ref None in
  let pins : a Adversary.pin list ref = ref [] in
  let time () = float_of_int !clock /. nf in
  (* Correctness bookkeeping mirrors Runner: transitions are published on
     the executor's event stream, so telemetry subscribers see the same
     landmarks a stability run would produce. *)
  let observe () =
    let now_correct = Engine.Runner.is_correct ~task exec in
    if now_correct && not !correct then begin
      correct := true;
      (match !open_burst with
      | Some b ->
          (if b.broke then begin
             let dt = !clock - b.last_fault_at in
             incr recoveries;
             recovery_interactions := dt :: !recovery_interactions;
             if dt > budget then incr sla_misses
           end
           else incr absorbed);
          open_burst := None
      | None -> ());
      Engine.Exec.emit exec
        (Engine.Instrument.Correct_entered { interactions = !clock; time = time () })
    end
    else if (not now_correct) && !correct then begin
      correct := false;
      incr violations;
      (match !open_burst with Some b -> b.broke <- true | None -> ());
      Engine.Exec.emit exec
        (Engine.Instrument.Correct_lost { interactions = !clock; time = time () })
    end
  in
  let note_fault () =
    match !open_burst with
    | Some b -> b.last_fault_at <- !clock
    | None ->
        incr bursts;
        open_burst := Some { last_fault_at = !clock; broke = false }
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
    if hit > 0 then note_fault ();
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
              note_fault ()
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
    let before = !clock in
    let was_correct = !correct in
    let (_ : bool) = Engine.Exec.advance exec ~until in
    clock := Engine.Exec.interactions exec;
    (* The state during (before, clock) is the state observed at [before]
       — on the count engine the skipped null interactions change
       nothing, and the productive event lands exactly at [clock] — so
       crediting the whole span with the prior status is exact on both
       engines. *)
    if was_correct then correct_interactions := !correct_interactions + (!clock - before);
    enforce_pins ();
    observe ();
    fire_due ()
  done;
  let censored =
    match !open_burst with
    | Some b when b.broke -> 1
    | Some _ ->
        incr absorbed;
        0
    | None -> 0
  in
  let total = !clock - t0 in
  let recovery_times =
    Array.of_list (List.rev_map (fun dt -> float_of_int dt /. nf) !recovery_interactions)
  in
  let sla = { budget; misses = !sla_misses; censored; met = !sla_misses = 0 && censored = 0 } in
  let report =
    {
      horizon;
      total_interactions = total;
      correct_interactions = !correct_interactions;
      availability = float_of_int !correct_interactions /. float_of_int total;
      firings = !firings;
      faults_applied = !faults_applied;
      repins = !repins;
      bursts = !bursts;
      absorbed = !absorbed;
      recoveries = !recoveries;
      recovery_times;
      violations = !violations;
      sla;
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

let mean_recovery r =
  if Array.length r.recovery_times = 0 then None else Some (Stats.Summary.mean r.recovery_times)

let p95_recovery r =
  if Array.length r.recovery_times = 0 then None
  else Some (Stats.Summary.quantile r.recovery_times 0.95)

let max_recovery r =
  if Array.length r.recovery_times = 0 then None
  else Some (Array.fold_left Float.max neg_infinity r.recovery_times)

(* The traced run: per-layer metrics, measured from the benchmark's own
   files around calls into each layer's public functions.

   Three kinds of measurement, none of them inside the library:

   - Counting wrappers around the protocol's [transition] / [rank] /
     [is_leader] closures and around the executor's fault surface, active
     during ordinary trial rounds on both engines. They only count (and
     keep every 16th transition's arguments): a clock read costs as much
     as a transition, so per-call costs come from blocks instead.
   - Block timings: thousands of calls between two clock reads, with
     [Gc.quick_stat] deltas around each block. On the agent engine the
     step loop is rebuilt from [Prng.distinct_pair], the transition and
     [Monitor.update], one phase per block, and must reproduce [Sim.run]
     state for state, or the run refuses to report.
   - Whole-operation timings: [Count_sim.make], [Ir.Kernel.compile],
     [Exec.corrupt], [Events.to_json] + [Sink.write], [Timeline.load].

   Every workload reports every layer. A metric is [in situ] when the
   layer is on the workload's own path, and [probe] when it is not: the
   layer is then driven once on the workload's protocol and first trial's
   inputs, so the number says what that layer would cost here. *)

open Workload

type metric = { name : string; value : float; unit : string; origin : string }

let in_situ name value unit = { name; value; unit; origin = "in situ" }
let probe name value unit = { name; value; unit; origin = "probe" }
let ns seconds calls = 1e9 *. seconds /. float_of_int (max 1 calls)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

exception Replica_mismatch of string

(* --- Counting wrappers ------------------------------------------------ *)

(* Per-domain tallies (the chaos workload runs trials on two domains), all
   registered so they can be summed after the round. *)
type 's tally = {
  mutable calls : int;
  mutable nulls : int;
  mutable observations : int;
  mutable sample : ('s * 's) list;
  mutable sampled : int;
  mutable faults : int;
  mutable fault_s : float;
}

let sample_cap = 1 lsl 16

type 's tallies = { key : 's tally Domain.DLS.key; all : 's tally list ref }

let tallies () =
  let all = ref [] and lock = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let t =
          {
            calls = 0;
            nulls = 0;
            observations = 0;
            sample = [];
            sampled = 0;
            faults = 0;
            fault_s = 0.0;
          }
        in
        Mutex.protect lock (fun () -> all := t :: !all);
        t)
  in
  { key; all }

let sum ts f = List.fold_left (fun acc t -> acc + f t) 0 !(ts.all)

let counted (type s) (ts : s tallies) (p : s Engine.Protocol.t) : s Engine.Protocol.t =
  let transition rng a b =
    let ((a', b') as out) = p.Engine.Protocol.transition rng a b in
    let t = Domain.DLS.get ts.key in
    t.calls <- t.calls + 1;
    if p.Engine.Protocol.equal a a' && p.Engine.Protocol.equal b b' then t.nulls <- t.nulls + 1;
    if t.calls land 15 = 0 && t.sampled < sample_cap then begin
      t.sample <- (a, b) :: t.sample;
      t.sampled <- t.sampled + 1
    end;
    out
  in
  let observe f s =
    let t = Domain.DLS.get ts.key in
    t.observations <- t.observations + 1;
    f s
  in
  {
    p with
    Engine.Protocol.transition;
    rank = observe p.Engine.Protocol.rank;
    is_leader = observe p.Engine.Protocol.is_leader;
  }

(* Faults are rare next to steps, so each one is timed on its own. *)
let fault_timed (type s) (ts : _ tallies) (e : s Engine.Exec.t) : s Engine.Exec.t =
  let module E = (val e) in
  let timed f =
    let t0 = Measure.now () in
    let r = f () in
    let t = Domain.DLS.get ts.key in
    t.faults <- t.faults + 1;
    t.fault_s <- t.fault_s +. (Measure.now () -. t0);
    r
  in
  (module struct
    include E

    let inject i s = timed (fun () -> E.inject i s)
    let corrupt ~rng ~fraction gen = timed (fun () -> E.corrupt ~rng ~fraction gen)
  end)

(* The workload with its protocol (or compiled kernel) behind the counting
   wrapper. *)
let instrumented (type s) (r : s ready) (ts : s tallies) (ks : int tallies) : s ready =
  match r.kernel with
  | Some k ->
      { r with kernel = Some { k with Ir.Kernel.compiled = counted ks k.Ir.Kernel.compiled } }
  | None -> { r with p = { r.p with protocol = counted ts r.p.protocol } }

(* --- Inputs ----------------------------------------------------------- *)

(* Trial [i]'s generator as [run_trial] receives it, and the generator
   and initial configuration after the scenario has drawn from it. *)
let inputs (type s) (r : s ready) i =
  let child = (Prng.split_many (Prng.create ~seed:r.seed) (i + 1)).(i) in
  let rng = Prng.copy child in
  let init = r.p.gen rng in
  (child, rng, init)

(* --- Agent-engine replica -------------------------------------------- *)

type replica = {
  steps : int;
  draw : Measure.block;
  transition : Measure.block;
  monitor : Measure.block;
  sim : Measure.block;
}

let block_size = 1024

let add (a : Measure.block) (b : Measure.block) =
  {
    Measure.seconds = a.Measure.seconds +. b.Measure.seconds;
    minor_words = a.Measure.minor_words +. b.Measure.minor_words;
  }

let zero = { Measure.seconds = 0.0; minor_words = 0.0 }

(* [Sim.step] rebuilt from public calls, one phase per block: draw the
   block's pairs, apply the transitions in order, then replay the Monitor
   updates. For a deterministic protocol the generator sees exactly the
   draws [Sim.run] makes, so the final configuration must be identical. *)
let replica (type a) (protocol : a Engine.Protocol.t) (init : a array) rng ~steps =
  if not protocol.Engine.Protocol.deterministic then
    raise (Replica_mismatch "the phase-split replica needs a deterministic protocol");
  let n = protocol.Engine.Protocol.n in
  let reference = Engine.Sim.make ~protocol ~init ~rng:(Prng.copy rng) in
  let rng = Prng.copy rng in
  let states = Array.copy init in
  let monitor = Engine.Monitor.create protocol states in
  let is = Array.make block_size 0 and js = Array.make block_size 0 in
  let filler = init.(0) in
  let olds_a = Array.make block_size filler and olds_b = Array.make block_size filler in
  let news_a = Array.make block_size filler and news_b = Array.make block_size filler in
  let transition = protocol.Engine.Protocol.transition in
  let draw = ref zero and trans = ref zero and mon = ref zero in
  let left = ref steps in
  while !left > 0 do
    let b = min block_size !left in
    let (), d =
      Measure.block (fun () ->
          for k = 0 to b - 1 do
            let i, j = Prng.distinct_pair rng n in
            is.(k) <- i;
            js.(k) <- j
          done)
    in
    let (), t =
      Measure.block (fun () ->
          for k = 0 to b - 1 do
            let i = is.(k) and j = js.(k) in
            let a = states.(i) and c = states.(j) in
            let a', c' = transition rng a c in
            states.(i) <- a';
            states.(j) <- c';
            olds_a.(k) <- a;
            olds_b.(k) <- c;
            news_a.(k) <- a';
            news_b.(k) <- c'
          done)
    in
    let (), m =
      Measure.block (fun () ->
          for k = 0 to b - 1 do
            Engine.Monitor.update monitor ~old_state:olds_a.(k) ~new_state:news_a.(k);
            Engine.Monitor.update monitor ~old_state:olds_b.(k) ~new_state:news_b.(k)
          done)
    in
    draw := add !draw d;
    trans := add !trans t;
    mon := add !mon m;
    left := !left - b
  done;
  let (), sim = Measure.block (fun () -> Engine.Sim.run reference steps) in
  let same_states =
    let snap = Engine.Sim.snapshot reference in
    let ok = ref true in
    Array.iteri
      (fun i s -> if not (protocol.Engine.Protocol.equal s snap.(i)) then ok := false)
      states;
    !ok
  in
  if not same_states then raise (Replica_mismatch "configuration differs from Sim.run");
  if
    Engine.Monitor.ranking_correct monitor <> Engine.Sim.ranking_correct reference
    || Engine.Monitor.leader_count monitor <> Engine.Sim.leader_count reference
    || Engine.Monitor.ranked_agents monitor <> Engine.Sim.ranked_agents reference
  then raise (Replica_mismatch "monitor differs from Sim.run");
  { steps; draw = !draw; transition = !trans; monitor = !mon; sim }

(* --- Helpers over one executor --------------------------------------- *)

let stat e name = match List.assoc_opt name (Engine.Exec.stats e) with Some v -> v | None -> 0.0

(* Per-call cost of [exec] over [bare], two executors on the same
   trajectory, run in alternating chunks so a drift in the machine's speed
   falls on both sides alike. Each returns [false] once nothing can happen. *)
let interleaved ~chunks ~chunk bare exec =
  let tb = ref 0.0 and te = ref 0.0 and calls = ref 0 in
  let timed f =
    let t0 = Measure.now () in
    let k = f () in
    (k, Measure.now () -. t0)
  in
  let run_up_to f limit () =
    let k = ref 0 in
    while !k < limit && f () do
      incr k
    done;
    !k
  in
  let c = ref 0 and live = ref true in
  while !live && !c < chunks do
    let k =
      if !c land 1 = 0 then begin
        let k, t = timed (run_up_to bare chunk) in
        let _, t' = timed (run_up_to exec k) in
        tb := !tb +. t;
        te := !te +. t';
        k
      end
      else begin
        let k, t' = timed (run_up_to exec chunk) in
        let _, t = timed (run_up_to bare k) in
        tb := !tb +. t;
        te := !te +. t';
        k
      end
    in
    calls := !calls + k;
    live := k = chunk;
    incr c
  done;
  ns (!te -. !tb) !calls

let repeat_block ~min_s f =
  let rec loop acc reps =
    let (), b = Measure.block f in
    let acc = add acc b and reps = reps + 1 in
    if acc.Measure.seconds >= min_s then (acc, reps) else loop acc reps
  in
  loop zero 0

(* --- The traced run --------------------------------------------------- *)

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  notes : string list;
}

let rounds_for ?wrap r ~seconds =
  let t0 = Measure.now () in
  let acc = ref [] in
  while !acc = [] || Measure.now () -. t0 < seconds do
    acc := run_round_with ?wrap r ~count:r.w.round :: !acc
  done;
  List.rev !acc

let round_seconds rounds = List.fold_left (fun acc rd -> acc +. rd.round_s) 0.0 rounds
let events_of rounds = List.fold_left (fun acc rd -> acc + round_events rd) 0 rounds

let trials_of rounds =
  List.concat_map (fun rd -> List.filter_map Result.to_option (Array.to_list rd.results)) rounds

let confirm_share outcomes =
  let total = List.fold_left (fun acc o -> acc + o.Engine.Runner.total_interactions) 0 outcomes in
  let after =
    List.fold_left
      (fun acc o ->
        acc + (o.Engine.Runner.total_interactions - o.Engine.Runner.convergence_interactions))
      0 outcomes
  in
  ratio after total

(* Untraced rounds, then the same rounds behind the counting wrappers. *)
type 's rounds = {
  baseline : round list;
  traced : round list;
  ts : 's tallies;
  ks : int tallies;  (** the compiled kernel's int-coded transition *)
  exec_stats : (string * float) list list;  (** [Exec.stats] of each traced trial *)
  gc : Gc.stat * Gc.stat;
  memo : (int * int) option;  (** kernel memo hits and dynamic steps in the traced rounds *)
}

let run_rounds (type s) (r : s ready) ~seconds =
  let baseline = rounds_for r ~seconds:(0.3 *. seconds) in
  let ts : s tallies = tallies () and ks : int tallies = tallies () in
  let execs = ref [] and lock = Mutex.create () in
  let wrap e =
    let e = fault_timed ts e in
    Mutex.protect lock (fun () -> execs := e :: !execs);
    e
  in
  let memo () =
    Option.map (fun k -> (!(k.Ir.Kernel.memo_hits), !(k.Ir.Kernel.dynamic_steps))) r.kernel
  in
  let memo0 = memo () and gc0 = Gc.quick_stat () in
  let traced = rounds_for ~wrap (instrumented r ts ks) ~seconds:(0.3 *. seconds) in
  let gc1 = Gc.quick_stat () in
  let memo =
    match (memo0, memo ()) with
    | Some (h0, d0), Some (h1, d1) -> Some (h1 - h0, d1 - d0)
    | _ -> None
  in
  let exec_stats = List.map Engine.Exec.stats !execs in
  { baseline; traced; ts; ks; exec_stats; gc = (gc0, gc1); memo }

(* Counts from the traced rounds, in situ on every workload. *)
let round_metrics (type s) (r : s ready) (rs : s rounds) =
  let traced_trials = trials_of rs.traced in
  let trials = max 1 (List.length traced_trials) in
  let interactions = List.fold_left (fun acc t -> acc + t.interactions) 0 traced_trials in
  let calls = sum rs.ts (fun t -> t.calls) + sum rs.ks (fun t -> t.calls) in
  let nulls = sum rs.ts (fun t -> t.nulls) + sum rs.ks (fun t -> t.nulls) in
  let stat_sum name =
    List.fold_left
      (fun acc s -> acc +. Option.value ~default:0.0 (List.assoc_opt name s))
      0.0 rs.exec_stats
  in
  let per_event rounds = round_seconds rounds /. float_of_int (max 1 (events_of rounds)) in
  let busy =
    Array.fold_left (fun acc d -> acc +. d.Engine.Pool.busy_s) 0.0 (Engine.Pool.stats r.pool)
  in
  let gc0, gc1 = rs.gc in
  let per_trial a b = float_of_int (b - a) /. float_of_int trials in
  [
    in_situ "transition.null_ratio" (ratio nulls calls) "ratio";
    in_situ "transition.calls_per_event" (ratio calls (events_of rs.traced)) "count";
    in_situ "monitor.updates_per_interaction"
      (stat_sum "monitor_updates" /. float_of_int (max 1 interactions))
      "count";
    in_situ "pool.efficiency"
      (busy /. (float_of_int r.w.jobs *. round_seconds (rs.baseline @ rs.traced)))
      "ratio";
    in_situ "gc.minor_collections"
      (per_trial gc0.Gc.minor_collections gc1.Gc.minor_collections)
      "count";
    in_situ "gc.major_collections"
      (per_trial gc0.Gc.major_collections gc1.Gc.major_collections)
      "count";
    {
      name = "trace.overhead_pct";
      value = 100.0 *. ((per_event rs.traced /. per_event rs.baseline) -. 1.0);
      unit = "%";
      origin = "traced against untraced rounds";
    };
  ]

(* The replica over this workload's own trials, as long as each ran (in
   situ), or over the first trial's inputs (probe, on the count engine). *)
let agent_layers (type s) (r : s ready) (rs : s rounds) ~note =
  let on_agent = r.w.engine = Engine.Exec.Agent in
  let lengths = Hashtbl.create 64 in
  List.iter
    (fun t -> Hashtbl.replace lengths t.index t.interactions)
    (trials_of (rs.baseline @ rs.traced));
  let budget = ref (if on_agent then 2_000_000 else 1 lsl 20) in
  let acc = ref None and i = ref 0 in
  while !budget > 0 do
    let _, rng, init = inputs r !i in
    let steps =
      match Hashtbl.find_opt lengths !i with Some k when on_agent -> min k !budget | _ -> !budget
    in
    let one =
      match r.kernel with
      | Some k -> replica k.Ir.Kernel.compiled (Array.map (Ir.Kernel.encode k) init) rng ~steps
      | None -> replica r.p.protocol init rng ~steps
    in
    acc :=
      Some
        (match !acc with
        | None -> one
        | Some a ->
            {
              steps = a.steps + one.steps;
              draw = add a.draw one.draw;
              transition = add a.transition one.transition;
              monitor = add a.monitor one.monitor;
              sim = add a.sim one.sim;
            });
    budget := !budget - steps;
    incr i
  done;
  let rep = Option.get !acc in
  note
    (Printf.sprintf "replica check: %d trial input(s), %d steps, state for state equal to Sim.run"
       !i rep.steps);
  let mk = if on_agent then in_situ else probe in
  let per_step (b : Measure.block) = b.Measure.minor_words /. float_of_int rep.steps in
  ( rep,
    [
      mk "prng.distinct_pair_ns" (ns rep.draw.Measure.seconds rep.steps) "ns";
      mk "prng.minor_words_per_pair" (per_step rep.draw) "words";
      mk "sim.step_ns" (ns rep.sim.Measure.seconds rep.steps) "ns";
      mk "sim.minor_words_per_step" (per_step rep.sim) "words";
      mk "monitor.update_ns" (ns rep.monitor.Measure.seconds (2 * rep.steps)) "ns";
    ] )

(* The transition as this workload's engine calls it: the replica's phase
   on the agent engine, a replay of the sampled arguments on the count
   engine. *)
let transition_ns (type s) (r : s ready) (rs : s rounds) rep =
  let sample = List.concat_map (fun t -> t.sample) !(rs.ts.all) in
  if r.w.engine = Engine.Exec.Agent || sample = [] then ns rep.transition.Measure.seconds rep.steps
  else begin
    let args = Array.of_list sample in
    let rng = Prng.create ~seed:r.seed in
    let transition = r.p.protocol.Engine.Protocol.transition in
    let b, reps =
      repeat_block ~min_s:0.2 (fun () ->
          Array.iter (fun (a, c) -> ignore (transition rng a c)) args)
    in
    ns b.Measure.seconds (reps * Array.length args)
  end

(* [Exec.advance] against the engine's own step, on one trajectory. *)
let exec_overhead (type s) (r : s ready) ~rng ~(init : s array) =
  match r.w.engine with
  | Engine.Exec.Agent ->
      let advance (e : _ Engine.Exec.t) () = Engine.Exec.advance e ~until:max_int in
      let step sim () =
        Engine.Sim.step sim;
        true
      in
      let bare, exec =
        match r.kernel with
        | Some k ->
            let codes = Array.map (Ir.Kernel.encode k) init in
            let sim =
              Engine.Sim.make ~protocol:k.Ir.Kernel.compiled ~init:codes ~rng:(Prng.copy rng)
            in
            ( step sim,
              advance (Ir.Kernel.exec ~kind:Engine.Exec.Agent k ~init ~rng:(Prng.copy rng)) )
        | None ->
            let make () = Engine.Sim.make ~protocol:r.p.protocol ~init ~rng:(Prng.copy rng) in
            (step (make ()), advance (Engine.Exec.of_sim (make ())))
      in
      interleaved ~chunks:16 ~chunk:65536 bare exec
  | Engine.Exec.Count ->
      let make () = Engine.Count_sim.make ~protocol:r.p.protocol ~init ~rng:(Prng.copy rng) () in
      let cs = make () and exec = Engine.Exec.of_count_sim (make ()) in
      interleaved ~chunks:8 ~chunk:500
        (fun () -> Engine.Count_sim.advance cs ~until:max_int)
        (fun () -> Engine.Exec.advance exec ~until:max_int)

(* [run_to_stability] against bare [Exec.advance] calls over the same
   trajectory, in both orders; the mean of the two differences. *)
let runner_overhead (type s) (r : s ready) ~rng ~(init : s array) =
  let with_runner () =
    let e = make_exec r ~init ~rng:(Prng.copy rng) in
    Measure.block (fun () -> stability r e)
  in
  let bare total =
    let e = make_exec r ~init ~rng:(Prng.copy rng) in
    let advances = ref 0 in
    let (), b =
      Measure.block (fun () ->
          while Engine.Exec.interactions e < total do
            ignore (Engine.Exec.advance e ~until:total : bool);
            incr advances
          done)
    in
    (!advances, b.Measure.seconds)
  in
  let o, r1 = with_runner () in
  let total = o.Engine.Runner.total_interactions in
  let advances, b1 = bare total in
  let _, b2 = bare total in
  let _, r2 = with_runner () in
  (ns ((r1.Measure.seconds -. b1 +. r2.Measure.seconds -. b2) /. 2.0) advances, o)

(* The first trial on the count engine: to stability when that is the
   workload's engine (in situ), else capped at 20 000 events (probe). *)
let count_layer (type s) (r : s ready) ~rng ~(init : s array) =
  let on_count = r.w.engine = Engine.Exec.Count in
  let mk = if on_count then in_situ else probe in
  let cs, drain =
    Measure.block (fun () ->
        Engine.Count_sim.make ~protocol:r.p.protocol ~init ~rng:(Prng.copy rng) ())
  in
  let e = Engine.Exec.of_count_sim cs in
  let (), run =
    Measure.block (fun () ->
        if on_count then ignore (stability r e : Engine.Runner.outcome)
        else
          while Engine.Exec.events e < 20_000 && Engine.Exec.advance e ~until:max_int do
            ()
          done)
  in
  let events = float_of_int (max 1 (Engine.Exec.events e)) in
  [
    mk "count.init_drain_ms" (1000.0 *. drain.Measure.seconds) "ms";
    mk "count.event_us" (1e6 *. run.Measure.seconds /. events) "us";
    mk "count.minor_words_per_event" (run.Measure.minor_words /. events) "words";
    mk "count.pairs_probed" (stat e "pairs_probed") "count";
    mk "count.pairs_cached" (stat e "pairs_cached") "count";
    mk "count.closure_size" (stat e "closure_size") "count";
    mk "count.drained" (if Engine.Count_sim.drained cs then 1.0 else 0.0) "flag";
    mk "count.null_skip_ratio"
      (stat e "null_skipped" /. Float.max 1.0 (stat e "interactions"))
      "ratio";
  ]

(* The workload's kernel (in situ), or this protocol compiled and stepped
   over the sampled transition arguments (probe). *)
let kernel_layer (type s) (r : s ready) (rs : s rounds) rep ~(init : s array) =
  match (r.kernel, rs.memo) with
  | Some k, Some (hits, dynamic) ->
      [
        in_situ "kernel.compile_ms" (1000.0 *. k.Ir.Kernel.compile_s) "ms";
        in_situ "kernel.step_ns" (ns rep.transition.Measure.seconds rep.steps) "ns";
        in_situ "kernel.memo_hit_ratio" (ratio hits (hits + dynamic)) "ratio";
      ]
  | _ ->
      let k, compile = Measure.block (fun () -> Ir.Kernel.compile r.p.enumerable) in
      let sample =
        match List.concat_map (fun t -> t.sample) !(rs.ts.all) with
        | [] -> [ (init.(0), init.(1)) ]
        | s -> s
      in
      let encode (a, b) = (Ir.Kernel.encode k a, Ir.Kernel.encode k b) in
      let args = Array.of_list (List.map encode sample) in
      let rng = Prng.create ~seed:r.seed in
      let h0 = !(k.Ir.Kernel.memo_hits) and d0 = !(k.Ir.Kernel.dynamic_steps) in
      let b, reps =
        repeat_block ~min_s:0.1 (fun () ->
            Array.iter (fun (a, c) -> ignore (Ir.Kernel.step k rng a c)) args)
      in
      let hits = !(k.Ir.Kernel.memo_hits) - h0 and dynamic = !(k.Ir.Kernel.dynamic_steps) - d0 in
      [
        probe "kernel.compile_ms" (1000.0 *. compile.Measure.seconds) "ms";
        probe "kernel.step_ns" (ns b.Measure.seconds (reps * Array.length args)) "ns";
        probe "kernel.memo_hit_ratio" (ratio hits (hits + dynamic)) "ratio";
      ]

(* Faults the soak injected (in situ), or 20 corruptions of 5% of the
   first trial's agents (probe). *)
let chaos_layer (type s) (r : s ready) (rs : s rounds) ~rng ~(init : s array) =
  if r.chaos <> None then
    let faults = sum rs.ts (fun t -> t.faults) in
    let seconds = List.fold_left (fun acc t -> acc +. t.fault_s) 0.0 !(rs.ts.all) in
    [
      in_situ "chaos.fault_us" (1e6 *. seconds /. float_of_int (max 1 faults)) "us";
      in_situ "chaos.faults" (float_of_int faults) "count";
    ]
  else begin
    let e = make_exec r ~init ~rng:(Prng.copy rng) in
    let frng = Prng.create ~seed:r.seed in
    let calls = 20 in
    let (), b =
      Measure.block (fun () ->
          for _ = 1 to calls do
            ignore (Engine.Exec.corrupt e ~rng:frng ~fraction:0.05 r.p.random_state : int)
          done)
    in
    [
      probe "chaos.fault_us" (1e6 *. b.Measure.seconds /. float_of_int calls) "us";
      in_situ "chaos.faults" 0.0 "count";
    ]
  end

(* The first trial's event stream, thinned as [ssr_sim --events] thins it,
   encoded, written and read back. In situ on the soak, which writes it. *)
let telemetry_layer (type s) (r : s ready) ~child =
  let mk = if r.chaos <> None then in_situ else probe in
  let n = r.w.n in
  let events = ref [] and steps = ref 0 in
  let collect e =
    Engine.Exec.on e (function
      | Engine.Instrument.Step _ as ev ->
          incr steps;
          if !steps mod step_interval ~n = 0 then events := ev :: !events
      | ev -> events := ev :: !events);
    e
  in
  let (_ : trial) = run_trial ~wrap:collect r ~index:0 ~rng:(Prng.copy child) ~sink:None in
  let events = Array.of_list (List.rev !events) in
  let run =
    Telemetry.Events.make_run ~engine:r.w.engine ~protocol:r.p.protocol.Engine.Protocol.name ~n
      ~seed:r.seed ~trial:0 ()
  in
  let text = ref "" in
  let encode, encode_reps =
    repeat_block ~min_s:0.05 (fun () ->
        let buf = Telemetry.Sink.buffer () in
        Array.iter (fun ev -> Telemetry.Sink.write buf (Telemetry.Events.to_json ~run ev)) events;
        text := Telemetry.Sink.contents buf)
  in
  let bytes = String.length !text in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' !text) in
  let path = r.events_path ^ ".trace" in
  let write, write_reps =
    repeat_block ~min_s:0.05 (fun () ->
        let sink = Telemetry.Sink.file path in
        List.iter (Telemetry.Sink.write_line sink) lines;
        Telemetry.Sink.close sink)
  in
  let read, read_reps = repeat_block ~min_s:0.05 (fun () -> ignore (readback path)) in
  Sys.remove path;
  [
    mk "events.encode_ns" (ns encode.Measure.seconds (encode_reps * Array.length events)) "ns";
    mk "sink.bytes" (float_of_int bytes) "bytes";
    mk "sink.write_mb_per_s"
      (float_of_int (bytes * write_reps) /. 1e6 /. write.Measure.seconds)
      "MB/s";
    mk "timeline.fold_us_per_line"
      (1e6 *. read.Measure.seconds /. float_of_int (read_reps * max 1 (List.length lines)))
      "us";
    mk "timeline.readback_s" (read.Measure.seconds /. float_of_int read_reps) "s";
  ]

let run_ready (type s) (r : s ready) ~seconds =
  let notes = ref [] in
  let note s = notes := s :: !notes in
  let rs = run_rounds r ~seconds in
  let rep, agent = agent_layers r rs ~note in
  let child, rng, init = inputs r 0 in
  let runner_ns, probe_outcome = runner_overhead r ~rng ~init in
  let soak = r.chaos <> None in
  let rmk = if soak then probe else in_situ in
  let stable =
    List.filter_map
      (fun t -> match t.outcome with Stable o -> Some o | Soaked _ -> None)
      (trials_of rs.traced)
  in
  let metrics =
    round_metrics r rs @ agent
    @ [
        in_situ "transition.ns" (transition_ns r rs rep) "ns";
        in_situ "exec.advance_overhead_ns" (exec_overhead r ~rng ~init) "ns";
        rmk "runner.overhead_ns" runner_ns "ns";
        rmk "runner.confirm_share"
          (confirm_share (if soak then [ probe_outcome ] else stable))
          "ratio";
      ]
    @ count_layer r ~rng ~init @ kernel_layer r rs rep ~init @ chaos_layer r rs ~rng ~init
    @ telemetry_layer r ~child
  in
  let all = rs.baseline @ rs.traced in
  let attempted = List.fold_left (fun acc rd -> acc + Array.length rd.results) 0 all in
  let failed =
    List.length
      (List.filter trial_failed (List.concat_map (fun rd -> Array.to_list rd.results) all))
  in
  let observations = sum rs.ts (fun t -> t.observations) + sum rs.ks (fun t -> t.observations) in
  let interactions = List.fold_left (fun acc t -> acc + t.interactions) 0 (trials_of rs.traced) in
  note
    (Printf.sprintf "rank and is_leader calls per interaction in the traced rounds: %.4g"
       (ratio observations interactions));
  { metrics; attempted; failed; notes = List.rev !notes }

let run w ~seed ~seconds =
  let prepared = prepare w ~seed in
  let (Ready r) = prepared in
  Fun.protect ~finally:(fun () -> release prepared) (fun () -> run_ready r ~seconds)

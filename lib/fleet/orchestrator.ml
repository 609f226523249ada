module J = Telemetry.Json

type config = {
  out_dir : string;
  journal_path : string;
  workers : int;
  queue_cap : int;
  backoff_base : int;
  chaos : Chaos.Fleet_faults.t;
  chaos_seed : int;
}

let default_config ~out_dir =
  {
    out_dir;
    journal_path = Filename.concat out_dir "fleet.journal.jsonl";
    workers = 2;
    queue_cap = 64;
    backoff_base = 4;
    chaos = Chaos.Fleet_faults.none;
    chaos_seed = 0;
  }

type status =
  | Queued
  | Running of { attempt : int }
  | Backoff of { attempt : int; until_tick : int }
  | Completed of { attempt : int; converged : int; trials : int }
  | Failed of { attempts : int; error : string }

type entry = { job : Job.t; mutable status : status; mutable attempts : int }

type completion = { id : string; attempt : int; result : (Worker.outcome, Supervise.failure) result }

type counters = {
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable shed : int;
  mutable retries : int;
}

type t = {
  cfg : config;
  pool : Engine.Pool.t;
  admission : Admission.t;
  journal : Journal.t;
  table : (string, entry) Hashtbl.t;
  mutable order : string list;  (* reversed submission order *)
  mutable backoff : (int * string) list;  (* (due tick, id), insertion order *)
  completions : completion list ref;
  completions_mutex : Mutex.t;
  mutable tick : int;
  mutable in_flight : int;
  mutable draining : bool;
  mutable finished : bool;
  c : counters;
}

let ensure_dir path =
  if not (Sys.file_exists path) then
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let status_counts_completed = function Completed _ -> true | _ -> false

let register t entry =
  Hashtbl.replace t.table entry.job.Job.id entry;
  t.order <- entry.job.Job.id :: t.order;
  t.c.submitted <- t.c.submitted + 1

let create ?(resume = false) cfg =
  if cfg.workers < 1 then invalid_arg "Fleet.Orchestrator.create: workers must be >= 1";
  if cfg.backoff_base < 1 then invalid_arg "Fleet.Orchestrator.create: backoff_base must be >= 1";
  ensure_dir cfg.out_dir;
  let prior =
    if resume && Sys.file_exists cfg.journal_path then
      match Journal.replay ~path:cfg.journal_path with
      | Ok r -> Some r
      | Error msg -> failwith (Printf.sprintf "cannot replay journal %s: %s" cfg.journal_path msg)
    else None
  in
  let t =
    {
      cfg;
      (* +1: the orchestrator's own domain runs the event loop, it never
         helps drain, so [workers] concurrent jobs need [workers] worker
         domains (Pool.submit requires jobs >= 2). *)
      pool = Engine.Pool.create ~jobs:(cfg.workers + 1);
      admission = Admission.create ~cap:cfg.queue_cap;
      journal = Journal.open_ ~append:(prior <> None) cfg.journal_path;
      table = Hashtbl.create 64;
      order = [];
      backoff = [];
      completions = ref [];
      completions_mutex = Mutex.create ();
      tick = 0;
      in_flight = 0;
      draining = false;
      finished = false;
      c = { submitted = 0; completed = 0; failed = 0; shed = 0; retries = 0 };
    }
  in
  (match prior with
  | None -> ()
  | Some r ->
      (* Replay in journal order, first spec wins. A completed or failed
         job is terminal: mark it, never re-dispatch — its manifest is
         not rewritten. Anything else was in flight or queued when the
         previous process died: requeue it (bypassing the admission cap —
         it was already admitted once) with its journaled attempt count,
         so the retry budget keeps counting across the crash. *)
      List.iter
        (fun (job : Job.t) ->
          if not (Hashtbl.mem t.table job.Job.id) then begin
            let id = job.Job.id in
            let entry =
              match
                List.find_opt (fun (d : Journal.done_record) -> d.Journal.id = id) r.Journal.completed
              with
              | Some d ->
                  t.c.completed <- t.c.completed + 1;
                  {
                    job;
                    status =
                      Completed
                        { attempt = d.Journal.attempt; converged = d.Journal.converged; trials = d.Journal.trials };
                    attempts = d.Journal.attempt;
                  }
              | None -> (
                  match List.assoc_opt id r.Journal.failed with
                  | Some error ->
                      let attempts =
                        match List.assoc_opt id r.Journal.attempts with Some a -> a | None -> 1
                      in
                      t.c.failed <- t.c.failed + 1;
                      { job; status = Failed { attempts; error }; attempts }
                  | None ->
                      let attempts =
                        match List.assoc_opt id r.Journal.attempts with Some a -> a | None -> 0
                      in
                      Admission.push_force t.admission job;
                      { job; status = Queued; attempts })
            in
            register t entry
          end)
        r.Journal.specs);
  t

let shed_reason t (job : Job.t) =
  if t.draining then Some "draining"
  else if Hashtbl.mem t.table job.Job.id then Some "duplicate id"
  else None

let submit t job =
  match shed_reason t job with
  | Some reason ->
      Journal.append t.journal (Journal.Shed { id = job.Job.id; reason });
      t.c.shed <- t.c.shed + 1;
      `Shed reason
  | None -> (
      match Admission.push t.admission job with
      | Ok () ->
          Journal.append t.journal (Journal.Spec job);
          register t { job; status = Queued; attempts = 0 };
          `Accepted
      | Error reason ->
          Journal.append t.journal (Journal.Shed { id = job.Job.id; reason });
          t.c.shed <- t.c.shed + 1;
          `Shed reason)

let reject t ~id ~reason =
  Journal.append t.journal (Journal.Shed { id; reason });
  t.c.shed <- t.c.shed + 1

let has_capacity t = (not t.draining) && Admission.has_capacity t.admission

let dispatch t entry =
  let job = entry.job in
  let id = job.Job.id in
  let attempt = entry.attempts + 1 in
  entry.attempts <- attempt;
  entry.status <- Running { attempt };
  Journal.append t.journal (Journal.Start { id; attempt });
  t.in_flight <- t.in_flight + 1;
  let decision =
    Chaos.Fleet_faults.decide t.cfg.chaos ~seed:t.cfg.chaos_seed ~job_id:id ~attempt
      ~n:job.Job.spec.Spec.n
  in
  let out_dir = t.cfg.out_dir in
  Engine.Pool.submit t.pool (fun () ->
      let result =
        Supervise.run (fun () ->
            Worker.run ~out_dir ?kill_at:decision.Chaos.Fleet_faults.kill_at
              ~stall:decision.Chaos.Fleet_faults.stall ~attempt job)
      in
      Mutex.lock t.completions_mutex;
      t.completions := { id; attempt; result } :: !(t.completions);
      Mutex.unlock t.completions_mutex)

(* Backoff: base·2^(retry-1) ticks plus jitter in [0, base), the jitter
   drawn from a PRNG seeded by hashing (job seed, id, attempt) — a pure
   function of the job and attempt, so schedules replay identically
   across crashes without persisting generator state. Ticks, not wall
   time: the delay is deterministic under any loop cadence. *)
let backoff_ticks t (job : Job.t) ~attempt =
  let exponent = min (attempt - 1) 16 in
  let base = t.cfg.backoff_base in
  let jitter_rng =
    Prng.create
      ~seed:(Chaos.Fleet_faults.mix ~seed:job.Job.spec.Spec.seed ~job_id:job.Job.id ~attempt)
  in
  (base * (1 lsl exponent)) + Prng.int jitter_rng base

let handle_completion t { id; attempt; result } =
  t.in_flight <- t.in_flight - 1;
  let entry = Hashtbl.find t.table id in
  match result with
  | Ok (outcome : Worker.outcome) ->
      entry.status <-
        Completed { attempt; converged = outcome.Worker.converged; trials = outcome.Worker.trials };
      t.c.completed <- t.c.completed + 1;
      Journal.append t.journal
        (Journal.Done
           { id; attempt; converged = outcome.Worker.converged; trials = outcome.Worker.trials })
  | Error (failure : Supervise.failure) ->
      let retries_used = entry.attempts - 1 in
      if retries_used < entry.job.Job.retries then begin
        let delay_ticks = backoff_ticks t entry.job ~attempt in
        entry.status <- Backoff { attempt; until_tick = t.tick + delay_ticks };
        t.backoff <- t.backoff @ [ (t.tick + delay_ticks, id) ];
        t.c.retries <- t.c.retries + 1;
        Journal.append t.journal
          (Journal.Retry { id; attempt; error = failure.Supervise.error; delay_ticks })
      end
      else begin
        entry.status <- Failed { attempts = entry.attempts; error = failure.Supervise.error };
        t.c.failed <- t.c.failed + 1;
        Journal.append t.journal
          (Journal.Fail { id; attempts = entry.attempts; error = failure.Supervise.error })
      end

let drain_completions t =
  Mutex.lock t.completions_mutex;
  let pending = List.rev !(t.completions) in
  t.completions := [];
  Mutex.unlock t.completions_mutex;
  List.iter (handle_completion t) pending;
  pending <> []

let requeue_due t =
  let due, waiting = List.partition (fun (until_tick, _) -> until_tick <= t.tick) t.backoff in
  t.backoff <- waiting;
  List.iter
    (fun (_, id) ->
      let entry = Hashtbl.find t.table id in
      entry.status <- Queued;
      Admission.push_force t.admission entry.job)
    due

let dispatch_ready t =
  if not t.draining then
    let continue = ref true in
    while !continue && t.in_flight < t.cfg.workers do
      match Admission.pop t.admission with
      | Some job -> dispatch t (Hashtbl.find t.table job.Job.id)
      | None -> continue := false
    done

let idle t = Admission.is_empty t.admission && t.backoff = [] && t.in_flight = 0

let step t =
  let progressed = drain_completions t in
  requeue_due t;
  dispatch_ready t;
  t.tick <- t.tick + 1;
  progressed

let drain t = t.draining <- true

type stats = {
  tick : int;
  submitted : int;
  completed : int;
  failed : int;
  shed : int;
  retries : int;
  queue_depth : int;
  in_flight : int;
  draining : bool;
}

let stats (t : t) =
  {
    tick = t.tick;
    submitted = t.c.submitted;
    completed = t.c.completed;
    failed = t.c.failed;
    shed = t.c.shed;
    retries = t.c.retries;
    queue_depth = Admission.depth t.admission + List.length t.backoff;
    in_flight = t.in_flight;
    draining = t.draining;
  }

let status_json = function
  | Queued -> [ ("state", J.String "queued") ]
  | Running { attempt } -> [ ("state", J.String "running"); ("attempt", J.Int attempt) ]
  | Backoff { attempt; until_tick } ->
      [ ("state", J.String "backoff"); ("attempt", J.Int attempt); ("until_tick", J.Int until_tick) ]
  | Completed { attempt; converged; trials } ->
      [
        ("state", J.String "completed");
        ("attempt", J.Int attempt);
        ("converged", J.Int converged);
        ("trials", J.Int trials);
      ]
  | Failed { attempts; error } ->
      [ ("state", J.String "failed"); ("attempts", J.Int attempts); ("error", J.String error) ]

let snapshot_json t =
  let s = stats t in
  let jobs =
    List.rev_map
      (fun id ->
        let entry = Hashtbl.find t.table id in
        J.Obj
          ([
             ("id", J.String id);
             ("group", J.String entry.job.Job.group);
             ("protocol", J.String entry.job.Job.spec.Spec.protocol);
             ("n", J.Int entry.job.Job.spec.Spec.n);
             ("attempts", J.Int entry.attempts);
           ]
          @ status_json entry.status))
      t.order
  in
  J.Obj
    [
      ("v", J.Int 1);
      ("kind", J.String "fleet_status");
      ("tick", J.Int s.tick);
      ("submitted", J.Int s.submitted);
      ("completed", J.Int s.completed);
      ("failed", J.Int s.failed);
      ("shed", J.Int s.shed);
      ("retries", J.Int s.retries);
      ("queue_depth", J.Int s.queue_depth);
      ("in_flight", J.Int s.in_flight);
      ("draining", J.Bool s.draining);
      ( "groups",
        J.Obj (List.map (fun (g, d) -> (g, J.Int d)) (Admission.groups t.admission)) );
      ("jobs", J.List jobs);
    ]

let record_metrics t =
  match Telemetry.Metrics.ambient () with
  | None -> ()
  | Some reg ->
      let s = stats t in
      Telemetry.Metrics.set reg "fleet.submitted" (float_of_int s.submitted);
      Telemetry.Metrics.set reg "fleet.completed" (float_of_int s.completed);
      Telemetry.Metrics.set reg "fleet.failed" (float_of_int s.failed);
      Telemetry.Metrics.set reg "fleet.shed" (float_of_int s.shed);
      Telemetry.Metrics.set reg "fleet.retries" (float_of_int s.retries);
      Telemetry.Metrics.set reg "fleet.queue_depth" (float_of_int s.queue_depth);
      Telemetry.Metrics.set reg "fleet.in_flight" (float_of_int s.in_flight);
      Telemetry.Metrics.set reg "fleet.ticks" (float_of_int s.tick)

let run ?(tick_s = 0.002) ?(on_tick = fun (_ : t) -> ()) ?(should_drain = fun () -> None)
    ?(more_work = fun () -> false) t =
  if t.finished then invalid_arg "Fleet.Orchestrator.run: already finished";
  let reason = ref "complete" in
  let continue = ref true in
  while !continue do
    let progressed = step t in
    (if not t.draining then
       match should_drain () with
       | Some r ->
           reason := r;
           drain t
       | None -> ());
    on_tick t;
    if
      (t.draining && t.in_flight = 0)
      || ((not t.draining) && idle t && not (more_work ()))
    then continue := false
    else if (not progressed) && tick_s > 0.0 then Unix.sleepf tick_s
  done;
  (* Completions may have landed between the last drain and the loop
     exit; fold them in so the journal's final entries precede [drain]. *)
  ignore (drain_completions t : bool);
  Journal.append t.journal (Journal.Drain { reason = !reason });
  record_metrics t;
  Journal.close t.journal;
  Engine.Pool.shutdown t.pool;
  if t.cfg.chaos.Chaos.Fleet_faults.torn_journal then
    Chaos.Fleet_faults.tear_journal ~path:t.cfg.journal_path;
  t.finished <- true;
  !reason

let all_done t =
  List.for_all
    (fun id ->
      let entry = Hashtbl.find t.table id in
      match entry.status with Completed _ | Failed _ -> true | _ -> false)
    t.order

let completed_count t = t.c.completed
let is_completed t id =
  match Hashtbl.find_opt t.table id with
  | Some e -> status_counts_completed e.status
  | None -> false

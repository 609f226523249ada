exception Deadline_exceeded of { interactions : int; deadline : int }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { interactions; deadline } ->
        Some
          (Printf.sprintf "deadline exceeded (%d interactions, budget %d)" interactions deadline)
    | _ -> None)

type outcome = {
  job : Job.t;
  attempt : int;
  converged : int;
  trials : int;
  wall_s : float;
  events_path : string;
  manifest_path : string;
}

let events_path ~out_dir (job : Job.t) = Filename.concat out_dir (job.Job.id ^ ".events.jsonl")

let manifest_path ~out_dir (job : Job.t) =
  Filename.concat out_dir (job.Job.id ^ ".manifest.json")

(* Raises [fault at] once the executor's interaction clock reaches [at]. *)
let arm exec ~at fault =
  Engine.Exec.on exec (fun ev ->
      let i = Engine.Instrument.interactions ev in
      if i >= at then raise (fault i))

let run ~out_dir ?kill_at ?(stall = false) ~attempt (job : Job.t) =
  let spec = job.Job.spec in
  let deadline = if spec.Spec.chaos = None then job.Job.deadline else None in
  let on_exec ~trial:_ exec =
    Option.iter (fun at -> arm exec ~at (fun _ -> Chaos.Fleet_faults.Killed)) kill_at;
    Option.iter
      (fun d -> arm exec ~at:d (fun i -> Deadline_exceeded { interactions = i; deadline = d }))
      deadline
  in
  let r = Run.execute ~events:true ~hook:{ Run.on_exec } spec in
  (* A kill drawn past the last event the trials produced must still
     fail the attempt: the buffers are discarded either way, so raising
     here is observationally the same as the in-run hook firing. *)
  if kill_at <> None then raise Chaos.Fleet_faults.Killed;
  if stall then raise Chaos.Fleet_faults.Stalled;
  (* Outputs are (re)written only on a fully successful attempt, events
     first, manifest second — the orchestrator journals [done] third.
     Every prefix of that order is safe to crash in: a re-run rewrites
     byte-identical events, so the files are exactly-once in content even
     when execution is at-least-once. *)
  let ev_path = events_path ~out_dir job and mf_path = manifest_path ~out_dir job in
  Run.write_events r ev_path;
  let params =
    ("group", Telemetry.Json.String job.Job.group)
    :: Option.to_list (Option.map (fun d -> ("deadline", Telemetry.Json.Int d)) job.Job.deadline)
  in
  Telemetry.Manifest.write ~path:mf_path (Run.manifest ~params ~run:("fleet:" ^ job.Job.id) r);
  let converged =
    Array.fold_left
      (fun acc -> function
        | Ok (Run.Stable o) when o.Engine.Runner.converged -> acc + 1
        | Ok (Run.Soaked r) when r.Chaos.Soak.sla.Chaos.Soak.met -> acc + 1
        | Ok _ | Error _ -> acc)
      0 r.Run.trials
  in
  {
    job;
    attempt;
    converged;
    trials = spec.Spec.trials;
    wall_s = r.Run.wall_clock_s;
    events_path = ev_path;
    manifest_path = mf_path;
  }

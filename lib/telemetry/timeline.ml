type burst = {
  faults : int;
  agents : int;
  first_at : float;
  last_at : float;
  last_interactions : int;
  broke : bool;
  recovered_at : float option;
  recovered_interactions : int option;
}

type summary = {
  run : Events.run;
  events : int;
  steps : int;
  first_correct_at : float option;
  last_correct_at : float option;
  violations : int;
  silent_at : float option;
  end_time : float;
  end_interactions : int;
  correct_interactions : int;
  bursts : burst list;
}

type acc = {
  mutable a_events : int;
  mutable a_steps : int;
  mutable a_first_correct : float option;
  mutable a_last_correct : float option;
  mutable a_violations : int;
  mutable a_silent : float option;
  mutable a_end_time : float;
  mutable a_end_interactions : int;
  mutable a_correct_since : int option;  (* interaction count at last Correct_entered *)
  mutable a_correct_acc : int;  (* interactions spent correct in closed intervals *)
  mutable a_bursts : burst list;  (* reversed *)
  mutable a_open : burst option;  (* burst awaiting its Correct_entered *)
}

let acc () =
  {
    a_events = 0;
    a_steps = 0;
    a_first_correct = None;
    a_last_correct = None;
    a_violations = 0;
    a_silent = None;
    a_end_time = 0.0;
    a_end_interactions = 0;
    a_correct_since = None;
    a_correct_acc = 0;
    a_bursts = [];
    a_open = None;
  }

let reach acc ~interactions ~time =
  acc.a_end_time <- Float.max acc.a_end_time time;
  acc.a_end_interactions <- max acc.a_end_interactions interactions

let feed acc (event : Engine.Instrument.event) =
  acc.a_events <- acc.a_events + 1;
  reach acc ~interactions:(Engine.Instrument.interactions event)
    ~time:(Engine.Instrument.time event);
  match event with
  | Engine.Instrument.Step _ -> acc.a_steps <- acc.a_steps + 1
  | Engine.Instrument.Correct_entered { time; interactions } ->
      if Option.is_none acc.a_first_correct then acc.a_first_correct <- Some time;
      acc.a_last_correct <- Some time;
      if Option.is_none acc.a_correct_since then acc.a_correct_since <- Some interactions;
      Option.iter
        (fun b ->
          let b = { b with recovered_at = Some time; recovered_interactions = Some interactions } in
          acc.a_bursts <- b :: acc.a_bursts;
          acc.a_open <- None)
        acc.a_open
  | Engine.Instrument.Correct_lost { interactions; _ } ->
      acc.a_violations <- acc.a_violations + 1;
      (match acc.a_correct_since with
      | Some since ->
          acc.a_correct_acc <- acc.a_correct_acc + (interactions - since);
          acc.a_correct_since <- None
      | None -> ());
      (match acc.a_open with Some b -> acc.a_open <- Some { b with broke = true } | None -> ())
  | Engine.Instrument.Silence { time; _ } -> acc.a_silent <- Some time
  | Engine.Instrument.Fault { agents; time; interactions } ->
      let b =
        match acc.a_open with
        | Some b -> { b with faults = b.faults + 1; agents = b.agents + agents }
        | None ->
            {
              faults = 1;
              agents;
              first_at = time;
              last_at = time;
              last_interactions = interactions;
              broke = false;
              recovered_at = None;
              recovered_interactions = None;
            }
      in
      acc.a_open <- Some { b with last_at = time; last_interactions = interactions }

let violations acc = acc.a_violations

let correct_interactions acc =
  acc.a_correct_acc
  + match acc.a_correct_since with Some since -> acc.a_end_interactions - since | None -> 0

(* Non-destructive (live snapshots): an open burst already reads as
   unrecovered, [recovered_at = None]. *)
let bursts acc =
  List.rev (match acc.a_open with Some b -> b :: acc.a_bursts | None -> acc.a_bursts)

let summary ~run acc =
  {
    run;
    events = acc.a_events;
    steps = acc.a_steps;
    first_correct_at = acc.a_first_correct;
    last_correct_at = acc.a_last_correct;
    violations = violations acc;
    silent_at = acc.a_silent;
    end_time = acc.a_end_time;
    end_interactions = acc.a_end_interactions;
    correct_interactions = correct_interactions acc;
    bursts = bursts acc;
  }

type state = {
  table : (string, acc) Hashtbl.t;
  mutable order : Events.run list;  (* reversed first-appearance order *)
}

let state () = { table = Hashtbl.create 16; order = [] }

let push st ((run : Events.run), event) =
  let acc =
    match Hashtbl.find_opt st.table run.Events.id with
    | Some acc -> acc
    | None ->
        let acc = acc () in
        Hashtbl.add st.table run.Events.id acc;
        st.order <- run :: st.order;
        acc
  in
  feed acc event

let snapshot st =
  List.rev_map
    (fun (run : Events.run) -> summary ~run (Hashtbl.find st.table run.Events.id))
    st.order

let fold events =
  let st = state () in
  List.iter (push st) events;
  snapshot st

let availability s =
  if s.end_interactions = 0 then if s.last_correct_at <> None then 1.0 else 0.0
  else float_of_int s.correct_interactions /. float_of_int s.end_interactions

(* Reads the channel to EOF up front so the final line's termination is
   known: a trailing line without '\n' is a live or crashed writer caught
   mid-append, so if it fails to decode it is dropped rather than failing
   the load. Complete undecodable lines still fail with their number. *)
let load ic =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec read_all () =
    let k = input ic chunk 0 (Bytes.length chunk) in
    if k > 0 then begin
      Buffer.add_subbytes buf chunk 0 k;
      read_all ()
    end
  in
  read_all ();
  let data = Buffer.contents buf in
  let lines = String.split_on_char '\n' data in
  (* After split, every element but the last was '\n'-terminated; the
     last is "" for a terminated file, or the unterminated tail. *)
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc)
    | [ last ] ->
        if String.trim last = "" then Ok (List.rev acc)
        else (
          match Events.of_line last with
          | Ok decoded -> Ok (List.rev (decoded :: acc))
          | Error _ -> Ok (List.rev acc) (* truncated final line: tolerate *))
    | line :: rest when String.trim line = "" -> loop (lineno + 1) acc rest
    | line :: rest -> (
        match Events.of_line line with
        | Ok decoded -> loop (lineno + 1) (decoded :: acc) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  loop 1 [] lines

let recovery_time b =
  match b.recovered_at with Some t -> Some (t -. b.last_at) | None -> None

type outcome = Absorbed | Recovered of { time : float; interactions : int } | Censored

let outcome b =
  match (b.broke, b.recovered_at, b.recovered_interactions) with
  | false, _, _ -> Absorbed
  | true, Some t, Some i ->
      Recovered { time = t -. b.last_at; interactions = i - b.last_interactions }
  | true, _, _ -> Censored

type sla = {
  sla_budget : float;
  broke : int;
  sla_misses : int;
  sla_censored : int;
  sla_met : bool;
}

let check_sla ~budget s =
  if not (budget > 0.0) then invalid_arg "Timeline.check_sla: budget must be > 0";
  let broke, misses, censored =
    List.fold_left
      (fun (broke, misses, censored) b ->
        match outcome b with
        | Absorbed -> (broke, misses, censored)
        | Recovered { time; _ } ->
            (broke + 1, (if time > budget then misses + 1 else misses), censored)
        | Censored -> (broke + 1, misses, censored + 1))
      (0, 0, 0) s.bursts
  in
  {
    sla_budget = budget;
    broke;
    sla_misses = misses;
    sla_censored = censored;
    sla_met = misses = 0 && censored = 0;
  }

let pp_opt_time fmt = function
  | Some t -> Format.fprintf fmt "t=%.2f" t
  | None -> Format.pp_print_string fmt "never"

let pp_summary ?sla_budget fmt s =
  let r = s.run in
  Format.fprintf fmt "run %s (%s engine, protocol %s, n=%d, seed=%d%s)@\n" r.Events.id
    r.Events.engine r.Events.protocol r.Events.n r.Events.seed
    (match r.Events.trial with Some t -> Printf.sprintf ", trial %d" t | None -> "");
  Format.fprintf fmt "  events            : %d (%d steps)@\n" s.events s.steps;
  Format.fprintf fmt "  first correct     : %a@\n" pp_opt_time s.first_correct_at;
  if s.last_correct_at <> s.first_correct_at then
    Format.fprintf fmt "  final convergence : %a@\n" pp_opt_time s.last_correct_at;
  Format.fprintf fmt "  correctness losses: %d@\n" s.violations;
  (match s.silent_at with
  | Some t -> Format.fprintf fmt "  silent            : t=%.2f@\n" t
  | None -> ());
  Format.fprintf fmt "  end of stream     : t=%.2f (interaction %d)@\n" s.end_time
    s.end_interactions;
  if s.violations > 0 || s.bursts <> [] then
    Format.fprintf fmt "  availability      : %.3f (fraction of interactions spent correct)@\n"
      (availability s);
  if s.bursts <> [] then begin
    Format.fprintf fmt "  fault bursts      : %d@\n" (List.length s.bursts);
    List.iteri
      (fun i b ->
        Format.fprintf fmt "    burst %d: %d agent%s in %d fault%s @@ t=%.2f" (i + 1) b.agents
          (if b.agents = 1 then "" else "s")
          b.faults
          (if b.faults = 1 then "" else "s")
          b.last_at;
        (match outcome b with
        | Absorbed -> Format.fprintf fmt " — correctness held"
        | Recovered { time = dt; _ } ->
            Format.fprintf fmt " — re-correct at t=%.2f (recovery %.2f%s)"
              (Option.get b.recovered_at) dt
              (match sla_budget with
              | Some budget when dt > budget -> ", OVER SLA"
              | Some _ -> ", within SLA"
              | None -> "")
        | Censored -> Format.fprintf fmt " — NOT recovered by end of stream");
        Format.pp_print_newline fmt ())
      s.bursts
  end;
  match sla_budget with
  | None -> ()
  | Some budget ->
      let v = check_sla ~budget s in
      if v.broke = 0 then
        Format.fprintf fmt "  SLA (budget %.2f) : MET (no burst broke correctness)@\n" budget
      else if v.sla_met then
        Format.fprintf fmt "  SLA (budget %.2f) : MET (%d recover%s within budget)@\n" budget
          v.broke
          (if v.broke = 1 then "y" else "ies")
      else
        Format.fprintf fmt "  SLA (budget %.2f) : MISSED (%d over budget, %d never recovered)@\n"
          budget v.sla_misses v.sla_censored

type t = {
  protocol : string;
  n : int;
  h : int;
  seed : int;
  scenario : string;
  engine : Engine.Exec.kind;
  compiled : bool;
  topology : string;
  trials : int;
  chaos : string option;
  horizon : float option;
  sla : float option;
}

let default ~protocol ~n ~seed =
  {
    protocol;
    n;
    h = 2;
    seed;
    scenario = "uniform";
    engine = Engine.Exec.Agent;
    compiled = false;
    topology = "complete";
    trials = 1;
    chaos = None;
    horizon = None;
    sla = None;
  }

let engine_of_string = function
  | "agent" -> Ok Engine.Exec.Agent
  | "count" -> Ok Engine.Exec.Count
  | other -> Error (Printf.sprintf "unknown engine '%s' (agent | count)" other)

let compiled_of_string = function
  | "interp" -> Ok false
  | "compiled" -> Ok true
  | other -> Error (Printf.sprintf "unknown kernel '%s' (interp | compiled)" other)

let kernel_name t = if t.compiled then "compiled" else "interp"
let topologies = [ "complete"; "ring"; "star"; "regular4" ]

let graph t =
  let n = t.n in
  match t.topology with
  | "ring" -> Some (Engine.Topology.ring ~n)
  | "star" -> Some (Engine.Topology.star ~n)
  | "regular4" -> Some (Engine.Topology.random_regular (Prng.create ~seed:99) ~n ~degree:4)
  | _ -> None

(* Parallel time units to interactions, rounding up to at least one. *)
let to_interactions ~n t = max 1 (int_of_float (Float.ceil (t *. float_of_int n)))

let horizon_interactions t =
  match t.horizon with
  | Some x -> to_interactions ~n:t.n x
  | None -> 8 * Engine.Runner.default_confirm ~n:t.n

let sla_interactions t = Option.map (to_interactions ~n:t.n) t.sla
let positive = function Some x -> x > 0.0 | None -> true
let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let resolve t =
  if not (List.mem t.protocol Catalogue.names) then
    fail "unknown protocol '%s' (%s)" t.protocol (String.concat " | " Catalogue.names)
  else if t.n < 2 then fail "n must be >= 2 (got %d)" t.n
  else if t.h < 0 then fail "h must be >= 0 (got %d)" t.h
  else if t.trials < 1 then fail "trials must be >= 1 (got %d)" t.trials
  else if not (List.mem t.topology topologies) then
    fail "unknown topology '%s' (%s)" t.topology (String.concat " | " topologies)
  else if not (positive t.horizon) then fail "horizon must be > 0 time units"
  else if not (positive t.sla) then fail "sla must be > 0 time units"
  else if (t.horizon <> None || t.sla <> None) && t.chaos = None then
    fail "horizon and sla require a chaos spec"
  else
    match Option.map Chaos.Spec.parse t.chaos with
    | Some (Error msg) -> fail "chaos: %s" msg
    | None | Some (Ok _) -> (
        let (Catalogue.Entry e as entry) =
          Option.get (Catalogue.find ~protocol:t.protocol ~n:t.n ~h:t.h)
        in
        let name = e.protocol.Engine.Protocol.name in
        match e.enumerable with
        | _ when not (List.mem_assoc t.scenario e.scenarios) ->
            fail "unknown %s scenario '%s' (available: %s)" t.protocol t.scenario
              (String.concat ", " (List.map fst e.scenarios))
        | _ when t.engine = Engine.Exec.Count && not e.protocol.Engine.Protocol.deterministic ->
            fail "the count engine requires a deterministic protocol (got %s)" name
        | Error reason when t.compiled ->
            fail "the compiled kernel is not supported for %s: %s" name reason
        | Ok _ | Error _ -> Ok entry)

let validate t = Result.map (fun _ -> t) (resolve t)

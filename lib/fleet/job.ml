type t = { id : string; deadline : int option; retries : int; group : string; spec : Spec.t }

let id_ok id =
  id <> ""
  && String.length id <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.')
       id

(* All structural validation lives here, at admission time, so a worker
   never meets a spec it cannot run. *)
let validate t =
  if not (id_ok t.id) then
    Error
      (Printf.sprintf "job id %S must be 1-64 chars of [A-Za-z0-9_.-] (it names output files)"
         t.id)
  else if t.retries < 0 then
    Error (Printf.sprintf "job %s: retries must be >= 0 (got %d)" t.id t.retries)
  else if (match t.deadline with Some d -> d < 1 | None -> false) then
    Error (Printf.sprintf "job %s: deadline must be >= 1 interaction" t.id)
  else
    match Spec.validate t.spec with
    | Ok _ -> Ok t
    | Error msg -> Error (Printf.sprintf "job %s: %s" t.id msg)

let make ~id ~protocol ~n ?(h = 2) ~seed ?(scenario = "uniform") ?(engine = Engine.Exec.Agent)
    ?(compiled = false) ?(trials = 1) ?chaos ?horizon ?sla ?deadline ?(retries = 2) ?group () =
  validate
    {
      id;
      deadline;
      retries;
      group = Option.value group ~default:protocol;
      spec =
        {
          (Spec.default ~protocol ~n ~seed) with
          Spec.h;
          scenario;
          engine;
          compiled;
          trials;
          chaos;
          horizon;
          sla;
        };
    }

let field name json = Telemetry.Json.member name json

let int_field ?default name json =
  match Option.bind (field name json) Telemetry.Json.to_int with
  | Some v -> Ok v
  | None -> (
      match (field name json, default) with
      | None, Some d -> Ok d
      | _ -> Error (Printf.sprintf "field %S: expected an int" name))

let string_field ?default name json =
  match Option.bind (field name json) Telemetry.Json.to_string_opt with
  | Some v -> Ok v
  | None -> (
      match (field name json, default) with
      | None, Some d -> Ok d
      | _ -> Error (Printf.sprintf "field %S: expected a string" name))

let opt_field name conv json =
  match field name json with
  | None | Some Telemetry.Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "field %S: wrong type" name))

let ( let* ) = Result.bind

let of_json json =
  match json with
  | Telemetry.Json.Obj _ ->
      let* id = string_field "id" json in
      let* protocol = string_field ~default:"optimal" "protocol" json in
      let* n = int_field "n" json in
      let* h = int_field ~default:2 "h" json in
      let* seed = int_field ~default:1 "seed" json in
      let* scenario = string_field ~default:"uniform" "scenario" json in
      let* engine =
        Result.bind (string_field ~default:"agent" "engine" json) Spec.engine_of_string
      in
      let* compiled =
        Result.bind (string_field ~default:"interp" "kernel" json) Spec.compiled_of_string
      in
      let* trials = int_field ~default:1 "trials" json in
      let* chaos = opt_field "chaos" Telemetry.Json.to_string_opt json in
      let* horizon = opt_field "horizon" Telemetry.Json.to_float json in
      let* sla = opt_field "sla" Telemetry.Json.to_float json in
      let* deadline = opt_field "deadline" Telemetry.Json.to_int json in
      let* retries = int_field ~default:2 "retries" json in
      let* group = string_field ~default:protocol "group" json in
      make ~id ~protocol ~n ~h ~seed ~scenario ~engine ~compiled ~trials ?chaos ?horizon ?sla
        ?deadline ~retries ~group ()
  | _ -> Error "job spec must be a JSON object"

let of_line line =
  match Telemetry.Json.parse line with
  | Ok json -> of_json json
  | Error msg -> Error (Printf.sprintf "bad JSON: %s" msg)

let to_json t =
  let module J = Telemetry.Json in
  let s = t.spec in
  let opt f = function Some v -> f v | None -> J.Null in
  J.Obj
    [
      ("id", J.String t.id);
      ("protocol", J.String s.Spec.protocol);
      ("n", J.Int s.Spec.n);
      ("h", J.Int s.Spec.h);
      ("seed", J.Int s.Spec.seed);
      ("scenario", J.String s.Spec.scenario);
      ("engine", J.String (Engine.Exec.kind_to_string s.Spec.engine));
      ("kernel", J.String (Spec.kernel_name s));
      ("trials", J.Int s.Spec.trials);
      ("chaos", opt (fun c -> J.String c) s.Spec.chaos);
      ("horizon", opt (fun x -> J.Float x) s.Spec.horizon);
      ("sla", opt (fun x -> J.Float x) s.Spec.sla);
      ("deadline", opt (fun d -> J.Int d) t.deadline);
      ("retries", J.Int t.retries);
      ("group", J.String t.group);
    ]

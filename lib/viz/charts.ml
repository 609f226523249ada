(* Insertion-order group-by: series order (and so palette slots) depends
   only on the order runs first appear in the stream, never on hash
   layout. *)
let group_by key items =
  let table = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun item ->
      let k = key item in
      match Hashtbl.find_opt table k with
      | Some r -> r := item :: !r
      | None ->
          let r = ref [ item ] in
          Hashtbl.add table k r;
          order := k :: !order)
    items;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find table k))) !order

let run_label (run : Telemetry.Events.run) =
  Printf.sprintf "%s / %s" run.Telemetry.Events.protocol run.Telemetry.Events.engine

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let ci95 xs = if Array.length xs < 2 then 0.0 else Stats.Summary.ci95_halfwidth xs

let slope_points ?(title = "Convergence time vs population size") series_points =
  let notes = ref [] in
  let series =
    List.concat
      (List.mapi
         (fun i (label, points) ->
           let points = List.sort compare points in
           let data = Plot.series ~label ~color:i (Plot.Errorbar (Array.of_list points)) in
           let distinct_ns = List.length points in
           if distinct_ns < 2 then [ data ]
           else begin
             let fit =
               Stats.Regression.log_log (List.map (fun (n, m, _) -> (n, m)) points)
             in
             notes :=
               Printf.sprintf "%s: slope %.2f (r²=%.3f)" label fit.Stats.Regression.slope
                 fit.Stats.Regression.r2
               :: !notes;
             let eval n = Float.exp fit.Stats.Regression.intercept *. (n ** fit.Stats.Regression.slope) in
             let n_lo = (fun (n, _, _) -> n) (List.hd points) in
             let n_hi = (fun (n, _, _) -> n) (List.nth points (distinct_ns - 1)) in
             let overlay =
               Plot.series ~color:i ~dash:true
                 (Plot.Line [| (n_lo, eval n_lo); (n_hi, eval n_hi) |])
             in
             [ data; overlay ]
           end)
         series_points)
  in
  Plot.chart ~title ~x_kind:Scale.Log ~y_kind:Scale.Log ~x_label:"population size n"
    ~y_label:"convergence time (parallel time units)" ~notes:(List.rev !notes) series

let slope_fit ?title events =
  let summaries = Telemetry.Timeline.fold events in
  let converged =
    List.filter_map
      (fun (s : Telemetry.Timeline.summary) ->
        match s.Telemetry.Timeline.last_correct_at with
        | Some t when t > 0.0 ->
            Some (run_label s.Telemetry.Timeline.run, s.Telemetry.Timeline.run.Telemetry.Events.n, t)
        | Some _ | None -> None)
      summaries
  in
  let groups = group_by (fun (label, _, _) -> label) converged in
  let series_points =
    List.map
      (fun (label, samples) ->
        let by_n = group_by (fun (_, n, _) -> n) samples in
        ( label,
          List.map
            (fun (n, samples) ->
              let times = Array.of_list (List.map (fun (_, _, t) -> t) samples) in
              (float_of_int n, mean times, ci95 times))
            by_n ))
      groups
  in
  slope_points ?title series_points

let availability ?(title = "Availability under sustained faults")
    ?(x_label = "offered load k = rate × t_rec") series_points =
  let series =
    List.mapi
      (fun i (label, points) ->
        Plot.series ~label ~color:i
          (Plot.Line_points (Array.of_list (List.sort compare points))))
      series_points
  in
  Plot.chart ~title ~x_kind:Scale.Log ~y_domain:(0.0, 1.05) ~x_label ~y_label:"availability"
    series

let mean_availability summaries =
  match summaries with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun acc s -> acc +. Telemetry.Timeline.availability s) 0.0 summaries
      /. float_of_int (List.length summaries)

let recovery_samples ?(title = "Recovery time distribution") series_samples =
  let notes = ref [] in
  let series =
    List.filter_map
      (fun (label, times, censored) ->
        let times = List.sort compare times in
        let k = List.length times in
        if k = 0 then begin
          notes := Printf.sprintf "%s: no recoveries (%d censored)" label censored :: !notes;
          None
        end
        else begin
          let kf = float_of_int k in
          let median = List.nth times (k / 2) in
          notes :=
            Printf.sprintf "%s: %d recoveries, median %.1f%s" label k median
              (if censored > 0 then Printf.sprintf " (%d censored)" censored else "")
            :: !notes;
          let points =
            Array.of_list (List.mapi (fun i t -> (t, float_of_int (i + 1) /. kf)) times)
          in
          Some (Plot.series ~label (Plot.Step points))
        end)
      series_samples
  in
  Plot.chart ~title ~y_domain:(0.0, 1.05) ~x_label:"recovery time (parallel time units)"
    ~y_label:"fraction recovered ≤ t" ~notes:(List.rev !notes) series

let recovery_cdf ?title events =
  let module T = Telemetry.Timeline in
  (* Broke bursts only: a run whose bursts were all absorbed gets no series. *)
  let samples =
    List.concat_map
      (fun (s : T.summary) ->
        List.filter_map
          (fun b ->
            match T.outcome b with
            | T.Absorbed -> None
            | (T.Recovered _ | T.Censored) as o -> Some (run_label s.T.run, o))
          s.T.bursts)
      (T.fold events)
  in
  let series_samples =
    List.map
      (fun (label, samples) ->
        let outcomes = List.map snd samples in
        ( label,
          List.filter_map (function T.Recovered { time; _ } -> Some time | _ -> None) outcomes,
          List.length (List.filter (function T.Censored -> true | _ -> false) outcomes) ))
      (group_by fst samples)
  in
  recovery_samples ?title series_samples

let span_histograms metrics_json =
  let histograms =
    match Telemetry.Json.member "histograms" metrics_json with
    | Some (Telemetry.Json.Obj fields) -> fields
    | Some _ | None -> []
  in
  let prefix = Telemetry.Span.prefix in
  let plen = String.length prefix in
  List.filter
    (fun (name, _) -> String.length name > plen && String.sub name 0 plen = prefix)
    histograms

let has_spans metrics_json = span_histograms metrics_json <> []

let phase_profile ?(title = "Per-phase wall-time profile") metrics_json =
  let prefix = Telemetry.Span.prefix in
  let plen = String.length prefix in
  let spans =
    List.filter_map
      (fun (name, h) ->
        if String.length name > plen && String.sub name 0 plen = prefix then
          let field key = Option.bind (Telemetry.Json.member key h) Telemetry.Json.to_float in
          match (field "total", field "count", field "mean") with
          | Some total, Some count, Some mean ->
              Some (String.sub name plen (String.length name - plen), total, count, mean)
          | _ -> None
        else None)
      (span_histograms metrics_json)
  in
  let categories = Array.of_list (List.map (fun (name, _, _, _) -> name) spans) in
  let bars =
    Array.of_list
      (List.mapi (fun i (_, total, _, _) -> (float_of_int i -. 0.4, float_of_int i +. 0.4, total)) spans)
  in
  let notes =
    List.map
      (fun (name, _, count, mean) ->
        Printf.sprintf "%s: %.0f × %.3g s" name count mean)
      spans
  in
  Plot.chart ~title ~x_categories:categories ~y_label:"total wall time (s)" ~notes
    [ Plot.series (Plot.Bars bars) ]

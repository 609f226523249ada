type node = { name : Name.t; sync : int; timer : int; children : node list }

type t = node list

let empty = []

let rec depth_node nd = 1 + depth nd.children

and depth t = List.fold_left (fun acc nd -> Int.max acc (depth_node nd)) 0 t

let rec node_count t = List.fold_left (fun acc nd -> acc + 1 + node_count nd.children) 0 t

let rec decrement_timers t =
  List.map
    (fun nd ->
      { nd with timer = Int.max (nd.timer - 1) 0; children = decrement_timers nd.children })
    t

let rec truncate ~depth t =
  if depth <= 0 then []
  else List.map (fun nd -> { nd with children = truncate ~depth:(depth - 1) nd.children }) t

let rec remove_named ~name t =
  List.filter_map
    (fun nd ->
      if Name.equal nd.name name then None
      else Some { nd with children = remove_named ~name nd.children })
    t

let find_child ~name t = List.find_opt (fun nd -> Name.equal nd.name name) t

let merge ~h ~own ~partner ~partner_tree ~sync ~timer tree =
  if h <= 0 then []
  else begin
    let others = List.filter (fun nd -> not (Name.equal nd.name partner)) tree in
    let copied = remove_named ~name:own (truncate ~depth:(h - 1) partner_tree) in
    let child = { name = partner; sync; timer; children = copied } in
    remove_named ~name:own (child :: others)
  end

let fresh_paths_to ~name t =
  let rec walk prefix acc t =
    List.fold_left
      (fun acc nd ->
        if nd.timer <= 0 then acc
        else begin
          let prefix' = (nd.name, nd.sync) :: prefix in
          let acc = if Name.equal nd.name name then List.rev prefix' :: acc else acc in
          walk prefix' acc nd.children
        end)
      acc t
  in
  walk [] [] t

(* The reversed expectation: walking out of the confronted agent, the k-th
   step goes to the (p-k)-th node of [path] (finally to [origin]) and the
   matching sync is the one on [path]'s (p-k+1)-th edge. *)
let reversed_expectation ~origin ~path =
  (* path = [(n_1,s_1); ...; (n_p,s_p)] with n_p the confronted agent; the
     confronted agent walks back toward [origin], so the expected steps are
     [(n_{p-1},s_p); (n_{p-2},s_{p-1}); ...; (n_1,s_2); (origin,s_1)]. *)
  let rev_names_without_last =
    match List.rev_map fst path with [] -> [] | _last :: rest -> rest
  in
  let targets = rev_names_without_last @ [ origin ] in
  let rev_syncs = List.rev_map snd path in
  List.combine targets rev_syncs

let consistent_at ~tree ~origin ~path =
  match path with
  | [] -> None
  | _ -> begin
      let expectation = reversed_expectation ~origin ~path in
      let rec walk pos t = function
        | [] -> None
        | (name, sync) :: rest -> begin
            match find_child ~name t with
            | None -> None
            | Some nd -> if nd.sync = sync then Some pos else walk (pos + 1) nd.children rest
          end
      in
      walk 1 tree expectation
    end

let consistent ~tree ~origin ~path = consistent_at ~tree ~origin ~path <> None

let simply_labelled ~own t =
  let rec walk seen t =
    List.for_all
      (fun nd ->
        (not (List.exists (Name.equal nd.name) seen))
        && (not (Name.equal nd.name own))
        && walk (nd.name :: seen) nd.children)
      t
  in
  walk [] t

let rec sibling_names_distinct t =
  let rec unique = function
    | [] -> true
    | nd :: rest -> (not (List.exists (fun o -> Name.equal o.name nd.name) rest)) && unique rest
  in
  unique t && List.for_all (fun nd -> sibling_names_distinct nd.children) t

let pp fmt t =
  let rec pp_node indent nd =
    Format.fprintf fmt "%s--%d--> %a [t=%d]@\n" indent nd.sync Name.pp nd.name nd.timer;
    List.iter (pp_node (indent ^ "  ")) nd.children
  in
  if t = [] then Format.fprintf fmt "(empty)@\n" else List.iter (pp_node "") t

type computing =
  | Settled of { rank : int; children : int }
  | Unsettled of { errorcount : int }

type state = (computing, bool) Reset.role

let settled ~rank ~children = Reset.Computing (Settled { rank; children })

let unsettled ~errorcount = Reset.Computing (Unsettled { errorcount })

let resetting ~leader ~resetcount ~delaytimer =
  Reset.Resetting { Reset.resetcount; delaytimer; payload = leader }

let equal_computing x y =
  match (x, y) with
  | Settled a, Settled b -> a.rank = b.rank && a.children = b.children
  | Unsettled a, Unsettled b -> a.errorcount = b.errorcount
  | Settled _, Unsettled _ | Unsettled _, Settled _ -> false

let equal = Reset.equal_role equal_computing Bool.equal

let pp_computing fmt = function
  | Settled s -> Format.fprintf fmt "Settled(rank=%d, children=%d)" s.rank s.children
  | Unsettled u -> Format.fprintf fmt "Unsettled(errorcount=%d)" u.errorcount

let pp = Reset.pp_role pp_computing (fun fmt l -> Format.pp_print_string fmt (if l then "L" else "F"))

let spec ~(params : Params.optimal_silent) : (computing, bool) Reset.spec =
  {
    Reset.r_max = params.Params.r_max;
    d_max = params.Params.d_max;
    (* Every agent enters the Resetting role as a leader candidate. *)
    recruit_payload = (fun _rng -> true);
    propagating_tick = (fun _rng leader -> leader);
    dormant_tick = (fun _rng leader -> leader);
    (* Slow leader election L,L -> L,F during the reset (Protocol 3, l. 3-4). *)
    resetting_pair = (fun _rng la lb -> if la && lb then (true, false) else (la, lb));
    (* Protocol 4: the leader settles at the tree root, followers wait. *)
    awaken =
      (fun _rng leader ->
        if leader then Settled { rank = 1; children = 0 }
        else Unsettled { errorcount = params.Params.e_max });
  }

let protocol ?params ~n () : state Engine.Protocol.t =
  if n < 2 then invalid_arg "Optimal_silent.protocol: n must be >= 2";
  let params = match params with Some p -> p | None -> Params.optimal_silent n in
  let spec = spec ~params in
  let trigger () = Reset.trigger ~spec true in
  (* Recruitment (Protocol 3, lines 9-13): a Settled agent with a free slot
     hands the next binary-tree rank (2r, then 2r+1, when <= n) to an
     Unsettled partner. *)
  let recruit i j =
    match (i, j) with
    | Settled s, Unsettled _ when s.children < 2 && (2 * s.rank) + s.children <= n ->
        Some
          ( Settled { s with children = s.children + 1 },
            Settled { rank = (2 * s.rank) + s.children; children = 0 } )
    | (Settled _ | Unsettled _), (Settled _ | Unsettled _) -> None
  in
  (* Starvation countdown (lines 14-20); returns the updated state and
     whether the alarm fired. *)
  let countdown = function
    | Unsettled u ->
        let errorcount = Int.max (u.errorcount - 1) 0 in
        (Unsettled { errorcount }, errorcount = 0)
    | Settled _ as s -> (s, false)
  in
  let transition rng a b =
    match (a, b) with
    | Reset.Resetting _, _ | _, Reset.Resetting _ -> Reset.step ~spec rng a b
    | Reset.Computing ca, Reset.Computing cb -> begin
        match (ca, cb) with
        | Settled sa, Settled sb when sa.rank = sb.rank ->
            (* Rank collision (lines 5-8): both trigger a global reset. *)
            (trigger (), trigger ())
        | Settled _, Settled _ ->
            (* Distinct ranks: a null interaction. Returning the inputs
               themselves lets engines skip both sides. *)
            (a, b)
        | _ -> begin
            let ca', cb' =
              match recruit ca cb with
              | Some (ca', cb') -> (ca', cb')
              | None -> ( match recruit cb ca with
                  | Some (cb', ca') -> (ca', cb')
                  | None -> (ca, cb) )
            in
            let ca', alarm_a = countdown ca' in
            let cb', alarm_b = countdown cb' in
            if alarm_a || alarm_b then (trigger (), trigger ())
            else
              (* A side nothing happened to (a full Settled parent) is
                 returned as the input itself. *)
              ( (if ca' == ca then a else Reset.Computing ca'),
                if cb' == cb then b else Reset.Computing cb' )
          end
      end
  in
  let rank = function
    | Reset.Computing (Settled s) -> Some s.rank
    | Reset.Computing (Unsettled _) | Reset.Resetting _ -> None
  in
  {
    Engine.Protocol.name = "Optimal-Silent-SSR";
    n;
    transition;
    deterministic = true;
    equal;
    pp;
    rank;
    (* [leader_from_rank rank], without the [Some] that [rank] allocates. *)
    is_leader = (function Reset.Computing (Settled { rank = 1; _ }) -> true | _ -> false);
  }

let states ~(params : Params.optimal_silent) ~n =
  (3 * n) + (params.Params.e_max + 1) + (2 * (params.Params.r_max + params.Params.d_max + 1))

(* A propagating agent (resetcount > 0) never reads its delaytimer: the
   timer is frozen while the wave propagates and overwritten with D_max the
   moment the agent turns dormant (Protocol 2, line 7). States differing
   only in that frozen timer are therefore bisimilar, and the Table 1 count
   2·(R_max + D_max + 1) counts the equivalence classes. [normalize] maps
   onto the canonical representative (propagating => delaytimer = D_max). *)
let normalize ~(params : Params.optimal_silent) = function
  | Reset.Resetting r when r.Reset.resetcount > 0 ->
      Reset.Resetting { r with Reset.delaytimer = params.Params.d_max }
  | (Reset.Resetting _ | Reset.Computing _) as s -> s

let enumerable ?params ~n () : state Engine.Enumerable.t =
  let params = match params with Some p -> p | None -> Params.optimal_silent n in
  let protocol = protocol ~params ~n () in
  let r_max = params.Params.r_max
  and d_max = params.Params.d_max
  and e_max = params.Params.e_max in
  let settleds =
    List.concat_map
      (fun rank -> List.init 3 (fun children -> settled ~rank:(rank + 1) ~children))
      (List.init n Fun.id)
  in
  let unsettleds = List.init (e_max + 1) (fun errorcount -> unsettled ~errorcount) in
  let resettings =
    List.concat_map
      (fun leader ->
        List.init r_max (fun c -> resetting ~leader ~resetcount:(c + 1) ~delaytimer:d_max)
        @ List.init (d_max + 1) (fun delaytimer -> resetting ~leader ~resetcount:0 ~delaytimer))
      [ false; true ]
  in
  let invariants =
    [
      {
        Engine.Enumerable.iname = "settled-rank-in-1..n";
        holds =
          (function
          | Reset.Computing (Settled s) -> s.rank >= 1 && s.rank <= n
          | Reset.Computing (Unsettled _) | Reset.Resetting _ -> true);
      };
      {
        Engine.Enumerable.iname = "children-in-0..2";
        holds =
          (function
          | Reset.Computing (Settled s) -> s.children >= 0 && s.children <= 2
          | Reset.Computing (Unsettled _) | Reset.Resetting _ -> true);
      };
      {
        Engine.Enumerable.iname = "errorcount<=E_max";
        holds =
          (function
          | Reset.Computing (Unsettled u) -> u.errorcount >= 0 && u.errorcount <= e_max
          | Reset.Computing (Settled _) | Reset.Resetting _ -> true);
      };
      {
        Engine.Enumerable.iname = "resetcount<=R_max";
        holds =
          (function
          | Reset.Resetting r -> r.Reset.resetcount >= 0 && r.Reset.resetcount <= r_max
          | Reset.Computing _ -> true);
      };
      {
        Engine.Enumerable.iname = "delaytimer<=D_max";
        holds =
          (function
          | Reset.Resetting r -> r.Reset.delaytimer >= 0 && r.Reset.delaytimer <= d_max
          | Reset.Computing _ -> true);
      };
    ]
  in
  (* Field decomposition for the kernel compiler: the kind discriminant
     plus each record component, with inapplicable components reading 0.
     The packed product space is much larger than the declared space (all
     cross-kind counter combinations are junk); dead-code elimination
     prunes it back down to the declared states. *)
  let fields =
    [
      {
        Engine.Enumerable.fname = "kind";
        frange = 3;
        fget =
          (function
          | Reset.Computing (Settled _) -> 0
          | Reset.Computing (Unsettled _) -> 1
          | Reset.Resetting _ -> 2);
      };
      {
        Engine.Enumerable.fname = "rank";
        frange = n + 1;
        fget = (function Reset.Computing (Settled s) -> s.rank | _ -> 0);
      };
      {
        Engine.Enumerable.fname = "children";
        frange = 3;
        fget = (function Reset.Computing (Settled s) -> s.children | _ -> 0);
      };
      {
        Engine.Enumerable.fname = "errorcount";
        frange = e_max + 1;
        fget = (function Reset.Computing (Unsettled u) -> u.errorcount | _ -> 0);
      };
      {
        Engine.Enumerable.fname = "resetcount";
        frange = r_max + 1;
        fget = (function Reset.Resetting r -> r.Reset.resetcount | _ -> 0);
      };
      {
        Engine.Enumerable.fname = "delaytimer";
        frange = d_max + 1;
        fget = (function Reset.Resetting r -> r.Reset.delaytimer | _ -> 0);
      };
      {
        Engine.Enumerable.fname = "leader";
        frange = 2;
        fget = (function Reset.Resetting r -> Bool.to_int r.Reset.payload | _ -> 0);
      };
    ]
  in
  Engine.Enumerable.make ~protocol
    ~states:(settleds @ unsettleds @ resettings)
    ~normalize:(normalize ~params) ~invariants
    ~expectation:Engine.Enumerable.Silent_stabilizing ~declared_count:(states ~params ~n) ~fields
    ()

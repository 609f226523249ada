type 'p resetting = { resetcount : int; delaytimer : int; payload : 'p }

type ('c, 'p) role = Computing of 'c | Resetting of 'p resetting

type ('c, 'p) spec = {
  r_max : int;
  d_max : int;
  recruit_payload : Prng.t -> 'p;
  propagating_tick : Prng.t -> 'p -> 'p;
  dormant_tick : Prng.t -> 'p -> 'p;
  resetting_pair : Prng.t -> 'p -> 'p -> 'p * 'p;
  awaken : Prng.t -> 'p -> 'c;
}

let trigger ~spec payload =
  Resetting { resetcount = spec.r_max; delaytimer = spec.d_max; payload }

let is_propagating = function Resetting r -> r.resetcount > 0 | Computing _ -> false

let is_resetting = function Resetting _ -> true | Computing _ -> false

(* The state an agent brings into lines 4–12 of Protocol 2 once lines 1–3
   have run: its own resetcount and delaytimer, or [resetcount = 0],
   [delaytimer = D_max] and a fresh payload for a computing agent just
   recruited. *)
let entry_count = function Resetting r -> r.resetcount | Computing _ -> 0

let entry_delay ~spec = function Resetting r -> r.delaytimer | Computing _ -> spec.d_max

let entry_payload ~spec rng = function
  | Resetting r -> r.payload
  | Computing _ -> spec.recruit_payload rng

(* Lines 6–8: the delaytimer of an agent ending the interaction dormant. *)
let dormant_delay ~spec role =
  if entry_count role > 0 then spec.d_max (* just became dormant *)
  else Int.max (entry_delay ~spec role - 1) 0

let resetting resetcount delaytimer payload = Resetting { resetcount; delaytimer; payload }

(* Each side's final resetcount, delaytimer and payload are computed before
   its state is built, so a side costs one [Resetting] record, and the
   spec's closures run in the order [reset.mli] promises. *)
let step ~spec rng ra rb =
  match (ra, rb) with
  | Computing _, Computing _ -> (ra, rb)
  (* A dormant agent meeting a computing one recruits no one, keeps
     resetcount 0, and awakens because its partner computes (lines 9–12);
     the partner is untouched. *)
  | Resetting x, Computing _ when x.resetcount = 0 -> (Computing (spec.awaken rng x.payload), rb)
  | Computing _, Resetting y when y.resetcount = 0 -> (ra, Computing (spec.awaken rng y.payload))
  | _ ->
      (* Every other pair has both ends Resetting after recruitment
         (lines 1–3: a computing end here meets a propagating partner).
         Lines 4–5 move both resetcounts to max(a−1, b−1, 0). *)
      let count = Int.max (Int.max (entry_count ra - 1) (entry_count rb - 1)) 0 in
      if count > 0 then begin
        let pa = spec.propagating_tick rng (entry_payload ~spec rng ra) in
        let pb = spec.propagating_tick rng (entry_payload ~spec rng rb) in
        (* Pairwise payload interaction (e.g. L,L → L,F) when both ends are
           still Resetting, matching Protocol 3's order. *)
        let pa, pb = spec.resetting_pair rng pa pb in
        (resetting count (entry_delay ~spec ra) pa, resetting count (entry_delay ~spec rb) pb)
      end
      else begin
        (* Lines 6–12: both ends dormant; each awakens when its timer
           expires or its partner was computing. *)
        let da = dormant_delay ~spec ra and db = dormant_delay ~spec rb in
        let wake_a = da = 0 || not (is_resetting rb) and wake_b = db = 0 || not (is_resetting ra) in
        let pa = entry_payload ~spec rng ra in
        if wake_a then begin
          let a' = Computing (spec.awaken rng pa) in
          let pb = entry_payload ~spec rng rb in
          let b' =
            if wake_b then Computing (spec.awaken rng pb)
            else resetting 0 db (spec.dormant_tick rng pb)
          in
          (a', b')
        end
        else begin
          let pa = spec.dormant_tick rng pa in
          let pb = entry_payload ~spec rng rb in
          if wake_b then (resetting 0 da pa, Computing (spec.awaken rng pb))
          else begin
            let pb = spec.dormant_tick rng pb in
            let pa, pb = spec.resetting_pair rng pa pb in
            (resetting 0 da pa, resetting 0 db pb)
          end
        end
      end

let equal_role eq_c eq_p x y =
  match (x, y) with
  | Computing a, Computing b -> eq_c a b
  | Resetting a, Resetting b ->
      a.resetcount = b.resetcount && a.delaytimer = b.delaytimer && eq_p a.payload b.payload
  | Computing _, Resetting _ | Resetting _, Computing _ -> false

let pp_role pp_c pp_p fmt = function
  | Computing c -> Format.fprintf fmt "Computing(%a)" pp_c c
  | Resetting r ->
      Format.fprintf fmt "Resetting(count=%d, delay=%d, %a)" r.resetcount r.delaytimer pp_p
        r.payload

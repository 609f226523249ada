(* Differential tests for the agent engine's hot path.

   [Sim.step] skips the array write and the Monitor update of a side the
   transition returns physically unchanged, draws its pair without a
   tuple, and keeps the last pair in two int fields; the compiled
   kernel's dynamic path reuses an input's code when the source
   transition returns that input; [Reset.step] builds each side's state
   once from its final fields. Each is checked against the plain version
   it replaced, kept here as the oracle:

   - a reference step (draw with [Prng.distinct_pair] or the custom
     sampler, unconditional write-back, two [Monitor.update]s), compared
     with [Sim] after every step on several protocols;
   - a reference kernel transition that always re-encodes with
     [Repr.encode];
   - the earlier [Reset.step], compared on pairs with a Resetting side
     for outputs, draws and the order of the spec's closure calls;
   - two events files checked in from before the change, regenerated
     byte for byte through [ssr_sim]. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Reference step ------------------------------------------------- *)

type 'a reference = {
  protocol : 'a Engine.Protocol.t;
  states : 'a array;
  rng : Prng.t;
  sampler : Prng.t -> int * int;
  monitor : 'a Engine.Monitor.t;
  mutable last_pair : (int * int) option;
  mutable changed_sides : int;  (* outputs not physically equal to their input *)
}

let reference ?sampler (protocol : 'a Engine.Protocol.t) init rng =
  let n = protocol.Engine.Protocol.n in
  let states = Array.copy init in
  {
    protocol;
    states;
    rng;
    sampler = (match sampler with Some s -> s | None -> fun rng -> Prng.distinct_pair rng n);
    monitor = Engine.Monitor.create protocol states;
    last_pair = None;
    changed_sides = 0;
  }

let reference_step r =
  let i, j = r.sampler r.rng in
  let a = r.states.(i) and b = r.states.(j) in
  let a', b' = r.protocol.Engine.Protocol.transition r.rng a b in
  r.states.(i) <- a';
  r.states.(j) <- b';
  Engine.Monitor.update r.monitor ~old_state:a ~new_state:a';
  Engine.Monitor.update r.monitor ~old_state:b ~new_state:b';
  if a' != a then r.changed_sides <- r.changed_sides + 1;
  if b' != b then r.changed_sides <- r.changed_sides + 1;
  r.last_pair <- Some (i, j)

(* [None] when [Sim] and the reference agree, or the first difference. *)
let difference sim r =
  let module M = Engine.Monitor in
  let n = Engine.Sim.n sim in
  let rec first_state i =
    if i = n then None
    else if r.protocol.Engine.Protocol.equal (Engine.Sim.state sim i) r.states.(i) then
      first_state (i + 1)
    else Some (Printf.sprintf "agent %d" i)
  in
  if Engine.Sim.last_pair sim <> r.last_pair then Some "last_pair"
  else if Engine.Sim.ranking_correct sim <> M.ranking_correct r.monitor then Some "ranking_correct"
  else if Engine.Sim.leader_correct sim <> M.leader_correct r.monitor then Some "leader_correct"
  else if Engine.Sim.leader_count sim <> M.leader_count r.monitor then Some "leader_count"
  else if Engine.Sim.ranked_agents sim <> M.ranked_agents r.monitor then Some "ranked_agents"
  else if Engine.Sim.monitor_updates sim <> n + (2 * r.changed_sides) then
    (* The monitor counts only the updates actually performed: the
       initial scan plus one remove and one add per changed side. *)
    Some "monitor_updates"
  else first_state 0

(* Step [Sim] over [protocol] and the reference step over [oracle]
   (default: the same protocol) side by side from the same seed, comparing
   after every step. *)
let agrees ?sampler ?oracle protocol init ~seed ~steps =
  let sim =
    match sampler with
    | None -> Engine.Sim.make ~protocol ~init ~rng:(Prng.create ~seed)
    | Some sampler -> Engine.Sim.make_with ~sampler ~protocol ~init ~rng:(Prng.create ~seed)
  in
  let oracle = Option.value oracle ~default:protocol in
  let r = reference ?sampler oracle init (Prng.create ~seed) in
  let rec go k =
    if k > steps then true
    else
      match difference sim r with
      | Some what -> QCheck.Test.fail_reportf "%s differs after %d steps" what k
      | None ->
          Engine.Sim.step sim;
          reference_step r;
          go (k + 1)
  in
  check_bool "no pair before the first step" true (Engine.Sim.last_pair sim = None);
  go 0 && Engine.Sim.interactions sim = steps + 1

let random_config rng states ~n = Array.init n (fun _ -> Prng.pick rng states)

let gen_case = QCheck.(triple small_int (int_range 2 24) (int_range 1 2000))

let differential name ~count build =
  QCheck.Test.make ~name ~count gen_case (fun (seed, n, steps) -> build ~seed ~n ~steps)

let silent_case ~seed ~n ~steps =
  let init = Core.Scenarios.silent_uniform (Prng.create ~seed:(seed + 1)) ~n in
  agrees (Core.Silent_n_state.protocol ~n) init ~seed ~steps

(* Random configurations over the whole declared space, so resets, rank
   collisions and starvation alarms all occur. *)
let optimal_states ~n =
  Array.of_list (Core.Optimal_silent.enumerable ~n ()).Engine.Enumerable.states

let optimal_case ~seed ~n ~steps =
  let init = random_config (Prng.create ~seed:(seed + 1)) (optimal_states ~n) ~n in
  agrees (Core.Optimal_silent.protocol ~n ()) init ~seed ~steps

(* Silent-n-state over boxed states whose transition, on a coin flip,
   returns a fresh but structurally equal copy of an unchanged input. The
   engine must treat the copy as a change and stay correct; the coin also
   interleaves transition draws with pair draws. *)
type boxed = { rank0 : int }

let boxed_protocol ~n : boxed Engine.Protocol.t =
  let inner = Core.Silent_n_state.protocol ~n in
  let rebox rng input out = if out = input.rank0 && Prng.bool rng then input else { rank0 = out } in
  let transition rng a b =
    let a', b' =
      inner.Engine.Protocol.transition rng
        (Core.Silent_n_state.state_of_rank0 ~n a.rank0)
        (Core.Silent_n_state.state_of_rank0 ~n b.rank0)
    in
    let a' = rebox rng a (a' :> int) in
    let b' = rebox rng b (b' :> int) in
    (a', b')
  in
  let rank s = Some (s.rank0 + 1) in
  {
    Engine.Protocol.name = "boxed-silent";
    n;
    transition;
    deterministic = false;
    equal = (fun x y -> x.rank0 = y.rank0);
    pp = (fun fmt s -> Format.pp_print_int fmt s.rank0);
    rank;
    is_leader = Engine.Protocol.leader_from_rank rank;
  }

let boxed_case ~seed ~n ~steps =
  let rng = Prng.create ~seed:(seed + 1) in
  let init = Array.init n (fun _ -> { rank0 = Prng.int rng n }) in
  agrees (boxed_protocol ~n) init ~seed ~steps

(* A custom scheduler through [make_with]: the ring's edges. *)
let sampler_case ~seed ~n ~steps =
  let n = max n 3 in
  let init = random_config (Prng.create ~seed:(seed + 1)) (optimal_states ~n) ~n in
  let sampler = Engine.Topology.sampler (Engine.Topology.ring ~n) in
  agrees ~sampler (Core.Optimal_silent.protocol ~n ()) init ~seed ~steps

(* --- Compiled kernel, dynamic path --------------------------------- *)

(* With no memo table every compiled step takes the dynamic path. *)
let dynamic_kernel ~n = Ir.Kernel.compile ~max_cells:0 (Core.Optimal_silent.enumerable ~n ())

(* The dynamic transition as it was: decode, run the source, re-encode
   both outputs with [Repr.encode]. *)
let reencoding (k : 'a Ir.Kernel.t) : int Engine.Protocol.t =
  let transition rng ci cj =
    let a', b' =
      k.Ir.Kernel.source.Engine.Protocol.transition rng (Ir.Kernel.decode k ci)
        (Ir.Kernel.decode k cj)
    in
    (Ir.encode k.Ir.Kernel.ir a', Ir.encode k.Ir.Kernel.ir b')
  in
  { k.Ir.Kernel.compiled with Engine.Protocol.transition }

let kernel_case ~seed ~n ~steps =
  let k = dynamic_kernel ~n in
  let codes = Array.init (Ir.Kernel.states k) Fun.id in
  let init = random_config (Prng.create ~seed:(seed + 1)) codes ~n in
  agrees ~oracle:(reencoding k) k.Ir.Kernel.compiled init ~seed ~steps

(* Code reuse is sound because every code is the encoding of its own
   decoding. *)
let test_codes_round_trip () =
  List.iter
    (fun n ->
      let k = dynamic_kernel ~n in
      check_bool "memo table skipped" true (k.Ir.Kernel.ir.Ir.table = None);
      for c = 0 to Ir.Kernel.states k - 1 do
        check_int (Printf.sprintf "n=%d code %d" n c) c
          (Ir.encode k.Ir.Kernel.ir (Ir.Kernel.decode k c))
      done)
    [ 2; 5; 16 ]

(* A null Settled x Settled pair keeps both codes on the dynamic path and
   both states in the interpreter. *)
let test_null_pair_identity () =
  let n = 8 in
  let k = dynamic_kernel ~n in
  let a = Core.Optimal_silent.settled ~rank:2 ~children:1
  and b = Core.Optimal_silent.settled ~rank:5 ~children:0 in
  let p = Core.Optimal_silent.protocol ~n () in
  let rng = Prng.create ~seed:3 in
  let a', b' = p.Engine.Protocol.transition rng a b in
  check_bool "interpreted sides returned as is" true (a' == a && b' == b);
  let ca = Ir.Kernel.encode k a and cb = Ir.Kernel.encode k b in
  let before = !(k.Ir.Kernel.dynamic_steps) in
  let ca', cb' = Ir.Kernel.step k rng ca cb in
  check_int "dynamic step taken" (before + 1) !(k.Ir.Kernel.dynamic_steps);
  check_bool "codes kept" true (ca' = ca && cb' = cb)

(* --- Propagate-Reset step ------------------------------------------ *)

(* [Reset.step] as it was before it built each side's state once: polymorphic
   [max], an optional joint count, and a rebuild of both sides after
   [resetting_pair]. Kept verbatim as the oracle. *)
module Reference_reset = struct
  open Core.Reset

  let step_side ~spec rng role ~partner_propagating ~partner_was_computing ~joint_count =
    (* Lines 1–3: recruitment of a computing agent by a propagating one. *)
    let role =
      match role with
      | Computing _ when partner_propagating ->
          Resetting { resetcount = 0; delaytimer = spec.d_max; payload = spec.recruit_payload rng }
      | Computing _ | Resetting _ -> role
    in
    match role with
    | Computing _ -> role
    | Resetting r -> begin
        (* Lines 4–5: when both ends are Resetting, both resetcounts move to
           max(a−1, b−1, 0), precomputed by the caller as [joint_count]. *)
        let old_count = r.resetcount in
        let r =
          match joint_count with
          | Some c -> { r with resetcount = c }
          | None -> r
        in
        if r.resetcount > 0 then
          Resetting { r with payload = spec.propagating_tick rng r.payload }
        else begin
          (* Lines 6–12: dormant bookkeeping and possible awakening. *)
          let delaytimer =
            if old_count > 0 then spec.d_max (* just became dormant *)
            else max (r.delaytimer - 1) 0
          in
          if delaytimer = 0 || partner_was_computing then Computing (spec.awaken rng r.payload)
          else Resetting { r with delaytimer; payload = spec.dormant_tick rng r.payload }
        end
      end

  let step ~spec rng ra rb =
    match (ra, rb) with
    | Computing _, Computing _ -> (ra, rb)
    | _ -> begin
        let a_propagating = is_propagating ra and b_propagating = is_propagating rb in
        let a_was_computing = not (is_resetting ra) and b_was_computing = not (is_resetting rb) in
        (* Both ends Resetting after recruitment ⇔ each end is Resetting or
           has a propagating partner. *)
        let both_resetting =
          (is_resetting ra || b_propagating) && (is_resetting rb || a_propagating)
        in
        let joint_count =
          if not both_resetting then None
          else begin
            let count = function
              | Resetting r -> r.resetcount
              | Computing _ -> 0 (* just recruited: resetcount 0 *)
            in
            Some (max (max (count ra - 1) (count rb - 1)) 0)
          end
        in
        let ra' =
          step_side ~spec rng ra ~partner_propagating:b_propagating
            ~partner_was_computing:b_was_computing ~joint_count
        in
        let rb' =
          step_side ~spec rng rb ~partner_propagating:a_propagating
            ~partner_was_computing:a_was_computing ~joint_count
        in
        (* Pairwise payload interaction (e.g. L,L → L,F) when both ends are
           still Resetting after any awakening, matching Protocol 3's order. *)
        match (ra', rb') with
        | Resetting x, Resetting y ->
            let px, py = spec.resetting_pair rng x.payload y.payload in
            (Resetting { x with payload = px }, Resetting { y with payload = py })
        | _ -> (ra', rb')
      end
end

(* The specs of the protocols under test, as the protocols build them
   ([spec] is not exported). *)
let optimal_spec ~(params : Core.Params.optimal_silent) :
    (Core.Optimal_silent.computing, bool) Core.Reset.spec =
  {
    Core.Reset.r_max = params.Core.Params.r_max;
    d_max = params.Core.Params.d_max;
    recruit_payload = (fun _rng -> true);
    propagating_tick = (fun _rng leader -> leader);
    dormant_tick = (fun _rng leader -> leader);
    resetting_pair = (fun _rng la lb -> if la && lb then (true, false) else (la, lb));
    awaken =
      (fun _rng leader ->
        if leader then Core.Optimal_silent.Settled { rank = 1; children = 0 }
        else Core.Optimal_silent.Unsettled { errorcount = params.Core.Params.e_max });
  }

let probe_spec ~r_max ~d_max : (unit, unit) Core.Reset.spec =
  {
    Core.Reset.r_max;
    d_max;
    recruit_payload = (fun _rng -> ());
    propagating_tick = (fun _rng () -> ());
    dormant_tick = (fun _rng () -> ());
    resetting_pair = (fun _rng () () -> ((), ()));
    awaken = (fun _rng () -> ());
  }

let sublinear_spec ~(params : Core.Params.sublinear) :
    (Core.Sublinear.collecting, Core.Name.t) Core.Reset.spec =
  {
    Core.Reset.r_max = params.Core.Params.r_max;
    d_max = params.Core.Params.d_max;
    recruit_payload = (fun _rng -> Core.Name.empty);
    propagating_tick = (fun _rng _name -> Core.Name.empty);
    dormant_tick =
      (fun rng name ->
        if Core.Name.length name < params.Core.Params.name_bits then
          Core.Name.append_bit name (Prng.bool rng)
        else name);
    resetting_pair = (fun _rng na nb -> (na, nb));
    awaken =
      (fun _rng name ->
        {
          Core.Sublinear.name;
          rank = 1;
          roster = Core.Roster.singleton name;
          tree = Core.History_tree.empty;
        });
  }

(* [transition] on (a, b) against [Reference_reset.step ~spec] from copies
   of one generator: equal outputs, and the same next four draws, which
   pins how many draws each made. *)
let same_step ~equal ~pp ~spec ~transition ~seed a b =
  let rng = Prng.create ~seed in
  let rng_ref = Prng.copy rng in
  let a', b' = transition rng a b in
  let ra', rb' = Reference_reset.step ~spec rng_ref a b in
  let next g = List.init 4 (fun _ -> Prng.bits64 g) in
  (equal a' ra' && equal b' rb' && next rng = next rng_ref)
  || QCheck.Test.fail_reportf "(%a, %a) -> (%a, %a), reference (%a, %a)" pp a pp b pp a' pp b' pp
       ra' pp rb'

(* One Resetting state from [resettings] and one from [all], [swap]
   deciding which side is which. *)
let pick_pair ~resettings ~all (swap, i, j, _) =
  let r = resettings.(i mod Array.length resettings) and s = all.(j mod Array.length all) in
  if swap then (s, r) else (r, s)

let optimal_reset_case ~n =
  let params = Core.Params.optimal_silent n in
  let all = Array.of_list (Core.Optimal_silent.enumerable ~params ~n ()).Engine.Enumerable.states in
  let resettings = Array.of_list (List.filter Core.Reset.is_resetting (Array.to_list all)) in
  let p = Core.Optimal_silent.protocol ~params ~n () in
  (* Indices drawn over the whole space, not just small ones. *)
  let gen =
    QCheck.(
      quad bool
        (int_bound (Array.length resettings - 1))
        (int_bound (Array.length all - 1))
        small_nat)
  in
  QCheck.Test.make ~name:(Printf.sprintf "Reset.step = reference: Optimal-Silent n=%d" n)
    ~count:2000 gen (fun ((_, _, _, seed) as c) ->
      let a, b = pick_pair ~resettings ~all c in
      same_step ~equal:Core.Optimal_silent.equal ~pp:Core.Optimal_silent.pp
        ~spec:(optimal_spec ~params) ~transition:p.Engine.Protocol.transition ~seed a b)

(* Small R_max and D_max reach the edges: a recruit whose timer starts at
   D_max − 1 = 0, a propagating agent turning dormant at count 1. *)
let probe_reset_case =
  QCheck.Test.make ~name:"Reset.step = reference: Reset_probe" ~count:1000
    QCheck.(pair (pair (int_range 1 4) (int_range 1 4)) (quad bool small_nat small_nat small_nat))
    (fun ((r_max, d_max), c) ->
      let all =
        Array.of_list (Core.Reset_probe.enumerable ~r_max ~d_max ~n:4 ()).Engine.Enumerable.states
      in
      let resettings = Array.of_list (List.filter Core.Reset.is_resetting (Array.to_list all)) in
      let p = Core.Reset_probe.protocol ~r_max ~d_max ~n:4 () in
      let a, b = pick_pair ~resettings ~all c in
      let _, _, _, seed = c in
      same_step ~equal:Core.Reset_probe.equal ~pp:Core.Reset_probe.pp
        ~spec:(probe_spec ~r_max ~d_max)
        ~transition:p.Engine.Protocol.transition ~seed a b)

(* Sublinear's dormant tick draws a name bit, so the draw order shows. *)
let sublinear_reset_case =
  let n = 16 and h = 1 in
  let params = Core.Params.sublinear ~h n in
  let p = Core.Sublinear.protocol ~params ~n ~h () in
  let bits = params.Core.Params.name_bits in
  let gen_state seed =
    let rng = Prng.create ~seed in
    if Prng.int rng 3 = 0 then Core.Sublinear.fresh rng ~params
    else
      let len = Prng.int rng (bits + 1) in
      Core.Sublinear.resetting
        ~name:(Core.Name.of_int ~bits:(Prng.bits rng ~width:len) ~len)
        ~resetcount:(Prng.int rng (params.Core.Params.r_max + 1))
        ~delaytimer:(Prng.int rng (params.Core.Params.d_max + 1))
  in
  QCheck.Test.make ~name:"Reset.step = reference: Sublinear, real Prng" ~count:2000
    QCheck.(triple small_nat small_nat small_nat)
    (fun (sa, sb, seed) ->
      let a = gen_state sa and b = gen_state (sb + 1_000_003) in
      QCheck.assume (Core.Reset.is_resetting a || Core.Reset.is_resetting b);
      same_step ~equal:Core.Sublinear.equal ~pp:Core.Sublinear.pp ~spec:(sublinear_spec ~params)
        ~transition:p.Engine.Protocol.transition ~seed a b)

(* A spec whose every closure logs its name and draws: a change in which
   closures run, or in their order, shows in the log, the payloads and the
   stream. *)
let traced_spec log ~r_max ~d_max : (int, int) Core.Reset.spec =
  let call name rng =
    log := name :: !log;
    Prng.int rng 1000
  in
  {
    Core.Reset.r_max;
    d_max;
    recruit_payload = (fun rng -> call "recruit" rng);
    propagating_tick = (fun rng p -> p + call "propagating" rng);
    dormant_tick = (fun rng p -> p + call "dormant" rng);
    resetting_pair =
      (fun rng pa pb ->
        let d = call "pair" rng in
        (pa + d, pb - d));
    awaken = (fun rng p -> p + call "awaken" rng);
  }

let traced_reset_case =
  let gen_role =
    QCheck.(
      map
        (fun (computing, c, d, p) ->
          if computing then Core.Reset.Computing p
          else Core.Reset.Resetting { Core.Reset.resetcount = c; delaytimer = d; payload = p })
        (quad bool (int_bound 4) (int_bound 4) small_nat))
  in
  QCheck.Test.make ~name:"Reset.step = reference: closure call order" ~count:2000
    QCheck.(quad (int_range 1 4) (int_range 1 4) (pair gen_role gen_role) small_nat)
    (fun (r_max, d_max, (a, b), seed) ->
      let clamp = function
        | Core.Reset.Resetting r ->
            Core.Reset.Resetting
              {
                r with
                resetcount = Int.min r.resetcount r_max;
                delaytimer = Int.min r.delaytimer d_max;
              }
        | Core.Reset.Computing _ as c -> c
      in
      let a = clamp a and b = clamp b in
      let log = ref [] and log_ref = ref [] in
      let equal = Core.Reset.equal_role Int.equal Int.equal in
      let pp = Core.Reset.pp_role Format.pp_print_int Format.pp_print_int in
      same_step ~equal ~pp
        ~spec:(traced_spec log_ref ~r_max ~d_max)
        ~transition:(Core.Reset.step ~spec:(traced_spec log ~r_max ~d_max))
        ~seed a b
      && (!log = !log_ref
         || QCheck.Test.fail_reportf "calls [%s], reference [%s]"
              (String.concat "; " (List.rev !log))
              (String.concat "; " (List.rev !log_ref))))

let test_computing_pair_unchanged () =
  let spec = optimal_spec ~params:(Core.Params.optimal_silent 8) in
  let a = Core.Optimal_silent.settled ~rank:3 ~children:0
  and b = Core.Optimal_silent.unsettled ~errorcount:4 in
  let a', b' = Core.Reset.step ~spec (Prng.create ~seed:1) a b in
  check_bool "Computing x Computing returned as is" true (a' == a && b' == b)

(* An R x R step builds one [Resetting] per side (two records of 2 + 4
   words) and two tuples, [resetting_pair]'s and the result: at most 18
   minor words. *)
let test_reset_step_allocation () =
  let n = 64 in
  let p = Core.Optimal_silent.protocol ~n () in
  let rng = Prng.create ~seed:9 in
  let r = Core.Optimal_silent.resetting in
  let calls = 100_000 in
  List.iter
    (fun (what, a, b) ->
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (p.Engine.Protocol.transition rng a b))
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int calls in
      check_bool (Printf.sprintf "%s: %.1f minor words per call" what words) true (words <= 18.0))
    [
      ( "dormant F,L",
        r ~leader:false ~resetcount:0 ~delaytimer:5,
        r ~leader:true ~resetcount:0 ~delaytimer:7 );
      ( "dormant L,L",
        r ~leader:true ~resetcount:0 ~delaytimer:5,
        r ~leader:true ~resetcount:0 ~delaytimer:7 );
      ( "propagating F,L",
        r ~leader:false ~resetcount:3 ~delaytimer:9,
        r ~leader:true ~resetcount:2 ~delaytimer:4 );
    ]

(* --- Golden events files ------------------------------------------- *)

(* Both files were generated before the hot-path rewrite; regenerating
   them byte for byte pins the random stream and every trajectory that
   feeds an event. *)

(* dune runtest runs in _build/default/test; dune exec from the
   repository root does not chdir. Absolute, because create_process does
   a PATH search on bare names. *)
let ssr_sim () =
  let candidates = [ "../bin/ssr_sim.exe"; "_build/default/bin/ssr_sim.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> Filename.concat (Sys.getcwd ()) exe
  | None -> Alcotest.fail "ssr_sim.exe not found (dune deps)"

let check_events_golden ~golden args () =
  let want = Test_ir.read_file golden in
  let dir = Filename.temp_dir "hotpath_events" "" in
  let events = Filename.concat dir "events.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let exe = ssr_sim () in
      let argv = Array.of_list ((exe :: args) @ [ "--events"; events ]) in
      let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
      let pid =
        Fun.protect
          ~finally:(fun () -> Unix.close null)
          (fun () -> Unix.create_process exe argv Unix.stdin null Unix.stderr)
      in
      let _, status = Unix.waitpid [] pid in
      check_bool "ssr_sim exits 0" true (status = Unix.WEXITED 0);
      Alcotest.(check string)
        (golden ^ " regenerated byte for byte")
        want (Test_ir.read_file events))

let suite =
  [
    QCheck_alcotest.to_alcotest
      (differential "Sim.step = reference step: Silent-n-state" ~count:60 silent_case);
    QCheck_alcotest.to_alcotest
      (differential "Sim.step = reference step: Optimal-Silent" ~count:60 optimal_case);
    QCheck_alcotest.to_alcotest
      (differential "Sim.step = reference step: fresh equal states" ~count:60 boxed_case);
    QCheck_alcotest.to_alcotest
      (differential "Sim.step = reference step: make_with ring sampler" ~count:40 sampler_case);
    QCheck_alcotest.to_alcotest
      (differential "compiled dynamic path = re-encoding reference" ~count:30 kernel_case);
    Alcotest.test_case "compiled codes round-trip through decode/encode" `Quick
      test_codes_round_trip;
    Alcotest.test_case "null pair keeps states and codes" `Quick test_null_pair_identity;
    QCheck_alcotest.to_alcotest (optimal_reset_case ~n:8);
    QCheck_alcotest.to_alcotest (optimal_reset_case ~n:64);
    QCheck_alcotest.to_alcotest probe_reset_case;
    QCheck_alcotest.to_alcotest sublinear_reset_case;
    QCheck_alcotest.to_alcotest traced_reset_case;
    Alcotest.test_case "Reset.step returns a Computing pair as is" `Quick
      test_computing_pair_unchanged;
    Alcotest.test_case "Optimal-Silent R x R step: <= 18 minor words" `Quick
      test_reset_step_allocation;
    Alcotest.test_case "golden events: ssr_sim -p optimal -n 32 --seed 5" `Quick
      (check_events_golden ~golden:"golden/events_optimal_n32_s5.jsonl"
         [ "-p"; "optimal"; "-n"; "32"; "--seed"; "5" ]);
    Alcotest.test_case "golden events: compiled chaos soak n=32" `Quick
      (check_events_golden ~golden:"golden/events_chaos_compiled_n32_s5.jsonl"
         [ "-p"; "optimal"; "-n"; "32"; "--seed"; "5"; "--kernel"; "compiled"; "--chaos";
           "poisson:0.2,corrupt:0.1" ]);
  ]

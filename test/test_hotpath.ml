(* Differential tests for the agent engine's hot path.

   [Sim.step] skips the array write and the Monitor update of a side the
   transition returns physically unchanged, draws its pair without a
   tuple, and keeps the last pair in two int fields; the compiled
   kernel's dynamic path reuses an input's code when the source
   transition returns that input. Each is checked against the plain
   version it replaced, kept here as the oracle:

   - a reference step (draw with [Prng.distinct_pair] or the custom
     sampler, unconditional write-back, two [Monitor.update]s), compared
     with [Sim] after every step on several protocols;
   - a reference kernel transition that always re-encodes with
     [Repr.encode];
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
    Alcotest.test_case "golden events: ssr_sim -p optimal -n 32 --seed 5" `Quick
      (check_events_golden ~golden:"golden/events_optimal_n32_s5.jsonl"
         [ "-p"; "optimal"; "-n"; "32"; "--seed"; "5" ]);
    Alcotest.test_case "golden events: compiled chaos soak n=32" `Quick
      (check_events_golden ~golden:"golden/events_chaos_compiled_n32_s5.jsonl"
         [ "-p"; "optimal"; "-n"; "32"; "--seed"; "5"; "--kernel"; "compiled"; "--chaos";
           "poisson:0.2,corrupt:0.1" ]);
  ]

(* Tests for the xoshiro256** generator wrapper. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b);
  (* advancing a does not advance b *)
  let _ = Prng.bits64 a in
  let a2 = Prng.bits64 a and b2 = Prng.bits64 b in
  check_bool "copy diverges after extra draw" true (not (Int64.equal a2 b2))

let test_split_differs () =
  let a = Prng.create ~seed:7 in
  let child = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 child) then incr same
  done;
  check_bool "child stream uncorrelated" true (!same < 4)

let test_split_many () =
  let a = Prng.create ~seed:9 in
  let children = Prng.split_many a 5 in
  check_int "count" 5 (Array.length children);
  let firsts = Array.map Prng.bits64 children in
  let distinct = Array.to_list firsts |> List.sort_uniq compare |> List.length in
  check_int "children distinct" 5 distinct

let test_int_bounds () =
  let g = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Prng.int g 7 in
    check_bool "in range" true (x >= 0 && x < 7)
  done

let test_int_uniform () =
  let g = Prng.create ~seed:4 in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let x = Prng.int g 8 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 8 in
      check_bool (Printf.sprintf "bucket %d balanced" i) true (abs (c - expected) < expected / 5))
    counts

let test_int_one () =
  let g = Prng.create ~seed:5 in
  for _ = 1 to 100 do
    check_int "bound 1 gives 0" 0 (Prng.int g 1)
  done

let test_int_in () =
  let g = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Prng.int_in g (-3) 3 in
    check_bool "in closed range" true (x >= -3 && x <= 3)
  done;
  check_int "degenerate range" 9 (Prng.int_in g 9 9)

let test_float_range () =
  let g = Prng.create ~seed:6 in
  for _ = 1 to 10_000 do
    let x = Prng.float g in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_bool_fair () =
  let g = Prng.create ~seed:8 in
  let heads = ref 0 in
  let trials = 40_000 in
  for _ = 1 to trials do
    if Prng.bool g then incr heads
  done;
  check_bool "roughly fair" true (abs (!heads - (trials / 2)) < trials / 20)

let test_bernoulli_extremes () =
  let g = Prng.create ~seed:9 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Prng.bernoulli g ~p:0.0);
    check_bool "p=1 always" true (Prng.bernoulli g ~p:1.0)
  done

let test_distinct_pair () =
  let g = Prng.create ~seed:10 in
  for _ = 1 to 10_000 do
    let i, j = Prng.distinct_pair g 5 in
    check_bool "distinct" true (i <> j);
    check_bool "range" true (i >= 0 && i < 5 && j >= 0 && j < 5)
  done

let test_distinct_pair_ordered_uniform () =
  let g = Prng.create ~seed:11 in
  let n = 4 in
  let counts = Hashtbl.create 16 in
  let trials = 120_000 in
  for _ = 1 to trials do
    let p = Prng.distinct_pair g n in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  check_int "all ordered pairs hit" (n * (n - 1)) (Hashtbl.length counts);
  let expected = trials / (n * (n - 1)) in
  Hashtbl.iter
    (fun _ c -> check_bool "pair frequency balanced" true (abs (c - expected) < expected / 5))
    counts

let test_permutation () =
  let g = Prng.create ~seed:12 in
  let p = Prng.permutation g 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let test_shuffle_multiset () =
  let g = Prng.create ~seed:13 in
  let a = [| 1; 1; 2; 3; 5; 8; 13 |] in
  let b = Array.copy a in
  Prng.shuffle g b;
  Array.sort compare b;
  let a' = Array.copy a in
  Array.sort compare a';
  Alcotest.(check (array int)) "multiset preserved" a' b

let test_bits () =
  let g = Prng.create ~seed:14 in
  check_int "width 0" 0 (Prng.bits g ~width:0);
  for _ = 1 to 1000 do
    let x = Prng.bits g ~width:10 in
    check_bool "10-bit range" true (x >= 0 && x < 1024)
  done;
  (* high bits must actually vary *)
  let top_set = ref false in
  for _ = 1 to 200 do
    if Prng.bits g ~width:10 >= 512 then top_set := true
  done;
  check_bool "top bit occurs" true !top_set

let test_pick () =
  let g = Prng.create ~seed:15 in
  let arr = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let v = Prng.pick g arr in
    check_bool "member" true (Array.exists (String.equal v) arr)
  done

(* Stream independence of split children. The parallel trial runner
   pre-splits one child per trial, so the children must behave like
   independent uniform streams: their pooled draws must be uniform, the
   first draw must be uniform *across* children (a weak mixing function
   would correlate child i's first output with i), and adjacent children
   must be uncorrelated. Thresholds are generous — these guard against
   gross splitmix/seeding mistakes, not statistical perfection. *)

let chi_square ~buckets counts total =
  let expected = float_of_int total /. float_of_int buckets in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0.0 counts

let test_split_many_uniform_pooled () =
  let children = Prng.split_many (Prng.create ~seed:2718) 256 in
  let buckets = 16 in
  let per_child = 64 in
  let counts = Array.make buckets 0 in
  Array.iter
    (fun child ->
      for _ = 1 to per_child do
        let b = Prng.int child buckets in
        counts.(b) <- counts.(b) + 1
      done)
    children;
  let chi2 = chi_square ~buckets counts (256 * per_child) in
  (* df = 15; 60 is far beyond the 1e-6 quantile (~44). *)
  check_bool (Printf.sprintf "pooled chi2 %.1f < 60" chi2) true (chi2 < 60.0)

let test_split_many_uniform_across_children () =
  (* One draw per child: uniformity across the child index. *)
  let children = Prng.split_many (Prng.create ~seed:3141) 256 in
  let buckets = 16 in
  let counts = Array.make buckets 0 in
  Array.iter
    (fun child ->
      let b = Prng.int child buckets in
      counts.(b) <- counts.(b) + 1)
    children;
  let chi2 = chi_square ~buckets counts 256 in
  check_bool (Printf.sprintf "first-draw chi2 %.1f < 60" chi2) true (chi2 < 60.0)

let test_split_children_uncorrelated () =
  let children = Prng.split_many (Prng.create ~seed:1618) 11 in
  let samples = 512 in
  let stream child = Array.init samples (fun _ -> Prng.float child) in
  let streams = Array.map stream children in
  let pearson xs ys =
    let mx = Stats.Summary.mean xs and my = Stats.Summary.mean ys in
    let num = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 in
    Array.iteri
      (fun i x ->
        let dx = x -. mx and dy = ys.(i) -. my in
        num := !num +. (dx *. dy);
        sx := !sx +. (dx *. dx);
        sy := !sy +. (dy *. dy))
      xs;
    !num /. sqrt (!sx *. !sy)
  in
  for i = 0 to Array.length streams - 2 do
    let r = pearson streams.(i) streams.(i + 1) in
    check_bool
      (Printf.sprintf "children %d,%d correlation %.3f small" i (i + 1) r)
      true
      (Float.abs r < 0.2)
  done

let qcheck_permutation =
  QCheck.Test.make ~name:"permutation is bijective" ~count:200
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, n) ->
      let n = max 1 n in
      let g = Prng.create ~seed in
      let p = Prng.permutation g n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.for_all Fun.id seen)

let qcheck_int_bound =
  QCheck.Test.make ~name:"int stays within bound" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let x = Prng.int g bound in
      x >= 0 && x < bound)

(* --- Input rejection ------------------------------------------------- *)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument _ -> ()

let test_rejects_bad_inputs () =
  let g = Prng.create ~seed:16 in
  check_invalid "int bound 0" (fun () -> Prng.int g 0);
  check_invalid "int negative bound" (fun () -> Prng.int g (-5));
  check_invalid "below 0" (fun () -> Prng.below 0);
  check_invalid "int_in empty range" (fun () -> Prng.int_in g 3 2);
  check_invalid "int_in range wider than max_int" (fun () -> Prng.int_in g min_int max_int);
  check_invalid "int_in range one past max_int" (fun () -> Prng.int_in g (-1) max_int);
  check_invalid "distinct_pair n=1" (fun () -> Prng.distinct_pair g 1);
  check_invalid "distinct_pair n=0" (fun () -> Prng.distinct_pair g 0);
  check_invalid "pick empty" (fun () -> Prng.pick g [||]);
  check_invalid "bits width 63" (fun () -> Prng.bits g ~width:63);
  check_invalid "bits width -1" (fun () -> Prng.bits g ~width:(-1));
  (* Rejections consume nothing: the stream continues as if untouched. *)
  let fresh = Prng.create ~seed:16 in
  Alcotest.(check int64) "stream untouched" (Prng.bits64 fresh) (Prng.bits64 g);
  (* The widest accepted ranges still work. *)
  check_bool "int_in [0, max_int - 1]" true (Prng.int_in g 0 (max_int - 1) >= 0);
  check_bool "int_in [min_int, -2]" true (Prng.int_in g min_int (-2) < -1)

(* --- Known answers -------------------------------------------------- *)

(* The first 64 outputs of each primitive for seeds 0, 1 and 42, one row
   per (seed, primitive) and a fresh generator per row, checked against
   test/golden/prng_kat.txt. The golden file was produced by the boxed
   [mutable int64] implementation the reference below preserves; it pins
   the random stream every events file and digest depends on. *)

let kat_int_bounds =
  [| 1; 2; 3; 5; 7; 10; 64; 100; 255; 256; 1000; 4095; 65537; 1_000_003; 1 lsl 30;
     (1 lsl 40) + 7; (1 lsl 61) + 1; max_int / 3; max_int |]

let kat_ranges =
  [| (-3, 3); (5, 5); (-1000, 1000); (-(1 lsl 40), 1 lsl 40); (min_int, min_int + 10);
     (max_int - 10, max_int); (0, max_int - 1) |]

let kat_pair_sizes = [| 2; 3; 4; 17; 256; 4096; 1_000_000 |]

let kat_lines seed =
  let cycle a i = a.(i mod Array.length a) in
  let row name f =
    let g = Prng.create ~seed in
    Printf.sprintf "seed %d %s%s" seed name
      (String.concat "" (List.init 64 (fun i -> " " ^ f g i)))
  in
  [
    row "bits64" (fun g _ -> Printf.sprintf "%016Lx" (Prng.bits64 g));
    row "int" (fun g i -> string_of_int (Prng.int g (cycle kat_int_bounds i)));
    row "int_in" (fun g i ->
        let lo, hi = cycle kat_ranges i in
        string_of_int (Prng.int_in g lo hi));
    row "bool" (fun g _ -> if Prng.bool g then "1" else "0");
    row "float" (fun g _ -> Printf.sprintf "%h" (Prng.float g));
    row "bits" (fun g i -> string_of_int (Prng.bits g ~width:(i mod 63)));
    row "distinct_pair" (fun g i ->
        let p, q = Prng.distinct_pair g (cycle kat_pair_sizes i) in
        Printf.sprintf "%d,%d" p q);
    row "split" (fun g _ -> Printf.sprintf "%016Lx" (Prng.bits64 (Prng.split g)));
  ]

let test_known_answers () =
  let want = String.split_on_char '\n' (String.trim (Test_ir.read_file "golden/prng_kat.txt")) in
  let got = List.concat_map kat_lines [ 0; 1; 42 ] in
  check_int "rows" (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) -> Alcotest.(check string) (Printf.sprintf "golden row %d" (i + 1)) w g)
    (List.combine want got)

(* --- Reference generator -------------------------------------------- *)

(* The xoshiro256** implementation over boxed [mutable int64] fields that
   [Prng] replaced, kept verbatim (scripted mode aside) as the oracle for
   the unboxed one. *)
module Reference = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let splitmix_next state =
    let z = Int64.add !state 0x9E3779B97F4A7C15L in
    state := z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let of_seed64 seed64 =
    let state = ref seed64 in
    let s0 = splitmix_next state in
    let s1 = splitmix_next state in
    let s2 = splitmix_next state in
    let s3 = splitmix_next state in
    { s0; s1; s2; s3 }

  let create ~seed = of_seed64 (Int64.of_int seed)

  let bits64 g =
    let result = Int64.mul (rotl (Int64.mul g.s1 5L) 7) 9L in
    let t = Int64.shift_left g.s1 17 in
    g.s2 <- Int64.logxor g.s2 g.s0;
    g.s3 <- Int64.logxor g.s3 g.s1;
    g.s1 <- Int64.logxor g.s1 g.s2;
    g.s0 <- Int64.logxor g.s0 g.s3;
    g.s2 <- Int64.logxor g.s2 t;
    g.s3 <- rotl g.s3 45;
    result

  let split g = of_seed64 (bits64 g)

  let int g bound =
    let mask = Int64.shift_right_logical Int64.minus_one 2 in
    let rec loop () =
      let r = Int64.to_int (Int64.logand (bits64 g) mask) in
      let limit = (max_int / bound) * bound in
      if r < limit then r mod bound else loop ()
    in
    loop ()

  let int_in g lo hi = lo + int g (hi - lo + 1)
  let bool g = Int64.compare (Int64.logand (bits64 g) 1L) 0L <> 0
  let float g = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) *. 0x1p-53

  let distinct_pair g n =
    let i = int g n in
    let j = int g (n - 1) in
    let j = if j >= i then j + 1 else j in
    (i, j)

  let bits g ~width =
    if width = 0 then 0 else Int64.to_int (Int64.shift_right_logical (bits64 g) (64 - width))
end

(* A bound from a mix of scales: small (the simulator's n), powers of two,
   and bounds just past a power of two, where rejection is most frequent. *)
let mixed_bound drive =
  match Reference.int drive 4 with
  | 0 -> 1 + Reference.int drive 300
  | 1 -> 1 lsl Reference.int drive 62
  | 2 -> (1 lsl Reference.int drive 62) + 1
  | _ -> 1 + Reference.int drive max_int

(* One mixed draw from both generators; [false] on any disagreement. The
   draw kind and its arguments come from [drive], a third stream, so the
   two generators under comparison see exactly the same calls. *)
let same_draw drive fast slow =
  match Reference.int drive 10 with
  | 0 -> Int64.equal (Prng.bits64 fast) (Reference.bits64 slow)
  | 1 ->
      let b = mixed_bound drive in
      Prng.int fast b = Reference.int slow b
  | 2 ->
      let b = mixed_bound drive in
      Prng.draw fast (Prng.below b) = Reference.int slow b
  | 3 ->
      let lo = Reference.int drive 2001 - 1000 and span = mixed_bound drive in
      let hi = if lo > max_int - span + 1 then max_int else lo + span - 1 in
      Prng.int_in fast lo hi = Reference.int_in slow lo hi
  | 4 -> Prng.bool fast = Reference.bool slow
  | 5 -> Float.equal (Prng.float fast) (Reference.float slow)
  | 6 ->
      let width = Reference.int drive 63 in
      Prng.bits fast ~width = Reference.bits slow ~width
  | 7 ->
      let n = 2 + Reference.int drive (if Reference.bool drive then 300 else max_int - 2) in
      Prng.distinct_pair fast n = Reference.distinct_pair slow n
  | 8 ->
      let a = Prng.split fast and b = Reference.split slow in
      Int64.equal (Prng.bits64 a) (Reference.bits64 b)
  | _ ->
      (* A copy replays the stream and leaves the original where it was. *)
      let c = Prng.copy fast in
      let x = Prng.bits64 c in
      Int64.equal x (Prng.bits64 fast) && Int64.equal x (Reference.bits64 slow)

(* 100 seeds x 10 000 mixed draws = 10^6 draws. *)
let qcheck_reference_agreement =
  QCheck.Test.make ~name:"unboxed generator matches the boxed reference" ~count:100
    QCheck.(pair int int)
    (fun (seed, drive_seed) ->
      let fast = Prng.create ~seed and slow = Reference.create ~seed in
      let drive = Reference.create ~seed:drive_seed in
      let ok = ref true and k = ref 0 in
      while !ok && !k < 10_000 do
        ok := same_draw drive fast slow;
        incr k
      done;
      !ok)

let test_int_allocation_free () =
  let g = Prng.create ~seed:17 and b = Prng.below 255 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Prng.int g 1000 + Prng.draw g b + Prng.bits g ~width:9;
    if Prng.bool g then incr acc
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "%.0f minor words over 40 000 draws (sum %d)" words (!acc land 1)) true
    (words < 100.0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "split differs" `Quick test_split_differs;
    Alcotest.test_case "split_many distinct" `Quick test_split_many;
    Alcotest.test_case "split_many pooled uniform" `Quick test_split_many_uniform_pooled;
    Alcotest.test_case "split_many uniform across children" `Quick
      test_split_many_uniform_across_children;
    Alcotest.test_case "split children uncorrelated" `Quick test_split_children_uncorrelated;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniform" `Quick test_int_uniform;
    Alcotest.test_case "int bound 1" `Quick test_int_one;
    Alcotest.test_case "int_in" `Quick test_int_in;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bool fair" `Quick test_bool_fair;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "distinct_pair valid" `Quick test_distinct_pair;
    Alcotest.test_case "distinct_pair uniform" `Quick test_distinct_pair_ordered_uniform;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Alcotest.test_case "shuffle multiset" `Quick test_shuffle_multiset;
    Alcotest.test_case "bits" `Quick test_bits;
    Alcotest.test_case "pick" `Quick test_pick;
    Alcotest.test_case "rejects bad inputs" `Quick test_rejects_bad_inputs;
    Alcotest.test_case "known answers (seeds 0, 1, 42)" `Quick test_known_answers;
    Alcotest.test_case "bounded draws allocate nothing" `Quick test_int_allocation_free;
    QCheck_alcotest.to_alcotest qcheck_reference_agreement;
    QCheck_alcotest.to_alcotest qcheck_permutation;
    QCheck_alcotest.to_alcotest qcheck_int_bound;
  ]

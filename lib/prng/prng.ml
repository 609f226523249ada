(* xoshiro256** 1.0 (Blackman & Vigna, public domain reference
   implementation), ported to OCaml Int64. State must never be all zero;
   splitmix64 seeding guarantees that.

   The four state words live in a 32-byte [Bytes.t], read and written with
   [Bytes.get/set_int64_le]. Inside one function those accesses compile to
   unboxed loads and stores, so a draw that returns an OCaml [int]
   ([next62] and everything built on it: [int], [draw], [bool], [bits])
   allocates nothing. [distinct_pair] allocates only its result tuple;
   [bits64] and [float] box their result.

   A generator can alternatively run in *scripted* mode: every bounded
   primitive draw ([int], [bool], [bits], ...) is then served from a
   prescribed list of choices instead of the xoshiro stream, and the
   (choice, bound) pairs actually drawn are recorded. Static analysis uses
   this to enumerate every synthetic-coin outcome of a randomized
   transition exactly (see [Analysis.Coins]); the unbounded primitives
   ([bits64], [float], [split]) have no finite choice space and raise in
   scripted mode. *)

type script = {
  mutable pending : int list;  (* prescribed upcoming choices, in draw order *)
  mutable trace : (int * int) list;  (* (choice, bound) drawn so far, newest first *)
}

type t = {
  st : Bytes.t;  (* s0, s1, s2, s3 as little-endian words at offsets 0, 8, 16, 24 *)
  script : script option;
}

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64: used only to expand a seed into four state words. *)
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
  let st = Bytes.create 32 in
  Bytes.set_int64_le st 0 s0;
  Bytes.set_int64_le st 8 s1;
  Bytes.set_int64_le st 16 s2;
  Bytes.set_int64_le st 24 s3;
  { st; script = None }

let create ~seed = of_seed64 (Int64.of_int seed)

let scripted choices =
  let g = of_seed64 0L in
  { g with script = Some { pending = choices; trace = [] } }

let is_scripted g = g.script <> None

let script_trace g =
  match g.script with
  | None -> invalid_arg "Prng.script_trace: generator is not scripted"
  | Some s -> List.rev s.trace

let script_draw s bound =
  let choice =
    match s.pending with
    | [] -> 0
    | c :: rest ->
        s.pending <- rest;
        if c < 0 || c >= bound then
          invalid_arg
            (Printf.sprintf "Prng: scripted choice %d outside [0, %d)" c bound);
        c
  in
  s.trace <- (choice, bound) :: s.trace;
  choice

let copy g =
  let script =
    match g.script with
    | None -> None
    | Some s -> Some { pending = s.pending; trace = s.trace }
  in
  { st = Bytes.copy g.st; script }

(* One xoshiro256** step. Inlined into every caller, so the state words
   and the result stay unboxed unless the caller itself returns an
   [int64]. *)
let[@inline] raw_bits64 g =
  let st = g.st in
  let s0 = Bytes.get_int64_le st 0 in
  let s1 = Bytes.get_int64_le st 8 in
  let s2 = Bytes.get_int64_le st 16 in
  let s3 = Bytes.get_int64_le st 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 t in
  let s3 = rotl s3 45 in
  Bytes.set_int64_le st 0 s0;
  Bytes.set_int64_le st 8 s1;
  Bytes.set_int64_le st 16 s2;
  Bytes.set_int64_le st 24 s3;
  result

(* The low 62 bits of the next output: uniform on [0, 2^62), the
   non-negative OCaml [int] range. *)
let next62 g = Int64.to_int (raw_bits64 g) land max_int

let bits64 g =
  match g.script with
  | None -> raw_bits64 g
  | Some _ -> invalid_arg "Prng.bits64: unbounded draw on a scripted generator"

let split g = of_seed64 (bits64 g)

let split_many g k = Array.init k (fun _ -> split g)

(* Uniform int in [0, bound) by rejection on the low 62 bits: [limit] is
   the largest multiple of [bound] up to [max_int], and draws at or above
   it are rejected to avoid modulo bias. *)
let rec below_limit g bound limit =
  let r = next62 g in
  if r < limit then r mod bound else below_limit g bound limit

let rejection_limit bound = max_int / bound * bound

type below = { bound : int; limit : int }

let below bound =
  if bound <= 0 then invalid_arg (Printf.sprintf "Prng.below: bound %d is not positive" bound);
  { bound; limit = rejection_limit bound }

let draw g b =
  match g.script with
  | Some s -> script_draw s b.bound
  | None -> below_limit g b.bound b.limit

let int g bound =
  if bound <= 0 then invalid_arg (Printf.sprintf "Prng.int: bound %d is not positive" bound);
  match g.script with
  | Some s -> script_draw s bound
  | None -> below_limit g bound (rejection_limit bound)

let int_in g lo hi =
  if lo > hi then invalid_arg (Printf.sprintf "Prng.int_in: empty range [%d, %d]" lo hi);
  let size = hi - lo + 1 in
  (* With lo <= hi the size is positive unless it wrapped past max_int. *)
  if size <= 0 then
    invalid_arg (Printf.sprintf "Prng.int_in: range [%d, %d] has more than max_int values" lo hi);
  lo + int g size

let bool g =
  match g.script with
  | Some s -> script_draw s 2 = 1
  | None -> next62 g land 1 = 1

let float g =
  (* 53 random bits into [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  r *. 0x1p-53

let bernoulli g ~p = float g < p

let distinct_pair g n =
  if n < 2 then invalid_arg (Printf.sprintf "Prng.distinct_pair: population %d is below 2" n);
  let i = int g n in
  let j = int g (n - 1) in
  let j = if j >= i then j + 1 else j in
  (i, j)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))

(* Cap on enumerable bit widths in scripted mode: the choice space of a
   [bits] draw is 2^width and the analyzer visits all of it. *)
let max_scripted_width = 20

let bits g ~width =
  if width < 0 || width > 62 then
    invalid_arg (Printf.sprintf "Prng.bits: width %d outside [0, 62]" width);
  if width = 0 then 0
  else
    match g.script with
    | Some s ->
        if width > max_scripted_width then
          invalid_arg "Prng.bits: width too large to enumerate on a scripted generator";
        script_draw s (1 lsl width)
    | None -> Int64.to_int (Int64.shift_right_logical (raw_bits64 g) (64 - width))

type t = { bits : int; len : int }

let max_len = 62

let empty = { bits = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let append_bit t b =
  if t.len >= max_len then invalid_arg "Name.append_bit: name too long";
  { bits = (t.bits lsl 1) lor (if b then 1 else 0); len = t.len + 1 }

let is_complete ~width t = t.len >= width

let random rng ~width =
  if width < 0 || width > max_len then invalid_arg "Name.random: bad width";
  { bits = Prng.bits rng ~width; len = width }

let of_int ~bits ~len =
  if len < 0 || len > max_len then invalid_arg "Name.of_int: bad length";
  if bits < 0 || (len < max_len && bits lsr len <> 0) then invalid_arg "Name.of_int: bits out of range";
  { bits; len }

let to_int t = t.bits

let compare a b =
  let m = Int.min a.len b.len in
  (* Equal-length prefixes compare lexicographically as integers. *)
  let pa = a.bits lsr (a.len - m) in
  let pb = b.bits lsr (b.len - m) in
  if pa <> pb then Stdlib.compare pa pb else Stdlib.compare a.len b.len

let equal a b = a.len = b.len && a.bits = b.bits

let bit t i =
  if i < 0 || i >= t.len then invalid_arg "Name.bit: index out of range";
  (t.bits lsr (t.len - 1 - i)) land 1 = 1

let to_string t =
  if t.len = 0 then "\xCE\xB5" (* ε *)
  else String.init t.len (fun i -> if bit t i then '1' else '0')

let pp fmt t = Format.pp_print_string fmt (to_string t)

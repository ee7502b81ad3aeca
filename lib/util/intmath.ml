(** Small integer-math helpers used throughout the scheduler. *)

let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd a b

let lcm_list = function [] -> 1 | x :: xs -> List.fold_left lcm x xs

(** [ceil_div a b] is [ceil (a / b)] for [b > 0]; correct for negative
    [a] as well. *)
let ceil_div a b =
  if b <= 0 then invalid_arg "Intmath.ceil_div: non-positive divisor";
  if a >= 0 then (a + b - 1) / b
  else -((-a) / b)

(** [floor_div a b] is [floor (a / b)] for [b > 0]. *)
let floor_div a b =
  if b <= 0 then invalid_arg "Intmath.floor_div: non-positive divisor";
  if a >= 0 then a / b else -(ceil_div (-a) b)

(** Positive divisors of [n], in increasing order. *)
let divisors n =
  if n <= 0 then invalid_arg "Intmath.divisors: non-positive argument";
  let rec go d acc = if d > n then List.rev acc
    else go (d + 1) (if n mod d = 0 then d :: acc else acc)
  in
  go 1 []

(** Smallest divisor of [u] that is [>= q]; exists whenever [1 <= q <= u].
    This is the register-count rounding rule of Lam Section 2.3. *)
let smallest_divisor_geq ~u ~q =
  if q > u then invalid_arg "Intmath.smallest_divisor_geq: q > u";
  List.find (fun d -> d >= q) (divisors u)

(** [range lo hi] is [lo; lo+1; ...; hi-1]. Empty when [hi <= lo]. *)
let range lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (i :: acc) in
  go (hi - 1) []

(* Digits are taken on the non-positive side, where [min_int] has a
   counterpart; top-level, so a call builds no closure. *)
let rec add_digits b m =
  if m <= -10 then add_digits b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let add_decimal b n =
  if n < 0 then Buffer.add_char b '-';
  add_digits b (if n > 0 then -n else n)

(** Small integer-math helpers used throughout the scheduler. *)

val gcd : int -> int -> int
(** Greatest common divisor; [gcd 0 0 = 0]. Always non-negative. *)

val lcm : int -> int -> int
(** Least common multiple; [lcm x 0 = 0]. Always non-negative. *)

val lcm_list : int list -> int
(** LCM of a list; [lcm_list [] = 1]. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is the ceiling of [a / b]. Requires [b > 0]. *)

val floor_div : int -> int -> int
(** [floor_div a b] is the floor of [a / b]. Requires [b > 0]. *)

val divisors : int -> int list
(** Positive divisors in increasing order. Requires a positive argument. *)

val smallest_divisor_geq : u:int -> q:int -> int
(** Smallest divisor of [u] no smaller than [q] — the register-count
    rounding rule of Lam Section 2.3. Requires [1 <= q <= u]. *)

val range : int -> int -> int list
(** [range lo hi] is [[lo; …; hi-1]]; empty when [hi <= lo]. *)

val add_decimal : Buffer.t -> int -> unit
(** Appends [string_of_int n] without building the string — the
    printers and fingerprint serializations write many small ints. *)

(** Elliptic-curve arithmetic over prime fields, from scratch.

    Short Weierstrass curves [y^2 = x^3 + ax + b (mod p)], computed in
    Jacobian coordinates to avoid a field inversion per point addition.
    Provides the three NIST/SECG curves of the paper's Fig. 2:
    secp160r1 (ECDSA-160), secp224r1 (ECDSA-224), secp256r1 (ECDSA-256). *)

open Ra_bignum

type curve = {
  name : string;
  p : Nat.t;  (** field prime *)
  a : Nat.t;
  b : Nat.t;
  gx : Nat.t;
  gy : Nat.t;
  n : Nat.t;  (** order of the base point *)
}

type point = Infinity | Affine of Nat.t * Nat.t

val secp160r1 : curve
val secp256r1 : curve

val all_curves : curve list

val curve_of_name : string -> curve option

val generator : curve -> point

val is_on_curve : curve -> point -> bool
(** [Infinity] is on every curve. *)

val negate : curve -> point -> point

val add : curve -> point -> point -> point

val double : curve -> point -> point

val scalar_mul : curve -> Nat.t -> point -> point
(** Double-and-add. The scalar is reduced modulo the group order [n], so the
    point must have order [n] (the generator and honest public keys do).
    [scalar_mul c Nat.zero p = Infinity]. *)

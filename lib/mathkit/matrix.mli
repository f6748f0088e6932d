(** Dense float matrices.

    The workhorse of the template attack (pooled covariance matrices,
    Mahalanobis scoring) and of the DBDD estimator's ellipsoid
    algebra.  One contiguous row-major [Float64] buffer (the
    {!Fvec.buffer} type); all dimensions are checked. *)

type t

val create : int -> int -> t
(** Zero matrix with the given rows x cols. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f]; [f] is called in row-major order. *)

val identity : int -> t

val of_arrays : float array array -> t
(** @raise Invalid_argument on ragged rows. *)

val to_arrays : t -> float array array
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val transpose : t -> t
val add : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t

val mul_vec : t -> float array -> float array
(** Matrix–vector product. *)

val dot : float array -> float array -> float
val axpy : float -> float array -> float array -> unit
(** [axpy a x y] sets [y <- a*x + y] in place. *)

val col : t -> int -> float array
val trace : t -> float
val frobenius : t -> float
val max_abs_diff : t -> t -> float

val quadratic_form : t -> Fvec.t -> float
(** [quadratic_form m d = d^T m d], fused, in the exact accumulation
    order of [dot d (mul_vec m d)] — the Mahalanobis inner loop. *)

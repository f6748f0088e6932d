module type S = sig
  type t
  type scratch

  val name : string
  val make_scratch : t -> scratch
  val classify : t -> scratch -> Mathkit.Fvec.t -> Attack.verdict
  val posterior_all : t -> scratch -> Mathkit.Fvec.t -> (int * float) array
  val sign_confidence : t -> scratch -> Mathkit.Fvec.t -> float
  val sign_fit : t -> scratch -> Mathkit.Fvec.t -> float
  val value_fit : t -> scratch -> sign:int -> Mathkit.Fvec.t -> float

  val grade : t -> scratch -> Mathkit.Fvec.t -> Attack.graded
  (** All five grading quantities from one pass; each field must equal
      what the corresponding function above returns for the window. *)
end

(* Every single-purpose entry is a projection of [Attack.grade], so
   "each field of [grade] equals the separate call" holds by
   construction.  [value_fit] takes the sign from the caller, not from
   the verdict, so it is [Attack.value_fit] itself. *)
module Template : S with type t = Attack.t and type scratch = Attack.Scratch.t = struct
  type t = Attack.t
  type scratch = Attack.Scratch.t

  let name = "template"
  let make_scratch = Attack.make_scratch
  let grade = Attack.grade
  let classify t s w = (grade t s w).Attack.g_verdict
  let posterior_all t s w = (grade t s w).Attack.g_posterior_all
  let sign_confidence t s w = (grade t s w).Attack.g_sign_confidence
  let sign_fit t s w = (grade t s w).Attack.g_sign_fit
  let value_fit = Attack.value_fit
end

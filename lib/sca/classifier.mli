(** The narrow per-window classifier interface of the attack pipeline.

    Everything the grading and hint stages need from a trained
    classifier fits in this signature: a hard verdict, the full value
    posterior, and the three absolute goodness-of-fit scores the
    confidence gate compares against its calibrated floors.  Windows
    arrive as {!Mathkit.Fvec} views (possibly aliasing the trace
    buffer — implementations must treat them as read-only), and every
    scoring call threads a [scratch] the implementation allocated in
    [make_scratch]: per-domain reusable buffers, so the hot loop is
    allocation-free.  A stateless classifier can use [scratch = unit].

    The combined template attack ({!Attack}) is the first instance; an
    ML classifier (GALACTICS-style) or a per-variant specialisation
    only has to implement [S] to slot into the same pipeline. *)

module type S = sig
  type t
  (** Trained classifier state. *)

  type scratch
  (** Per-domain mutable scoring workspace.  Never share one scratch
      across domains. *)

  val name : string

  val make_scratch : t -> scratch
  (** Fresh scratch sized for this classifier. *)

  val classify : t -> scratch -> Mathkit.Fvec.t -> Attack.verdict
  (** Hard decision for one window view. *)

  val posterior_all : t -> scratch -> Mathkit.Fvec.t -> (int * float) array
  (** Joint posterior over every candidate value. *)

  val sign_confidence : t -> scratch -> Mathkit.Fvec.t -> float
  (** Peak of the flat-prior sign posterior (how unambiguous the
      branch-region match is). *)

  val sign_fit : t -> scratch -> Mathkit.Fvec.t -> float
  (** Best-class log density under the sign model — absolute
      goodness-of-fit, gate input. *)

  val value_fit : t -> scratch -> sign:int -> Mathkit.Fvec.t -> float
  (** Best-class log density under [sign]'s value model. *)

  val grade : t -> scratch -> Mathkit.Fvec.t -> Attack.graded
  (** All five grading quantities from one scoring pass.  Contract:
      each field equals — bitwise — what the corresponding
      single-purpose function above returns for the same window, so
      the grader may call either form interchangeably.  Implementations
      that cannot share work may simply bundle the five calls. *)
end

module Template : S with type t = Attack.t and type scratch = Attack.Scratch.t
(** The combined template attack behind the narrow interface.
    [grade] is {!Attack.grade}; [classify], [posterior_all],
    [sign_confidence] and [sign_fit] are projections of its fields, and
    [value_fit] is {!Attack.value_fit}, so the [grade] contract holds
    by construction. *)

(** The combined single-trace attack of Section III-D.

    Three templates cooperate, mirroring the paper's use of the three
    vulnerabilities:

    - a 3-class {e sign} template over the branch region
      (vulnerability 1) — the paper reports 100 % success for it;
    - a value template over the {e negative} candidates: its POIs land
      on the negation sequence and the [modulus - noise] stores, i.e.
      vulnerabilities 3 + 2, which is why negative coefficients come
      out far better (Table I);
    - a value template over the {e positive} candidates: only the
      assignment leakage (vulnerability 2) is available, so values of
      equal Hamming weight collide — the 1/2/4/8 confusions visible in
      Table I.

    Matching classifies the sign first and then dispatches to that
    group's template; zero needs no second stage.  [grade] returns
    the hard decision plus the posterior over all candidate values —
    Table I consumes the former, the LWE-hint integration (Tables
    II-III) the latter. *)

type t = {
  sign_template : Template.t;
  neg_template : Template.t;
  pos_template : Template.t;
  neg_priors : float array;  (** Gaussian prior restricted to the group *)
  pos_priors : float array;
  prior_of_sign : float array;  (** P(sign = -1, 0, +1) under the sampler *)
  pois_sign : int array;
  pois_neg : int array;
  pois_pos : int array;
}

type verdict = {
  sign : int;  (** -1, 0 or 1 *)
  value : int;  (** recovered coefficient *)
  posterior : (int * float) array;  (** value -> probability over every candidate *)
}

val sign_of_label : int -> int

val build :
  poi_count:int ->
  sign_poi_count:int ->
  sigma:float ->
  (int * float array array) list ->
  t
(** [build ~poi_count ~sign_poi_count ~sigma classes] profiles from
    labelled windows ([label, window_vectors]).  POIs are selected by
    SOSD — [sign_poi_count] for the sign grouping and [poi_count]
    within each sign group.  [sigma] shapes the value priors. *)

(** {1 Scoring}

    Scoring is allocation-free over {!Mathkit.Fvec} views.  A
    {!Scratch.t} bundles the POI gather buffer and the three template
    scratches in one arena; build one per domain ([make_scratch] once,
    score many windows). *)

module Scratch : sig
  type t
end

val make_scratch : t -> Scratch.t

(** Everything the confidence gate consumes for one window. *)
type graded = {
  g_verdict : verdict;
      (** maximum likelihood, as in classical template attacks: the
          sign is the argmax of the flat-prior sign posterior, the
          value the argmax of that sign group's flat-prior posterior
          (zero needs no second stage) *)
  g_posterior_all : (int * float) array;
      (** joint posterior over all candidates,
          P(v) = P(sign of v) * P(v | its group), both factors under
          the sampler's Gaussian prior — the raw Table II rows *)
  g_sign_confidence : float;
      (** peak of the flat-prior sign posterior — how unambiguous the
          branch-region match is.  Near 1/3 means the window does not
          look like any sign class (e.g. after a segmentation
          failure); confidence gating uses it to demote garbage
          windows. *)
  g_sign_fit : float;  (** {!sign_fit} of the window *)
  g_value_fit : float;  (** {!value_fit} of the window under [g_verdict.sign] *)
}

val grade : t -> Scratch.t -> Mathkit.Fvec.t -> graded
(** The combined attack on one window: each template is scored once
    and every field is derived from the shared score rows. *)

val sign_fit : t -> Scratch.t -> Mathkit.Fvec.t -> float
(** Best-class Gaussian log density of the window under the sign
    template — an absolute goodness-of-fit.  Posteriors normalise the
    likelihood away, so a corrupted window can still look confident;
    its fit, by contrast, collapses (the exponent is quadratic in the
    deviation from the nearest class mean).  Confidence gating compares
    this against a floor calibrated on profiling windows. *)

val value_fit : t -> Scratch.t -> sign:int -> Mathkit.Fvec.t -> float
(** Best-class log density under the value template of [sign]'s group
    (for sign 0, the sign template — zero has no second stage). *)

(** Multivariate Gaussian template attack (Chari et al., CHES 2002).

    Profiling: for every candidate secret (here, every sampled
    coefficient value) record many POI vectors, store the class mean,
    and pool the covariance across classes (the noise is
    class-independent, and pooling is what makes 29-class templates
    feasible from modest trace counts).  Matching: score a measured
    vector by Gaussian log-likelihood under each template, optionally
    weighted by the class prior, and either pick the argmax or return
    the whole posterior — the posterior feeds the LWE-hint machinery
    of Section IV-C. *)

type t = {
  labels : int array;  (** class labels, e.g. coefficient values *)
  means : float array array;
  inv_cov : Mathkit.Matrix.t;  (** inverse pooled covariance *)
  log_det : float;
  pois : int array;  (** POI indices into the window, kept for bookkeeping *)
}

val build : ?regularization:float -> pois:int array -> (int * float array array) list -> t
(** [build ~pois classes] with [classes = (label, poi_vectors) list].
    The covariance is pooled over classes and regularised by
    [regularization] (default 1e-6) times the mean diagonal.
    @raise Invalid_argument when any class has < 2 rows. *)

(** {1 Scoring}

    Scoring is allocation-free over {!Mathkit.Fvec} views: the caller
    owns a {!scratch} (one per domain — scratches must not be shared
    across domains) and the score rows are BORROWED from it, valid
    until the next call on the same scratch. *)

val dimension : t -> int
(** POI-vector dimensionality the template scores (length of each
    class mean). *)

type scratch

val make_scratch : ?arena:Mathkit.Fvec.Scratch.t -> t -> scratch
(** Scratch sized for [t]; its difference workspace is carved from
    [arena] when given, freshly allocated otherwise. *)

type scores = {
  s_best_ll : float;  (** best-class Gaussian log density *)
  s_post : float array;  (** flat-prior posterior, borrowed *)
  s_post_p : float array;  (** posterior under [priors], borrowed *)
}

val scores : priors:float array -> t -> scratch -> Mathkit.Fvec.t -> scores
(** One log-likelihood pass over every class, then every score a
    grading consumer needs: the best-class log density, the flat-prior
    posterior (in [labels] order; its argmax is the maximum-likelihood
    label) and the posterior under [priors].
    @raise Invalid_argument when [priors] and [labels] differ in
    length, or the vector's length is not {!dimension}. *)

val priored_posterior : priors:float array -> t -> scratch -> Mathkit.Fvec.t -> float array
(** The [s_post_p] row of {!scores} alone, bit-identical to it, for a
    template whose flat posterior and best density go unread.
    Borrowed from the scratch. *)

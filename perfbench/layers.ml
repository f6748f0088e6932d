(* Outside-in layer timers for the traced run.

   Every layer is timed at a public entry point the benchmark calls
   (or hands to the pipeline): the source pull, the acquire thunk, a
   wrapped segmenter, a wrapped classifier, a wrapped re-measurement
   closure and the grader itself.  Nothing here edits or copies library
   code, so a refactor behind those entry points is measured, not
   broken.

   A [timer] is an all-float record, so accumulating into it never
   allocates: the minor-word delta read around a timed call is the
   call's own allocation. *)

open Reveal

type timer = { mutable busy : float; mutable words : float }

let now = Unix.gettimeofday

type t = {
  decode : timer;  (** [Pipeline.next_item] *)
  acquire : timer;  (** [item.acquire ()] *)
  segment : timer;  (** the wrapped resilient segmenter, retries included *)
  classify : timer;  (** the wrapped template classifier, retries included *)
  retry : timer;  (** the wrapped [remeasure] closure *)
  grade : timer;  (** [Grading.attack_resilient], inclusive *)
  tally : timer;  (** [Campaign.stats_of_results] *)
  mutable records : int;  (** source pulls that yielded a record or a skip *)
  mutable samples : int;  (** samples of every acquired trace *)
  mutable segment_calls : int;
  mutable segment_samples : int;
  mutable repaired : int;  (** windows segmentation had to resynchronise *)
  mutable suspect : int;  (** windows whose length is an outlier *)
  mutable windows : int;  (** windows the classifier scored *)
  mutable retry_attempts : int;
}

let create () =
  let timer () = { busy = 0.0; words = 0.0 } in
  {
    decode = timer ();
    acquire = timer ();
    segment = timer ();
    classify = timer ();
    retry = timer ();
    grade = timer ();
    tally = timer ();
    records = 0;
    samples = 0;
    segment_calls = 0;
    segment_samples = 0;
    repaired = 0;
    suspect = 0;
    windows = 0;
    retry_attempts = 0;
  }

let timed timer f x =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f x in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  timer.busy <- timer.busy +. (t1 -. t0);
  timer.words <- timer.words +. (w1 -. w0);
  r

(* The resilient segmenter behind the same SEGMENTER contract. *)
let segmenter st : Pipeline.segmenter =
  (module struct
    let name = Pipeline.segmenter_name Pipeline.resilient_segmenter

    let segment prof ~count samples =
      st.segment_calls <- st.segment_calls + 1;
      st.segment_samples <- st.segment_samples + Mathkit.Fvec.length samples;
      let r =
        timed st.segment (Pipeline.run_segmenter Pipeline.resilient_segmenter prof ~count) samples
      in
      (match r with
      | Ok seg ->
          Array.iter
            (function
              | Sca.Segment.Clean -> ()
              | Sca.Segment.Resynced -> st.repaired <- st.repaired + 1
              | Sca.Segment.Suspect -> st.suspect <- st.suspect + 1)
            seg.Pipeline.quality
      | Error _ -> ());
      r
  end)

(* The template classifier behind the same [Sca.Classifier.S]
   signature, every per-window entry point timed.  The layer state
   rides in the classifier value, so no global is needed. *)
module Timed_template = struct
  module T = Sca.Classifier.Template

  type nonrec t = { inner : T.t; st : t }
  type scratch = T.scratch

  let name = T.name
  let make_scratch c = T.make_scratch c.inner

  let score c f w =
    c.st.windows <- c.st.windows + 1;
    timed c.st.classify f w

  let classify c s w = score c (T.classify c.inner s) w
  let posterior_all c s w = score c (T.posterior_all c.inner s) w
  let sign_confidence c s w = score c (T.sign_confidence c.inner s) w
  let sign_fit c s w = score c (T.sign_fit c.inner s) w
  let value_fit c s ~sign w = score c (T.value_fit c.inner s ~sign) w
  let grade c s w = score c (T.grade c.inner s) w
end

let classifier st (prof : Pipeline.profile) =
  Pipeline.Classifier ((module Timed_template), { Timed_template.inner = prof.Pipeline.attack; st })

(* Re-measurement is acquisition run again: timed on its own so the
   retry ladder's cost is visible next to first-pass acquisition. *)
let remeasure st f attempt =
  st.retry_attempts <- st.retry_attempts + 1;
  timed st.retry f attempt

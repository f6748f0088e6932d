(* One benchmark run: repeat a workload's campaign for the time budget,
   check every repeat, and reduce the repeats to one value per metric
   (the median, so a slow outlier repeat does not move the figure). *)

open Reveal

type result = {
  correct : bool;
  failures : string list;  (** the correctness gates that did not hold *)
  attempted : int;  (** coefficients attempted over every campaign of the run *)
  failed : int;  (** of those, lost to an exception, a typed error or a skipped record *)
  metrics : (Spec.metric * float) list;
  repeats : int;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fl = float_of_int

(* Campaigns until the budget is spent: at least [min_repeats], then
   another only while it is expected to finish inside [seconds]. *)
let repeat ~seconds ~min_repeats f =
  let start = Layers.now () in
  let rec go acc count last =
    let elapsed = Layers.now () -. start in
    if count >= min_repeats && (elapsed +. last > seconds || count >= 64) then List.rev acc
    else begin
      let t0 = Layers.now () in
      let x = f () in
      go (x :: acc) (count + 1) (Layers.now () -. t0)
    end
  in
  go [] 0 0.0

let heap_peak_mb () = fl ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- one campaign, reduced ------------------------------------------------ *)

(* What a run keeps of each campaign once it is checked: the timings,
   the rates and the result digest — never the result array itself, so
   the heap peak is one campaign's, however many repeats fit. *)
type summary = {
  setup_s : float;
  attack_s : float;
  campaign_s : float;
  coeffs_per_s : float;
  words_per_coeff : float;
  lost : int;
  digest : string;
  sign_rate : float;
  value_rate : float;
  sound_share : float;
  heap_peak_mb : float;  (** [Gc.top_heap_words] once this campaign ended *)
  failures : string list;  (** this campaign's failed gates *)
}

let clean plan = plan.Workload.kind <> Workload.Faulted

(* The driver's own tally must be a pure function of its results. *)
let tally_consistent (o : Workload.outcome) =
  let s = o.Workload.stats in
  let r = Campaign.stats_of_results ~corrupt_skipped:s.Campaign.corrupt_skipped o.Workload.prof o.Workload.results in
  let key (s : Campaign.stats) =
    ( s.Campaign.sign_correct,
      s.Campaign.sign_total,
      s.Campaign.value_correct,
      s.Campaign.value_total,
      s.Campaign.skipped_out_of_range )
  in
  key s = key r

let summarize plan (o : Workload.outcome) =
  let attempted = fl (Workload.attempted plan) in
  let attacked = fl (Array.length o.Workload.results) in
  let stats = o.Workload.stats in
  let sign_rate = ratio (fl stats.Campaign.sign_correct) attempted in
  let misgrades = Campaign.confident_mismatches o.Workload.results in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if clean plan && sign_rate <> 1.0 then fail "sign_rate %.6f on a clean device (expected 1.0)" sign_rate;
  if clean plan && misgrades <> 0 then fail "%d misgrades on a clean device (expected 0)" misgrades;
  if o.Workload.errors = [] && not (tally_consistent o) then
    fail "campaign tally differs from Campaign.stats_of_results";
  {
    setup_s = o.Workload.setup_s;
    attack_s = o.Workload.attack_s;
    campaign_s = o.Workload.campaign_s;
    coeffs_per_s = ratio attacked o.Workload.attack_s;
    words_per_coeff = ratio o.Workload.attack_words attacked;
    lost = o.Workload.lost;
    digest = Workload.digest o.Workload.results;
    sign_rate;
    value_rate = ratio (fl stats.Campaign.value_correct) (fl stats.Campaign.value_total);
    sound_share = 1.0 -. ratio (fl (Workload.failures o)) attempted;
    heap_peak_mb = heap_peak_mb ();
    failures = List.rev !failures;
  }

(* One progress line per campaign on stderr; stdout carries only the
   metadata and result lines. *)
let log ~progress kind s =
  if progress then
    Printf.eprintf "perfbench: %s campaign: setup %.3f s, attack %.3f s, total %.3f s, %.1f coeffs/s, heap %.1f MB\n%!"
      kind s.setup_s s.attack_s s.campaign_s s.coeffs_per_s s.heap_peak_mb;
  s

(* --- end-to-end metrics (untraced) ---------------------------------------- *)

let end_to_end (summaries : summary list) =
  let med f = median (List.map f summaries) in
  let value name =
    match name with
    | "setup_s" -> med (fun s -> s.setup_s)
    | "campaign_s" -> med (fun s -> s.campaign_s)
    | "coeffs_per_s" -> med (fun s -> s.coeffs_per_s)
    | "attack_words_per_coeff" -> med (fun s -> s.words_per_coeff)
    (* the peak only grows, so later repeats would add heap
       fragmentation; the first campaign's peak is the run's figure *)
    | "heap_peak_mb" -> (List.hd summaries).heap_peak_mb
    | "sign_rate" -> med (fun s -> s.sign_rate)
    | "value_rate" -> med (fun s -> s.value_rate)
    | "sound_share" -> med (fun s -> s.sound_share)
    | other -> invalid_arg ("Run.end_to_end: " ^ other)
  in
  List.map (fun m -> (m, value m.Spec.name)) Spec.end_to_end

(* --- per-layer metrics (traced) ------------------------------------------- *)

let count_retried results =
  Array.fold_left
    (fun acc r -> match r.Campaign.recovery with Campaign.Retried _ -> acc + 1 | _ -> acc)
    0 results

let layer_values plan (tr : Workload.traced) =
  let l = tr.Workload.layers and o = tr.Workload.outcome in
  let open Layers in
  let samples = fl l.samples in
  let results = o.Workload.results in
  let confident, tentative, sign_only, unknown = Campaign.grade_counts results in
  let rescued = count_retried results in
  let archive_bytes, archive_records =
    match plan.Workload.archive with Some a -> (fl a.Workload.bytes, fl a.Workload.records) | None -> (0.0, 0.0)
  in
  let security f = match o.Workload.security with Some s -> f s | None -> 0.0 in
  [
    ("profile.windows_s", tr.Workload.windows_s);
    ("profile.build_s", tr.Workload.build_s);
    ("profile.runs", fl tr.Workload.runs);
    ("profile.windows", fl tr.Workload.windows);
    ("acquire.busy_s", l.acquire.busy);
    ("acquire.samples", samples);
    ("acquire.ns_per_sample", ratio (l.acquire.busy *. 1e9) samples);
    ("acquire.words_per_sample", ratio l.acquire.words samples);
    ("decode.busy_s", l.decode.busy);
    ("decode.records", fl l.records);
    ("decode.ns_per_sample", ratio (l.decode.busy *. 1e9) samples);
    ("decode.words_per_sample", ratio l.decode.words samples);
    ("decode.mb_per_s", ratio (archive_bytes /. 1e6) l.decode.busy);
    ("archive.bytes", archive_bytes);
    ("archive.records", archive_records);
    ("segment.busy_s", l.segment.busy);
    ("segment.calls", fl l.segment_calls);
    ("segment.ns_per_sample", ratio (l.segment.busy *. 1e9) (fl l.segment_samples));
    ("segment.words_per_sample", ratio l.segment.words (fl l.segment_samples));
    ("segment.repaired_windows", fl l.repaired);
    ("segment.suspect_windows", fl l.suspect);
    ("classify.busy_s", l.classify.busy);
    ("classify.windows", fl l.windows);
    ("classify.us_per_window", ratio (l.classify.busy *. 1e6) (fl l.windows));
    ("classify.words_per_window", ratio l.classify.words (fl l.windows));
    ("grade.self_s", l.grade.busy -. l.segment.busy -. l.classify.busy -. l.retry.busy);
    ("grade.confident", fl confident);
    ("grade.tentative", fl tentative);
    ("grade.sign_only", fl sign_only);
    ("grade.unknown", fl unknown);
    ("grade.misgrades", fl (Campaign.confident_mismatches results));
    ("retry.attempts", fl l.retry_attempts);
    ("retry.busy_s", l.retry.busy);
    ("retry.rescued", fl rescued);
    ("retry.rescue_ratio", ratio (fl rescued) (fl (rescued + Workload.unrecoverable results)));
    ("tally.busy_s", l.tally.busy);
    ("sink.busy_s", o.Workload.sink_s);
    ("sink.perfect_hints", security (fun s -> fl s.Sink.perfect_hints));
    ("sink.bikz_after", security (fun s -> s.Sink.bikz_with_hints));
    ("attack.phase_s", o.Workload.attack_s);
    ("unattributed_s", o.Workload.attack_s -. l.decode.busy -. l.acquire.busy -. l.grade.busy -. l.tally.busy);
    ("fail_share", ratio (fl (Workload.failures o)) (fl (Workload.attempted plan)));
  ]

(* The traced run must change nothing but the clock: same results as
   the untraced driver, same profile from the split profiling path. *)
let identity_failures plan (untraced : Workload.outcome) (tr : Workload.traced) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if Workload.digest untraced.Workload.results <> Workload.digest tr.Workload.outcome.Workload.results then
    fail "traced results differ from the untraced run";
  if
    Workload.profile_bytes plan "campaign" untraced.Workload.prof
    <> Workload.profile_bytes plan "split" tr.Workload.outcome.Workload.prof
  then fail "split profile differs from Campaign.profile";
  (match plan.Workload.archive with
  | Some a when tr.Workload.layers.Layers.records <> a.Workload.records ->
      fail "replay pulled %d records from a %d-record archive" tr.Workload.layers.Layers.records a.Workload.records
  | _ -> ());
  List.rev !failures

(* One untraced campaign and one traced campaign, checked against each
   other and reduced. *)
let traced_pair ~progress plan =
  let u = Workload.untraced plan in
  let tr = Workload.traced plan in
  let identity = identity_failures plan u tr in
  ( log ~progress "untraced" (summarize plan u),
    log ~progress "traced" (summarize plan tr.Workload.outcome),
    layer_values plan tr,
    identity )

let per_layer pairs =
  let overhead =
    ratio
      (median (List.map (fun (_, t, _, _) -> t.attack_s) pairs))
      (median (List.map (fun (u, _, _, _) -> u.attack_s) pairs))
  in
  let value name =
    if name = "trace_overhead" then overhead else median (List.map (fun (_, _, vs, _) -> List.assoc name vs) pairs)
  in
  List.map (fun m -> (m, value m.Spec.name)) Spec.per_layer

(* --- the run -------------------------------------------------------------- *)

let run ?(progress = false) ~trace ~seconds plan =
  let summaries, metrics, extra =
    if not trace then begin
      let summaries =
        repeat ~seconds ~min_repeats:3 (fun () -> log ~progress "untraced" (summarize plan (Workload.untraced plan)))
      in
      (summaries, end_to_end summaries, [])
    end
    else begin
      let pairs = repeat ~seconds ~min_repeats:2 (fun () -> traced_pair ~progress plan) in
      ( List.concat_map (fun (u, t, _, _) -> [ u; t ]) pairs,
        per_layer pairs,
        List.concat_map (fun (_, _, _, identity) -> identity) pairs )
    end
  in
  let digests =
    match List.sort_uniq compare (List.map (fun s -> s.digest) summaries) with
    | [ _ ] -> []
    | ds ->
        [
          Printf.sprintf "same seed, %d different result digests over %d campaigns" (List.length ds)
            (List.length summaries);
        ]
  in
  let non_finite =
    List.filter_map
      (fun (m, v) -> if Float.is_finite v then None else Some (m.Spec.name ^ " is not a finite number"))
      metrics
  in
  let failures =
    List.sort_uniq compare (List.concat_map (fun s -> s.failures) summaries @ extra) @ digests @ non_finite
  in
  {
    correct = failures = [];
    failures;
    attempted = List.length summaries * Workload.attempted plan;
    failed = List.fold_left (fun acc s -> acc + s.lost) 0 summaries;
    metrics;
    repeats = List.length summaries;
  }

(* --- host metadata ---------------------------------------------------------- *)

let host_json () =
  let commit = Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown" in
  Obs.Json.Obj
    [
      ("commit", Obs.Json.String commit);
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("recommended_domains", Obs.Json.Int (Mathkit.Parallel.recommended_domains ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("flambda", Obs.Json.Bool Config.flambda);
      ("word_size", Obs.Json.Int Sys.word_size);
    ]

(* The result line: floats with every digit ("%.17g"), integers as
   integers. *)
let result_line r =
  let number v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v
  in
  let metric (m, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Spec.name (number (if Float.is_finite v then v else 0.0))
      m.Spec.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct r.attempted
    r.failed
    (String.concat ", " (List.map metric r.metrics))

(* The benchmark's metric catalogue, in the order it reports them.
   BENCHMARK.json lists exactly these; the smoke test holds the two in
   step. *)

type metric = { name : string; unit : string; better : [ `Higher | `Lower ] }

let m name unit better = { name; unit; better }

(* Reported by every untraced run ([--trace 0]). *)
let end_to_end =
  [
    m "setup_s" "s" `Lower;
    m "campaign_s" "s" `Lower;
    m "coeffs_per_s" "coeffs/s" `Higher;
    m "attack_words_per_coeff" "words/coeff" `Lower;
    m "heap_peak_mb" "MB" `Lower;
    m "sign_rate" "share" `Higher;
    m "value_rate" "share" `Higher;
    m "sound_share" "share" `Higher;
  ]

(* Reported by every traced run ([--trace 1]). *)
let per_layer =
  [
    m "profile.windows_s" "s" `Lower;
    m "profile.build_s" "s" `Lower;
    m "profile.runs" "count" `Lower;
    m "profile.windows" "count" `Higher;
    m "acquire.busy_s" "s" `Lower;
    m "acquire.samples" "count" `Lower;
    m "acquire.ns_per_sample" "ns/sample" `Lower;
    m "acquire.words_per_sample" "words/sample" `Lower;
    m "decode.busy_s" "s" `Lower;
    m "decode.records" "count" `Lower;
    m "decode.ns_per_sample" "ns/sample" `Lower;
    m "decode.words_per_sample" "words/sample" `Lower;
    m "decode.mb_per_s" "MB/s" `Higher;
    m "archive.bytes" "bytes" `Lower;
    m "archive.records" "count" `Lower;
    m "segment.busy_s" "s" `Lower;
    m "segment.calls" "count" `Lower;
    m "segment.ns_per_sample" "ns/sample" `Lower;
    m "segment.words_per_sample" "words/sample" `Lower;
    m "segment.repaired_windows" "count" `Lower;
    m "segment.suspect_windows" "count" `Lower;
    m "classify.busy_s" "s" `Lower;
    m "classify.windows" "count" `Lower;
    m "classify.us_per_window" "us/window" `Lower;
    m "classify.words_per_window" "words/window" `Lower;
    m "grade.self_s" "s" `Lower;
    m "grade.confident" "count" `Higher;
    m "grade.tentative" "count" `Lower;
    m "grade.sign_only" "count" `Lower;
    m "grade.unknown" "count" `Lower;
    m "grade.misgrades" "count" `Lower;
    m "retry.attempts" "count" `Lower;
    m "retry.busy_s" "s" `Lower;
    m "retry.rescued" "count" `Higher;
    m "retry.rescue_ratio" "share" `Higher;
    m "tally.busy_s" "s" `Lower;
    m "sink.busy_s" "s" `Lower;
    m "sink.perfect_hints" "count" `Higher;
    m "sink.bikz_after" "bikz" `Lower;
    m "attack.phase_s" "s" `Lower;
    m "unattributed_s" "s" `Lower;
    m "trace_overhead" "x" `Lower;
    m "fail_share" "share" `Lower;
  ]

let better_name = function `Higher -> "higher" | `Lower -> "lower"

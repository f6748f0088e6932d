(* The three single-trace attack campaigns the benchmark times.

   Every campaign has the [Experiment.default] shape — n = 256,
   400 profiling windows per value, the resilient pipeline with
   [Grading.default_gate], the library's default domains and batch —
   and is a pure function of its seed, so repeats of one seed must
   reproduce the same per-coefficient results bit for bit.

   [untraced] drives the campaign through the library's own drivers
   ([Campaign.run_source], [Campaign.attack_archive]) and times it end
   to end.  [traced] drives the same stages by hand through their
   public entry points, with {!Layers} wrapped around each, so every
   layer's busy time and allocation is read from outside. *)

open Reveal

type kind = Live | Replay | Faulted

let kinds = [ ("live-attack", Live); ("replay-attack", Replay); ("faulted-attack", Faulted) ]

type size = { n : int; per_value : int; traces : int }

(* Trace counts are sized so one campaign takes a few seconds here:
   long enough that its attack phase repeats within a few percent,
   short enough that a run holds several repeats. *)
let size ~tiny kind =
  if tiny then { n = 64; per_value = 40; traces = 3 }
  else
    let e = Experiment.default in
    {
      n = e.Experiment.device_n;
      per_value = e.Experiment.per_value;
      traces = (match kind with Live | Replay -> 64 | Faulted -> 16);
    }

let fault = Power.Fault.of_intensity 0.5

type archive = { path : string; bytes : int; records : int }

type plan = { kind : kind; size : size; seed : int64; archive : archive option; work_dir : string }

(* The replay archive comes from its own generator so it never aliases
   the profiling or attack streams of the same seed. *)
let archive_salt = 0x52455641L

let record_archive ~work_dir ~seed size =
  let path = Filename.concat work_dir (Printf.sprintf "replay-%Ld.rvt" seed) in
  let device = Device.create ~n:size.n () in
  let rng = Mathkit.Prng.create ~seed:(Int64.logxor seed archive_salt) () in
  let scope_rng = Mathkit.Prng.split rng in
  let sampler_rng = Mathkit.Prng.split rng in
  Device.record device ~path ~seed ~traces:size.traces ~scope_rng ~sampler_rng;
  { path; bytes = (Unix.stat path).Unix.st_size; records = size.traces }

let plan ~work_dir ~tiny kind seed =
  let size = size ~tiny kind in
  let archive = if kind = Replay then Some (record_archive ~work_dir ~seed size) else None in
  { kind; size; seed; archive; work_dir }

let dispose plan = Option.iter (fun a -> Sys.remove a.path) plan.archive

let archive_path plan =
  match plan.archive with Some a -> a.path | None -> invalid_arg "Workload: no archive"

(* Set-up shared by both drivers: the device, the profiling generator
   and, after profiling, the attack generators. *)
let device plan = Device.create ~n:plan.size.n ()
let profiling_rng plan = Mathkit.Prng.create ~seed:plan.seed ()

let live_source plan device rng =
  let scope_rng = Mathkit.Prng.split rng in
  let sampler_rng = Mathkit.Prng.split rng in
  let device = if plan.kind = Faulted then Device.with_fault device (Some fault) else device in
  Source.device_live ~retry:true device ~traces:plan.size.traces ~scope_rng ~sampler_rng

let attempted plan =
  let traces = match plan.archive with Some a -> a.records | None -> plan.size.traces in
  traces * plan.size.n

let sink (prof : Campaign.profile) results =
  if Array.length results = 0 then None
  else
    let hints =
      Sink.hints_of_results results Sink.lwe_instance.Hints.Lwe.m (fun i r ->
          Campaign.hint_of_result ~sigma:prof.Campaign.sigma ~coordinate:i r)
    in
    Some (Sink.security_of_hints hints)

(* --- results -------------------------------------------------------------- *)

type outcome = {
  setup_s : float;  (** workload start to the attack phase: device and profiling *)
  attack_s : float;  (** source creation and every pull to the end of the tally *)
  sink_s : float;
  campaign_s : float;
  attack_words : float;  (** minor words allocated in the attack phase *)
  prof : Campaign.profile;
  results : Campaign.coefficient_result array;
  stats : Campaign.stats;
  lost : int;  (** coefficients lost to an exception, a typed error or a skipped record *)
  errors : string list;
  security : Sink.security_report option;
}

(* A digest of everything the campaign decided per coefficient: two
   runs agree on it exactly when their result arrays are equal. *)
let digest results =
  let b = Buffer.create (Array.length results * 96) in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  let float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  Array.iter
    (fun (r : Campaign.coefficient_result) ->
      int r.Campaign.actual;
      int r.Campaign.verdict.Sca.Attack.sign;
      int r.Campaign.verdict.Sca.Attack.value;
      let posterior ps =
        int (Array.length ps);
        Array.iter
          (fun (v, p) ->
            int v;
            float p)
          ps
      in
      posterior r.Campaign.verdict.Sca.Attack.posterior;
      posterior r.Campaign.posterior_all;
      int (match r.Campaign.grade with Confident -> 0 | Tentative -> 1 | SignOnly -> 2 | Unknown -> 3);
      int (match r.Campaign.recovery with Clean -> 0 | Retried k -> k | Unrecoverable -> -1))
    results;
  Digest.to_hex (Digest.string (Buffer.contents b))

let unrecoverable results =
  Array.fold_left (fun acc r -> if r.Campaign.recovery = Campaign.Unrecoverable then acc + 1 else acc) 0 results

(* Failed coefficients: unrecoverable, vouched for with a wrong sign (a
   misgrade poisons the hint set), or lost before grading. *)
let failures o = o.lost + unrecoverable o.results + Campaign.confident_mismatches o.results

let describe e = Printexc.to_string e

(* --- the untraced run ----------------------------------------------------- *)

let untraced plan =
  let t0 = Layers.now () in
  let device = device plan in
  let rng = profiling_rng plan in
  let prof = Campaign.profile ~per_value:plan.size.per_value device rng in
  let attack =
    match plan.kind with
    | Replay -> fun () -> Campaign.attack_archive prof (archive_path plan)
    | Live | Faulted -> fun () -> Campaign.run_source prof (live_source plan device rng)
  in
  let t1 = Layers.now () in
  let w0 = Gc.minor_words () in
  let attacked = match attack () with r -> Ok r | exception e -> Error (describe e) in
  let w1 = Gc.minor_words () in
  let t2 = Layers.now () in
  let stats, results, errors =
    match attacked with
    | Ok (stats, results) -> (stats, results, [])
    | Error e -> (Campaign.stats_of_results prof [||], [||], [ e ])
  in
  let security = sink prof results in
  let t3 = Layers.now () in
  {
    setup_s = t1 -. t0;
    attack_s = t2 -. t1;
    sink_s = t3 -. t2;
    campaign_s = t3 -. t0;
    attack_words = w1 -. w0;
    prof;
    results;
    stats;
    lost = attempted plan - Array.length results;
    errors;
    security;
  }

(* --- the traced run ------------------------------------------------------- *)

type traced = { outcome : outcome; layers : Layers.t; windows_s : float; build_s : float; runs : int; windows : int }

let timed_value f =
  let t0 = Layers.now () in
  let r = f () in
  (r, Layers.now () -. t0)

let traced plan =
  let st = Layers.create () in
  let t0 = Layers.now () in
  let device = device plan in
  let rng = profiling_rng plan in
  (* an enabled context on a null sink: only its counters are read *)
  let obs = Obs.Ctx.create ~sink:Obs.Sink.null () in
  let raw, windows_s =
    timed_value (fun () -> Campaign.profiling_windows ~per_value:plan.size.per_value ~obs device rng)
  in
  let prof, build_s =
    timed_value (fun () ->
        Profiling.profile_of_windows ~poi_count:Constants.default_poi_count
          ~sign_poi_count:Constants.default_sign_poi_count raw)
  in
  let runs = Obs.Metrics.counter_value (Obs.Ctx.counter obs "profiling.runs") in
  Obs.Ctx.close obs;
  let _, _, classes = raw in
  let windows = List.fold_left (fun acc (_, rows) -> acc + Array.length rows) 0 classes in
  let ctx = Grading.make_ctx ~classifier:(Layers.classifier st prof) prof in
  let segmenter = Layers.segmenter st in
  let attack (a : Pipeline.acquired) =
    let retry = Option.map (Layers.remeasure st) a.Pipeline.remeasure in
    Grading.attack_resilient ~gate:Grading.default_gate ~ctx ~segmenter ?retry prof ~samples:a.Pipeline.samples
      ~noises:a.Pipeline.noises
  in
  let t1 = Layers.now () in
  let w0 = Gc.minor_words () in
  let source =
    match plan.kind with
    | Replay -> Source.archive_replay (archive_path plan)
    | Live | Faulted -> live_source plan device rng
  in
  let per_trace = ref [] and skipped = ref 0 and errors = ref [] in
  let rec pull () =
    match Layers.timed st.Layers.decode Pipeline.next_item source with
    | exception e -> errors := describe e :: !errors
    | `End -> ()
    | `Skip _ ->
        st.Layers.records <- st.Layers.records + 1;
        incr skipped;
        pull ()
    | `Item it ->
        st.Layers.records <- st.Layers.records + 1;
        (match
           let a = Layers.timed st.Layers.acquire it.Pipeline.acquire () in
           st.Layers.samples <- st.Layers.samples + Mathkit.Fvec.length a.Pipeline.samples;
           Layers.timed st.Layers.grade attack a
         with
        | results -> per_trace := results :: !per_trace
        | exception e -> errors := describe e :: !errors);
        pull ()
  in
  Fun.protect ~finally:(fun () -> Pipeline.close_source source) pull;
  let results = Array.concat (List.rev !per_trace) in
  let stats = Layers.timed st.Layers.tally (Campaign.stats_of_results ~corrupt_skipped:!skipped prof) results in
  let w1 = Gc.minor_words () in
  let t2 = Layers.now () in
  let security = sink prof results in
  let t3 = Layers.now () in
  let outcome =
    {
      setup_s = t1 -. t0;
      attack_s = t2 -. t1;
      sink_s = t3 -. t2;
      campaign_s = t3 -. t0;
      attack_words = w1 -. w0;
      prof;
      results;
      stats;
      lost = attempted plan - Array.length results;
      errors = List.rev !errors;
      security;
    }
  in
  { outcome; layers = st; windows_s; build_s; runs; windows }

(* The profile cache bytes — the identity the split profiling path must
   reproduce. *)
let profile_bytes plan tag prof =
  let path = Filename.concat plan.work_dir (Printf.sprintf "profile-%s-%Ld.bin" tag plan.seed) in
  Campaign.save_profile path prof;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  bytes

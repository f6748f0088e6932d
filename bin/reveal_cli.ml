(* reveal — command-line front end.

   Subcommands:
     disasm        print the RV32IM listing of a sampler firmware variant
     trace         capture one sampler power trace (ASCII plot / CSV)
     profile       build attack templates and cache them to disk
     attack        run the single-trace attack once and print per-coefficient results
     record        capture a campaign of honest traces into a binary archive
     replay-attack re-run the single-trace attack offline, from an archive
     inspect       validate an archive and print its header / record summary
     fault-sweep   sweep measurement-fault intensity, report graceful degradation
     lint          constant-time lint of the sampler firmware
     srclint       determinism / domain-safety lint of the pipeline's own OCaml source
     estimate      DBDD security estimates for SEAL parameter sets with hint counts
     report        render any experiment artefact of the paper (text or JSON)
     worker        attack one shard of a campaign, write a shard result file
     shard         run a campaign sharded over N worker processes, merge deterministically
     obs           summarize / merge / export observability traces
     monitor       watch a worker fleet's telemetry live, or replay recorded streams
     trial         run one randomized-campaign trial scenario, print its typed verdict
     fuzz          run a randomized trial campaign, surface novel deduped failures
     reduce        shrink a failing trial archive to a minimal reproducer

   Every subcommand accepts --json: one JSON object (or array) on
   stdout, progress chatter suppressed, same exit codes.

   Exit codes: 0 success; 1 attack/check failure (including a shard
   that exhausted its retry budget); 2 usage error; 3 I/O error or
   corrupt input. *)

open Cmdliner

let seed_arg =
  let doc = "PRNG seed (all randomness is explicit and reproducible)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let n_arg default =
  let doc = "Number of coefficients the firmware samples per run." in
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc)

let variant_arg =
  let doc = "Sampler variant: v32 (vulnerable), v36 (branchless), shuffled or cdt (constant-time CDT)." in
  let variant_conv =
    Arg.enum
      [
        ("v32", Riscv.Sampler_prog.Vulnerable);
        ("v36", Riscv.Sampler_prog.Branchless);
        ("shuffled", Riscv.Sampler_prog.Shuffled);
        ("cdt", Riscv.Sampler_prog.Cdt_table);
      ]
  in
  Arg.(value & opt variant_conv Riscv.Sampler_prog.Vulnerable & info [ "variant" ] ~docv:"VARIANT" ~doc)

let json_arg =
  let doc = "Emit one machine-readable JSON value on stdout instead of the human-readable report." in
  Arg.(value & flag & info [ "json" ] ~doc)

let rng_of_seed seed = Mathkit.Prng.create ~seed:(Int64.of_int seed) ()

(* --- observability ----------------------------------------------------- *)

let obs_out_arg =
  let doc = "Write a structured observability trace (JSON Lines: spans, events, final metrics) to $(docv); summarize it with $(b,reveal obs summarize)." in
  Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"FILE" ~doc)

let obs_clock_arg =
  let doc = "Observability clock: $(b,wall) (monotonic seconds) or $(b,logical) (deterministic ticks, for reproducible traces)." in
  Arg.(
    value
    & opt (Arg.enum [ ("wall", Obs.Clock.Wall); ("logical", Obs.Clock.Logical) ]) Obs.Clock.Wall
    & info [ "obs-clock" ] ~docv:"CLOCK" ~doc)

let obs_stream_arg =
  let doc =
    "Stream the observability trace live as CRC-framed telemetry to $(docv) — a fabric endpoint (\"unix:PATH\" or \
     \"tcp:HOST:PORT\", attach $(b,reveal monitor --listen) there first) or a plain file path, replayable with \
     $(b,reveal monitor FILE). Combines with $(b,--obs-out): both carry the identical event sequence."
  in
  Arg.(value & opt (some string) None & info [ "obs-stream" ] ~docv:"DEST" ~doc)

let obs_source_arg =
  let doc =
    "Name stamped into the trace's start record so a fleet aggregator can tell worker streams apart (e.g. \
     $(b,shard-0))."
  in
  Arg.(value & opt (some string) None & info [ "obs-source" ] ~docv:"NAME" ~doc)

let obs_args =
  Term.(
    const (fun out clock stream source -> (out, clock, stream, source))
    $ obs_out_arg $ obs_clock_arg $ obs_stream_arg $ obs_source_arg)

(* The --obs-stream sink: a live fabric connection when DEST parses as
   an endpoint, else a plain file carrying the same framed stream.
   Events ride a bounded queue to a background sender, so a slow or
   dead monitor never stalls the pipeline (drops are counted). *)
let stream_sink dest =
  let framed oc close_channel =
    let sender = Traceio.Wire.create_telemetry_sender ~peer:dest oc in
    Obs.Sink.stream
      ~send:(Traceio.Wire.telemetry_send sender)
      ~close:(fun () ->
        Traceio.Wire.telemetry_finish sender;
        close_channel ())
      ()
  in
  try
    match Fabric.Transport.parse dest with
    | Ok ep ->
        let conn = Fabric.Transport.connect ~retries:8 ep in
        framed conn.Fabric.Transport.oc (fun () -> Fabric.Transport.close_connection conn)
    | Error _ ->
        let oc =
          try open_out_bin dest
          with Sys_error msg -> failwith (Printf.sprintf "cannot write %s: %s" dest msg)
        in
        framed oc (fun () -> close_out oc)
  with
  | (Traceio.Error.Io _ | Traceio.Error.Corrupt _) as e ->
      prerr_endline ("reveal: --obs-stream: " ^ Traceio.Error.to_string e);
      exit 3
  | Failure msg ->
      prerr_endline ("reveal: --obs-stream: " ^ msg);
      exit 3

(* Every subcommand routes through this wrapper: without --obs-out or
   --obs-stream the disabled context makes every probe a no-op; with
   either the whole body runs inside a [cli.<name>] span and the final
   metrics record is flushed even when the body calls [exit] (close is
   idempotent, so the at_exit and the Fun.protect flush coexist).
   With both, the file and the stream are tee'd under one lock and
   carry the identical line sequence — the monitor's end-of-run
   summary is bit-identical to [obs merge] over the files. *)
let with_obs name (out, clock_kind, stream, source) f =
  if out = None && stream = None then f Obs.Ctx.disabled
  else begin
    let file_sink =
      match out with
      | None -> None
      | Some path -> (
          try Some (Obs.Sink.file path)
          with Failure msg ->
            prerr_endline ("reveal: " ^ msg);
            exit 3)
    in
    let streaming = Option.map stream_sink stream in
    let sink =
      match (file_sink, streaming) with
      | Some a, Some (b, _) -> Obs.Sink.tee a b
      | Some a, None -> a
      | None, Some (b, _) -> b
      | None, None -> assert false
    in
    let clock =
      match clock_kind with Obs.Clock.Wall -> Obs.Clock.wall () | Obs.Clock.Logical -> Obs.Clock.logical ()
    in
    let obs = Obs.Ctx.create ?source ~clock ~sink () in
    at_exit (fun () -> Obs.Ctx.close obs);
    Fun.protect
      ~finally:(fun () ->
        Obs.Ctx.close obs;
        match streaming with
        | Some (_, drops) ->
            let d = drops () in
            if d > 0 then Printf.eprintf "reveal: obs stream: %d event(s) dropped\n" d
        | None -> ())
      (fun () -> Obs.Ctx.span obs ("cli." ^ name) (fun () -> f obs))
  end

(* --- disasm ------------------------------------------------------------ *)

let disasm variant n json obsa =
  with_obs "disasm" obsa @@ fun _obs ->
  let prog = Riscv.Sampler_prog.build ~variant ~n ~k:1 () in
  if json then
    Reveal.Report.(
      print
        (Obj
           [
             ("variant", String (Traceio.Archive.variant_name variant));
             ("n", Int n);
             ("instructions", Int (Array.length prog.Riscv.Asm.words));
             ("listing", List (List.map (fun l -> String l) prog.Riscv.Asm.listing));
           ]))
  else begin
    List.iter print_endline prog.Riscv.Asm.listing;
    Printf.printf "; %d instructions\n" (Array.length prog.Riscv.Asm.words)
  end

let disasm_cmd =
  let doc = "Print the RV32IM assembly listing of the sampler firmware." in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const disasm $ variant_arg $ n_arg 4 $ json_arg $ obs_args)

(* --- trace -------------------------------------------------------------- *)

let trace seed variant n csv json obsa =
  with_obs "trace" obsa @@ fun _obs ->
  let rng = rng_of_seed seed in
  let device = Reveal.Device.create ~variant ~n () in
  let run =
    if variant = Riscv.Sampler_prog.Shuffled then begin
      let perm = Array.init n (fun i -> i) in
      Mathkit.Prng.shuffle rng perm;
      Reveal.Device.run_shuffled device ~scope_rng:rng ~sampler_rng:rng ~perm
    end
    else Reveal.Device.run_gaussian device ~scope_rng:rng ~sampler_rng:rng
  in
  let bursts =
    Sca.Segment.burst_regions Sca.Segment.default (Mathkit.Fvec.of_array run.Reveal.Device.trace.Power.Ptrace.samples)
  in
  if json then begin
    (match csv with Some path -> Power.Ptrace.save_csv path run.Reveal.Device.trace | None -> ());
    Reveal.Report.(
      print
        (Obj
           ([
              ("noises", List (Array.to_list (Array.map (fun v -> Int v) run.Reveal.Device.noises)));
              ("samples", Int (Power.Ptrace.length run.Reveal.Device.trace));
              ("peaks", Int (Array.length bursts));
            ]
           @ match csv with Some path -> [ ("csv", String path) ] | None -> [])))
  end
  else begin
    Printf.printf "sampled noises: %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int run.Reveal.Device.noises)));
    (match csv with
    | Some path ->
        Power.Ptrace.save_csv path run.Reveal.Device.trace;
        Printf.printf "trace written to %s (%d samples)\n" path (Power.Ptrace.length run.Reveal.Device.trace)
    | None -> print_string (Power.Ptrace.ascii_plot ~width:110 ~height:16 run.Reveal.Device.trace.Power.Ptrace.samples));
    Printf.printf "%d distribution-call peaks detected\n" (Array.length bursts)
  end

let trace_cmd =
  let doc = "Capture one power trace of the sampler and plot or dump it." in
  let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write the trace as CSV.") in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const trace $ seed_arg $ variant_arg $ n_arg 4 $ csv $ json_arg $ obs_args)

(* --- profile ----------------------------------------------------------------- *)

let profile_cmd_impl seed n per_value out json obsa =
  with_obs "profile" obsa @@ fun obs ->
  let rng = rng_of_seed seed in
  let device = Reveal.Device.create ~n () in
  if not json then Printf.printf "profiling (%d windows per candidate value, n = %d)...\n%!" per_value n;
  let prof = Reveal.Campaign.profile ~per_value ~obs device rng in
  Reveal.Campaign.save_profile out prof;
  if json then
    Reveal.Report.(
      print
        (Obj
           [
             ("out", String out);
             ("n", Int n);
             ("per_value", Int per_value);
             ("window_length", Int prof.Reveal.Campaign.window_length);
             ("sigma", Float prof.Reveal.Campaign.sigma);
           ]))
  else Printf.printf "profile saved to %s (window length %d)\n" out prof.Reveal.Campaign.window_length

let profile_cmd =
  let doc = "Build attack templates on a clone device and cache them to disk." in
  let out = Arg.(value & opt string "reveal_profile.bin" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Cache file.") in
  let per_value = Arg.(value & opt int 400 & info [ "per-value" ] ~docv:"K" ~doc:"Profiling windows per value.") in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const profile_cmd_impl $ seed_arg $ n_arg 128 $ per_value $ out $ json_arg $ obs_args)

(* --- attack --------------------------------------------------------------- *)

(* Exit-code policy, kept consistent across subcommands:
     0  success
     1  the attack / check itself failed (recovery below threshold,
        sweep invariant violated)
     2  usage error (bad arguments, impossible configuration)
     3  I/O error or corrupt input (archive, profile cache)
   Archive and profile-cache failures carry user-actionable messages;
   print them without a backtrace. *)
let traceio_guard f =
  try f () with
  | Traceio.Error.Corrupt _ | Traceio.Error.Io _ as e ->
      prerr_endline ("reveal: " ^ Traceio.Error.to_string e);
      exit 3
  | Invalid_argument msg ->
      prerr_endline ("reveal: " ^ msg);
      exit 2

let coefficient_json i (r : Reveal.Campaign.coefficient_result) =
  Reveal.Report.(
    Obj
      [
        ("index", Int i);
        ("actual", Int r.Reveal.Campaign.actual);
        ("recovered", Int r.Reveal.Campaign.verdict.Sca.Attack.value);
        ("sign", Int r.Reveal.Campaign.verdict.Sca.Attack.sign);
      ])

let attack seed n per_value cached verbose json obsa =
  with_obs "attack" obsa @@ fun obs ->
  traceio_guard @@ fun () ->
  let rng = rng_of_seed seed in
  let device = Reveal.Device.create ~n () in
  let prof =
    match cached with
    | Some path ->
        if not json then Printf.printf "loading cached profile from %s\n%!" path;
        Reveal.Campaign.load_profile path
    | None ->
        if not json then Printf.printf "profiling (%d windows per candidate value)...\n%!" per_value;
        Reveal.Campaign.profile ~per_value ~obs device rng
  in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  let run = Reveal.Device.run_gaussian device ~scope_rng ~sampler_rng in
  let results = Reveal.Campaign.attack_trace prof run in
  let sign_ok = ref 0 and value_ok = ref 0 in
  Array.iteri
    (fun i r ->
      let v = r.Reveal.Campaign.verdict in
      if compare r.Reveal.Campaign.actual 0 = v.Sca.Attack.sign then incr sign_ok;
      if r.Reveal.Campaign.actual = v.Sca.Attack.value then incr value_ok;
      if verbose && not json then
        Printf.printf "coeff %4d: actual %3d -> recovered %3d %s\n" i r.Reveal.Campaign.actual v.Sca.Attack.value
          (if r.Reveal.Campaign.actual = v.Sca.Attack.value then "" else "x"))
    results;
  if json then
    Reveal.Report.(
      print
        (Obj
           ([ ("n", Int n); ("sign_correct", Int !sign_ok); ("value_correct", Int !value_ok) ]
           @
           if verbose then
             [ ("coefficients", List (Array.to_list (Array.mapi coefficient_json results))) ]
           else [])))
  else Printf.printf "single-trace attack over %d coefficients: signs %d/%d, values %d/%d\n" n !sign_ok n !value_ok n

let attack_cmd =
  let doc = "Run the single-trace attack on one honest sampling." in
  let per_value = Arg.(value & opt int 300 & info [ "per-value" ] ~docv:"K" ~doc:"Profiling windows per value.") in
  let cached = Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc:"Use a cached profile (see the profile command).") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every coefficient.") in
  Cmd.v (Cmd.info "attack" ~doc)
    Term.(const attack $ seed_arg $ n_arg 128 $ per_value $ cached $ verbose $ json_arg $ obs_args)

(* --- record ------------------------------------------------------------- *)

(* The rng derivation (create, split scope, split sampler) matches the
   attack command exactly, so `record --seed S --traces 1` captures the
   very trace `attack --seed S --profile …` attacks live. *)
let record seed variant n traces out json obsa =
  with_obs "record" obsa @@ fun obs ->
  traceio_guard (fun () ->
      let rng = rng_of_seed seed in
      let device = Reveal.Device.create ~variant ~n () in
      let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
      Reveal.Device.record ~obs device ~path:out ~seed:(Int64.of_int seed) ~traces ~scope_rng ~sampler_rng;
      if json then
        Reveal.Report.(
          print
            (Obj
               [
                 ("out", String out);
                 ("traces", Int traces);
                 ("n", Int n);
                 ("variant", String (Traceio.Archive.variant_name variant));
                 ("bytes", Int (Traceio.Archive.file_size out));
               ]))
      else
        Printf.printf "recorded %d traces (n = %d, %s) to %s (%d bytes)\n" traces n
          (Traceio.Archive.variant_name variant) out (Traceio.Archive.file_size out))

let record_cmd =
  let doc = "Capture a campaign of honest sampler traces into a binary archive." in
  let traces = Arg.(value & opt int 16 & info [ "traces" ] ~docv:"T" ~doc:"Number of traces to record.") in
  let out = Arg.(value & opt string "campaign.rvt" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Archive file.") in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(const record $ seed_arg $ variant_arg $ n_arg 128 $ traces $ out $ json_arg $ obs_args)

(* --- replay-attack ------------------------------------------------------- *)

let replay_attack archive cached per_value profile_seed strict min_values verbose json obsa =
  with_obs "replay-attack" obsa @@ fun obs ->
  traceio_guard (fun () ->
      let header = Traceio.Archive.with_reader archive Traceio.Archive.header in
      if not json then
        Printf.printf "archive %s: %d traces, n = %d, %s, seed %Ld\n" archive header.Traceio.Archive.trace_count
          header.Traceio.Archive.n
          (Traceio.Archive.variant_name header.Traceio.Archive.variant)
          header.Traceio.Archive.seed;
      let prof =
        match cached with
        | Some path ->
            if not json then Printf.printf "loading cached profile from %s\n%!" path;
            Reveal.Campaign.load_profile path
        | None ->
            (* profile on a clone device matching the archive's header *)
            let device = Reveal.Device.of_header header in
            if not json then Printf.printf "profiling clone device (%d windows per candidate value)...\n%!" per_value;
            Reveal.Campaign.profile ~per_value ~obs device (rng_of_seed profile_seed)
      in
      let stats, results = Reveal.Campaign.attack_archive ~strict ~obs prof archive in
      (* With an enabled obs context, carry the campaign all the way to
         the sink so the trace records the final graded-hint and bikz
         metrics too. *)
      if Obs.Ctx.enabled obs && Array.length results > 0 then begin
        let hints =
          Reveal.Sink.hints_of_results results (Array.length results) (fun i r ->
              Reveal.Campaign.hint_of_result ~sigma:prof.Reveal.Campaign.sigma ~coordinate:i r)
        in
        ignore (Reveal.Sink.security_of_hints ~obs hints)
      end;
      if verbose && not json then
        Array.iteri
          (fun i r ->
            let v = r.Reveal.Campaign.verdict in
            Printf.printf "coeff %4d: actual %3d -> recovered %3d %s\n" i r.Reveal.Campaign.actual
              v.Sca.Attack.value
              (if r.Reveal.Campaign.actual = v.Sca.Attack.value then "" else "x"))
          results;
      let replayed = header.Traceio.Archive.trace_count - stats.Reveal.Campaign.corrupt_skipped in
      let value_rate =
        if stats.Reveal.Campaign.value_total = 0 then 0.0
        else float_of_int stats.Reveal.Campaign.value_correct /. float_of_int stats.Reveal.Campaign.value_total
      in
      if json then
        Reveal.Report.(
          print
            (Obj
               ([
                  ("archive", String archive);
                  ("replayed", Int replayed);
                  ("n", Int header.Traceio.Archive.n);
                  ("sign_correct", Int stats.Reveal.Campaign.sign_correct);
                  ("sign_total", Int stats.Reveal.Campaign.sign_total);
                  ("value_correct", Int stats.Reveal.Campaign.value_correct);
                  ("value_total", Int stats.Reveal.Campaign.value_total);
                  ("out_of_range", Int stats.Reveal.Campaign.skipped_out_of_range);
                  ("corrupt_skipped", Int stats.Reveal.Campaign.corrupt_skipped);
                  ("value_rate", Float value_rate);
                ]
               @
               if verbose then
                 [ ("coefficients", List (Array.to_list (Array.mapi coefficient_json results))) ]
               else [])))
      else begin
        Printf.printf
          "replayed attack over %d traces x %d coefficients: signs %d/%d, values %d/%d (%d out of template range)\n"
          replayed header.Traceio.Archive.n stats.Reveal.Campaign.sign_correct
          stats.Reveal.Campaign.sign_total stats.Reveal.Campaign.value_correct stats.Reveal.Campaign.value_total
          stats.Reveal.Campaign.skipped_out_of_range;
        if stats.Reveal.Campaign.corrupt_skipped > 0 then
          Printf.printf "%d corrupt record(s) skipped mid-stream\n" stats.Reveal.Campaign.corrupt_skipped
      end;
      if value_rate < min_values then begin
        Printf.eprintf "reveal: value recovery rate %.3f below required %.3f\n" value_rate min_values;
        exit 1
      end)

let replay_attack_cmd =
  let doc = "Re-run the single-trace attack offline from a recorded archive." in
  let archive = Arg.(required & pos 0 (some string) None & info [] ~docv:"ARCHIVE" ~doc:"Trace archive (see record).") in
  let cached = Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc:"Use a cached profile.") in
  let per_value = Arg.(value & opt int 300 & info [ "per-value" ] ~docv:"K" ~doc:"Profiling windows per value.") in
  let profile_seed = Arg.(value & opt int 42 & info [ "profile-seed" ] ~docv:"SEED" ~doc:"Seed for on-the-fly profiling.") in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Fail fast (exit 3) on the first corrupt record instead of skipping it.")
  in
  let min_values =
    Arg.(
      value
      & opt float 0.0
      & info [ "min-values" ] ~docv:"RATE"
          ~doc:"Exit 1 when the value recovery rate falls below $(docv) (a fraction in [0,1]).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every coefficient.") in
  Cmd.v (Cmd.info "replay-attack" ~doc)
    Term.(
      const replay_attack $ archive $ cached $ per_value $ profile_seed $ strict $ min_values $ verbose $ json_arg
      $ obs_args)

(* --- inspect -------------------------------------------------------------- *)

let inspect path show_records json obsa =
  with_obs "inspect" obsa @@ fun obs ->
  traceio_guard (fun () ->
      let size = Traceio.Archive.file_size path in
      Traceio.Archive.with_reader ~obs path (fun reader ->
          let h = Traceio.Archive.header reader in
          if not json then begin
            Printf.printf "%s: reveal trace archive (format v1), %d bytes\n" path size;
            Printf.printf "  variant            %s\n" (Traceio.Archive.variant_name h.Traceio.Archive.variant);
            Printf.printf "  coefficients/run   %d\n" h.Traceio.Archive.n;
            Printf.printf "  campaign seed      %Ld\n" h.Traceio.Archive.seed;
            Printf.printf "  samples/cycle      %d\n" h.Traceio.Archive.samples_per_cycle;
            Printf.printf "  scope noise sigma  %.4f\n" h.Traceio.Archive.noise_sigma;
            Printf.printf "  traces             %d\n" h.Traceio.Archive.trace_count;
            List.iter (fun (k, v) -> Printf.printf "  meta %-18s %s\n" k v) h.Traceio.Archive.meta
          end;
          let total_samples = ref 0 and raw = ref 0 in
          let record_rows = ref [] in
          let rec loop () =
            match Traceio.Archive.next reader with
            | None -> ()
            | Some r ->
                let len = Power.Ptrace.length r.Traceio.Archive.trace in
                let events = Array.length r.Traceio.Archive.trace.Power.Ptrace.event_start in
                total_samples := !total_samples + len;
                (* what a naive 64-bit dump of the same record costs *)
                raw := !raw + (8 * (len + (2 * events) + Array.length r.Traceio.Archive.noises));
                if show_records then
                  if json then
                    record_rows :=
                      Reveal.Report.(
                        Obj
                          [
                            ("index", Int r.Traceio.Archive.index);
                            ("samples", Int len);
                            ("events", Int events);
                            ("mean_power", Float (Power.Ptrace.mean r.Traceio.Archive.trace));
                          ])
                      :: !record_rows
                  else
                    Printf.printf "  record %4d: %6d samples, %5d events, mean power %8.2f\n" r.Traceio.Archive.index
                      len events
                      (Power.Ptrace.mean r.Traceio.Archive.trace);
                loop ()
          in
          loop ();
          if json then
            Reveal.Report.(
              print
                (Obj
                   ([
                      ("path", String path);
                      ("bytes", Int size);
                      ("variant", String (Traceio.Archive.variant_name h.Traceio.Archive.variant));
                      ("n", Int h.Traceio.Archive.n);
                      ("seed", String (Int64.to_string h.Traceio.Archive.seed));
                      ("samples_per_cycle", Int h.Traceio.Archive.samples_per_cycle);
                      ("noise_sigma", Float h.Traceio.Archive.noise_sigma);
                      ("traces", Int h.Traceio.Archive.trace_count);
                      ("meta", Obj (List.map (fun (k, v) -> (k, String v)) h.Traceio.Archive.meta));
                      ("total_samples", Int !total_samples);
                      ("raw_bytes", Int !raw);
                      ("checksums_verified", Bool true);
                    ]
                   @ if show_records then [ ("records", List (List.rev !record_rows)) ] else [])))
          else begin
            Printf.printf "all %d record checksums verified\n" h.Traceio.Archive.trace_count;
            if !raw > 0 then
              Printf.printf "%d samples total; %d bytes on disk vs %d raw 64-bit dump (%.2fx compression)\n"
                !total_samples size !raw
                (float_of_int !raw /. float_of_int size)
          end))

let inspect_cmd =
  let doc = "Validate every checksum of a trace archive and print its contents." in
  let archive = Arg.(required & pos 0 (some string) None & info [] ~docv:"ARCHIVE" ~doc:"Trace archive.") in
  let records = Arg.(value & flag & info [ "records" ] ~doc:"Print a line per record.") in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const inspect $ archive $ records $ json_arg $ obs_args)

(* --- fault-sweep ------------------------------------------------------------- *)

let fault_sweep seed n per_value traces intensities check json obsa =
  with_obs "fault-sweep" obsa @@ fun _obs ->
  traceio_guard (fun () ->
      let config =
        { Reveal.Experiment.seed = Int64.of_int seed; device_n = n; per_value; attack_traces = traces }
      in
      let intensities = Option.map Array.of_list intensities in
      let rows = Reveal.Experiment.fault_sweep ?intensities config in
      if json then begin
        let fields = ref [ ("rows", (Reveal.Experiment.fault_sweep_doc rows).Reveal.Report.json) ] in
        if check then begin
          (match Reveal.Experiment.fault_sweep_check rows with
          | Ok () -> ()
          | Error msg ->
              Printf.eprintf "reveal: fault sweep violates invariants:\n%s\n" msg;
              exit 1);
          let zc = Reveal.Experiment.fault_zero_consistency config in
          if
            zc.Reveal.Experiment.verdict_mismatches > 0
            || zc.Reveal.Experiment.grade_downgrades > 0
            || zc.Reveal.Experiment.bikz_classic <> zc.Reveal.Experiment.bikz_graded
          then begin
            prerr_endline "reveal: zero-intensity pipeline diverges from the clean attack";
            exit 1
          end;
          fields :=
            !fields
            @ [
                ("invariants_ok", Reveal.Report.Bool true);
                ("zero_consistency", (Reveal.Experiment.zero_consistency_doc zc).Reveal.Report.json);
              ]
        end;
        Reveal.Report.(print (Obj !fields))
      end
      else begin
        print_string (Reveal.Experiment.render_fault_sweep rows);
        if check then begin
          (match Reveal.Experiment.fault_sweep_check rows with
          | Ok () -> print_endline "sweep invariants hold: recovery monotone, bikz never under-reported"
          | Error msg ->
              Printf.eprintf "reveal: fault sweep violates invariants:\n%s\n" msg;
              exit 1);
          let zc = Reveal.Experiment.fault_zero_consistency config in
          print_string (Reveal.Experiment.render_zero_consistency zc);
          if
            zc.Reveal.Experiment.verdict_mismatches > 0
            || zc.Reveal.Experiment.grade_downgrades > 0
            || zc.Reveal.Experiment.bikz_classic <> zc.Reveal.Experiment.bikz_graded
          then begin
            prerr_endline "reveal: zero-intensity pipeline diverges from the clean attack";
            exit 1
          end;
          print_endline "zero-intensity attack is bit-identical to the clean pipeline"
        end
      end)

let fault_sweep_cmd =
  let doc = "Sweep measurement-fault intensity and report graceful degradation." in
  let per_value = Arg.(value & opt int 300 & info [ "per-value" ] ~docv:"K" ~doc:"Profiling windows per value.") in
  let traces = Arg.(value & opt int 8 & info [ "traces" ] ~docv:"T" ~doc:"Attack traces per intensity.") in
  let intensities =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "intensities" ] ~docv:"I,I,..."
          ~doc:"Comma-separated fault intensities (default 0,0.25,0.5,0.75,1).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Verify the sweep invariants (recovery monotone non-increasing, bikz never under-reported) and that zero \
             intensity reproduces the clean pipeline exactly; exit 1 on violation.")
  in
  Cmd.v (Cmd.info "fault-sweep" ~doc)
    Term.(const fault_sweep $ seed_arg $ n_arg 128 $ per_value $ traces $ intensities $ check $ json_arg $ obs_args)

(* --- lint ----------------------------------------------------------------- *)

let lint variant n k no_confirm check verbose json obsa =
  with_obs "lint" obsa @@ fun _obs ->
  traceio_guard (fun () ->
      if n <= 0 || k <= 0 then invalid_arg "lint: n and k must be positive";
      let report = Ctcheck.Lint.analyze_variant ~n ~k ~confirm:(not no_confirm) variant in
      if json then begin
        let violations = Ctcheck.Lint.violations report in
        let drift = if check then Ctcheck.Lint.check report else [] in
        let ok = if check then drift = [] else violations = [] in
        Reveal.Report.(
          print
            (Obj
               [
                 ("variant", String (Traceio.Archive.variant_name variant));
                 ( "findings",
                   List (List.map (fun f -> Ctcheck.Render.to_json (Ctcheck.Finding.to_row f)) report.Ctcheck.Lint.findings)
                 );
                 ("violations", Int (List.length violations));
                 ( "confirmed",
                   Int (List.length (List.filter Ctcheck.Finding.is_confirmed report.Ctcheck.Lint.findings)) );
                 ("drift", List (List.map (fun d -> String d) drift));
                 ("ok", Bool ok);
               ]));
        if not ok then exit 1
      end
      else begin
        print_string (Ctcheck.Lint.render ~verbose report);
        if check then
          match Ctcheck.Lint.check report with
          | [] -> print_endline "verdict table check: OK"
          | drift ->
              List.iter (fun d -> Printf.eprintf "reveal: verdict drift: %s\n" d) drift;
              exit 1
        else if Ctcheck.Lint.violations report <> [] then exit 1
      end)

let lint_cmd =
  let doc = "Constant-time lint of the sampler firmware, with differential-trace confirmation." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Recovers the control-flow graph from the encoded firmware, runs a secret-taint dataflow analysis seeded at \
         the entropy MMIO ports, and reports secret-dependent branches, memory addresses and path-length imbalances \
         (violations) plus secret data crossing the memory bus (leak surface). Every static finding is then \
         adversarially confirmed by executing the firmware under pairs of secrets and diffing the per-finding trace \
         signatures.";
      `P
        "Without $(b,--check) the exit code is the verdict: 0 when constant-time (no violations), 1 otherwise. With \
         $(b,--check) the findings are instead compared against the expected leakage taxonomy of the selected \
         variant and any drift exits 1.";
    ]
  in
  let k = Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Number of RNS planes the firmware writes.") in
  let no_confirm =
    Arg.(value & flag & info [ "no-confirm" ] ~doc:"Skip the differential oracle; report static findings only.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Compare the findings against the variant's expected verdict table; exit 1 on drift.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Append the annotated listing.") in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(const lint $ variant_arg $ n_arg 4 $ k $ no_confirm $ check $ verbose $ json_arg $ obs_args)

(* --- srclint ---------------------------------------------------------------- *)

let srclint paths check json obsa =
  with_obs "srclint" obsa @@ fun _obs ->
  let paths = if paths = [] then [ "lib"; "bin" ] else paths in
  match Srclint.Driver.lint_paths paths with
  | Error msg ->
      Printf.eprintf "reveal: srclint: %s\n" msg;
      exit 2
  | Ok report ->
      let drift = if check then Srclint.Driver.drift report else [] in
      let ok = if check then drift = [] else Srclint.Driver.clean report in
      if json then begin
        Reveal.Report.print (Srclint.Driver.to_json report ~drift ~ok);
        if not ok then exit 1
      end
      else begin
        print_string (Srclint.Driver.render report);
        if check then
          match drift with
          | [] -> print_endline "expect table check: OK"
          | ds ->
              List.iter (fun d -> Printf.eprintf "reveal: srclint drift: %s\n" d) ds;
              exit 1
        else if not ok then exit 1
      end

let srclint_cmd =
  let doc = "Determinism and domain-safety lint of the pipeline's own OCaml source." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every $(b,.ml) file under the given paths with the compiler's own front end and reports four rule \
         classes, all syntactic and deliberately conservative: $(b,nondet-source) (ambient randomness, wall-clock and \
         scheduling reads), $(b,hashtbl-order) (hash-order iteration that is not visibly sorted before it can reach \
         emitted output), $(b,domain-capture) (Domain.spawn closures touching mutable state with no synchronizer in \
         scope) and $(b,exn-message) (matching or comparing exception message strings instead of exception families).";
      `P
        "A finding at a provably-benign site is suppressed with an in-source directive comment \"srclint: allow RULE \
         reason\" on the line above (or on) the site; the reason is mandatory and an allow that suppresses nothing is \
         itself reported, so the suppression table cannot rot. Fixture files assert their expected findings with \
         \"srclint: expect RULE\" directives, checked by $(b,--check).";
      `P
        "Exit codes: 0 when clean (or, with $(b,--check), when the findings match the expect table exactly); 1 on \
         findings or drift; 2 on usage errors and unparseable sources. The pipeline's own tree must stay clean — \
         scripts/check.sh runs this over lib/ and bin/ on every gate.";
    ]
  in
  let paths_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc:"Files or directories to lint (default: lib bin).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Compare the findings against the in-source expect directives; exit 1 on drift.")
  in
  Cmd.v (Cmd.info "srclint" ~doc ~man) Term.(const srclint $ paths_arg $ check $ json_arg $ obs_args)

(* --- estimate --------------------------------------------------------------- *)

let estimate perfect sign_only json obsa =
  with_obs "estimate" obsa @@ fun _obs ->
  let lwe = Hints.Lwe.seal_128_1024 in
  let d = Hints.Dbdd.create lwe in
  let bikz0 = Hints.Dbdd.estimate_bikz d in
  if not json then
    Printf.printf "SEAL-128 (q=%d, n=%d): %.2f bikz (~2^%.1f) without hints\n" lwe.Hints.Lwe.q lwe.Hints.Lwe.n bikz0
      (Hints.Bkz_model.security_bits bikz0);
  let hints =
    if sign_only then begin
      let sigma = lwe.Hints.Lwe.sigma_error in
      let p0 = Mathkit.Gaussian.discrete_probability ~sigma 0 in
      let zeros = int_of_float (Float.round (p0 *. float_of_int lwe.Hints.Lwe.m)) in
      let hv = sigma *. sigma *. (1.0 -. (2.0 /. Float.pi)) in
      for i = 0 to lwe.Hints.Lwe.m - 1 do
        if i < zeros then Hints.Dbdd.perfect_hint d i else Hints.Dbdd.posterior_hint d i ~posterior_variance:hv
      done;
      if not json then
        Printf.printf "with sign/zero hints on all %d error coordinates: %.2f bikz (~2^%.1f)\n" lwe.Hints.Lwe.m
          (Hints.Dbdd.estimate_bikz d)
          (Hints.Bkz_model.security_bits (Hints.Dbdd.estimate_bikz d));
      lwe.Hints.Lwe.m
    end
    else begin
      let k = min perfect lwe.Hints.Lwe.m in
      for i = 0 to k - 1 do
        Hints.Dbdd.perfect_hint d i
      done;
      if not json then
        Printf.printf "with %d perfect error hints: %.2f bikz (~2^%.1f)\n" k (Hints.Dbdd.estimate_bikz d)
          (Hints.Bkz_model.security_bits (Hints.Dbdd.estimate_bikz d));
      k
    end
  in
  let bikz1 = Hints.Dbdd.estimate_bikz d in
  if json then
    Reveal.Report.(
      print
        (Obj
           [
             ("q", Int lwe.Hints.Lwe.q);
             ("n", Int lwe.Hints.Lwe.n);
             ("mode", String (if sign_only then "sign-only" else "perfect"));
             ("hints", Int hints);
             ("bikz_no_hints", Float bikz0);
             ("bits_no_hints", Float (Hints.Bkz_model.security_bits bikz0));
             ("bikz_with_hints", Float bikz1);
             ("bits_with_hints", Float (Hints.Bkz_model.security_bits bikz1));
             ( "cost_models",
               Obj (List.map (fun (label, bits) -> (label, Float bits)) (Hints.Bkz_model.cost_summary bikz1)) );
           ]))
  else begin
    print_endline "cost-model conversions of the final block size:";
    List.iter
      (fun (label, bits) -> Printf.printf "  %-30s %7.1f bits\n" label bits)
      (Hints.Bkz_model.cost_summary bikz1)
  end

let estimate_cmd =
  let doc = "DBDD security estimate for SEAL-128 under side-channel hints." in
  let perfect = Arg.(value & opt int 1024 & info [ "perfect" ] ~docv:"K" ~doc:"Number of perfect error hints.") in
  let sign_only = Arg.(value & flag & info [ "sign-only" ] ~doc:"Use branch-vulnerability hints only (Table IV).") in
  Cmd.v (Cmd.info "estimate" ~doc) Term.(const estimate $ perfect $ sign_only $ json_arg $ obs_args)

(* --- report ---------------------------------------------------------------- *)

let report name list_only seed n per_value traces json obsa =
  with_obs "report" obsa @@ fun _obs ->
  if list_only then List.iter print_endline Reveal.Experiment.artefact_names
  else
    match name with
    | None ->
        prerr_endline "reveal: report: missing ARTEFACT argument (use --list for the available names)";
        exit 2
    | Some name -> (
        let config =
          { Reveal.Experiment.seed = Int64.of_int seed; device_n = n; per_value; attack_traces = traces }
        in
        match Reveal.Experiment.artefact name config with
        | Some doc ->
            if json then Reveal.Report.print doc.Reveal.Report.json else print_string doc.Reveal.Report.text
        | None ->
            Printf.eprintf "reveal: report: unknown artefact %s (use --list for the available names)\n" name;
            exit 2)

let report_cmd =
  let doc = "Render one experiment artefact of the paper (tables, figures, ablations)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Every table and figure of the paper's evaluation is registered by name (see $(b,--list)). Each artefact is \
         rendered either as the historical fixed-width text or, with $(b,--json), as a machine-readable JSON value \
         carrying the same rows. Artefacts are deterministic in $(b,--seed) and the campaign-size arguments.";
    ]
  in
  let artefact_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ARTEFACT" ~doc:"Artefact name (see --list).")
  in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List the available artefact names and exit.") in
  let per_value = Arg.(value & opt int 80 & info [ "per-value" ] ~docv:"K" ~doc:"Profiling windows per value.") in
  let traces = Arg.(value & opt int 2 & info [ "traces" ] ~docv:"T" ~doc:"Attack traces for campaign artefacts.") in
  Cmd.v (Cmd.info "report" ~doc ~man)
    Term.(const report $ artefact_arg $ list_only $ seed_arg $ n_arg 64 $ per_value $ traces $ json_arg $ obs_args)

(* --- worker / shard: the distributed campaign fabric -------------------- *)

(* Both the in-process (workers = 1) path and every worker process
   derive their acquisition randomness the same way — a fresh
   generator from the campaign seed, split into scope and sampler
   streams — and [device_live_range] draws the full campaign's seed
   table whatever slice it serves.  Partitioning therefore cannot
   reach the per-trace randomness, which is the first half of the
   determinism argument (DESIGN.md section 13); [Fabric.Shard.merge]
   is the second. *)
let shard_source device ~seed ~traces ~lo ~hi =
  let rng = rng_of_seed seed in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  Reveal.Source.device_live_range ~retry:true device ~traces ~lo ~hi ~scope_rng ~sampler_rng

let worker_impl seed n traces lo hi shard_id profile_path out sabotage obsa =
  with_obs "worker" obsa @@ fun obs ->
  traceio_guard (fun () ->
      if traces <= 0 then invalid_arg "worker: traces must be positive";
      if lo < 0 || hi < lo || hi > traces then
        invalid_arg (Printf.sprintf "worker: shard range [%d,%d) does not fit a %d-trace campaign" lo hi traces);
      let prof = Reveal.Campaign.load_profile profile_path in
      let device = Reveal.Device.create ~n () in
      let source = shard_source device ~seed ~traces ~lo ~hi in
      let stats, results = Reveal.Campaign.run_source ~obs ~expected:((hi - lo) * n) prof source in
      Fabric.Shard.save out
        {
          Fabric.Shard.shard = shard_id;
          range = { Fabric.Shard.lo; hi };
          corrupt_skipped = stats.Reveal.Campaign.corrupt_skipped;
          results;
        };
      if sabotage then begin
        (* test aid: leave a truncated result behind and die the way a
           crashed worker would, so the orchestrator's retry path can
           be exercised from the command line *)
        let size = (Unix.stat out).Unix.st_size in
        Unix.truncate out (max 1 (size / 2));
        Unix.kill (Unix.getpid ()) Sys.sigkill
      end;
      Printf.printf "worker: shard %d wrote %d results ([%d,%d) of %d traces) to %s\n" shard_id
        (Array.length results) lo hi traces out)

let worker_cmd =
  let doc = "Attack one shard of a campaign and write a shard result file (used by shard)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The worker half of $(b,reveal shard): loads a cached profile, re-derives the full campaign seed table from \
         $(b,--seed), attacks only the trace slice [$(b,--shard-lo),$(b,--shard-hi)) and writes a CRC-framed \
         $(b,Fabric.Shard) result file to $(b,--out). Invoked by the orchestrator with stdout and stderr captured \
         to a per-attempt log; it is also a plain subcommand, so a shard can be re-run by hand for debugging.";
    ]
  in
  let traces = Arg.(required & opt (some int) None & info [ "traces" ] ~docv:"T" ~doc:"Total campaign trace count.") in
  let lo = Arg.(required & opt (some int) None & info [ "shard-lo" ] ~docv:"LO" ~doc:"First trace index of the shard.") in
  let hi =
    Arg.(required & opt (some int) None & info [ "shard-hi" ] ~docv:"HI" ~doc:"One past the last trace index of the shard.")
  in
  let shard_id = Arg.(value & opt int 0 & info [ "shard-id" ] ~docv:"I" ~doc:"Shard position in the plan.") in
  let profile_path =
    Arg.(required & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc:"Cached profile (see profile).")
  in
  let out = Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Shard result file.") in
  let sabotage =
    Arg.(
      value & flag
      & info [ "sabotage" ]
          ~doc:"Test aid: after writing a deliberately truncated result file, kill this process with SIGKILL.")
  in
  Cmd.v (Cmd.info "worker" ~doc ~man)
    Term.(
      const worker_impl $ seed_arg $ n_arg 128 $ traces $ lo $ hi $ shard_id $ profile_path $ out $ sabotage
      $ obs_args)

let shard_impl seed n per_value traces workers retries timeout work_dir keep sabotage obs_dir telemetry json obsa =
  with_obs "shard" obsa @@ fun obs ->
  traceio_guard (fun () ->
      if traces <= 0 then invalid_arg "shard: traces must be positive";
      if workers <= 0 then invalid_arg "shard: workers must be positive";
      if retries < 0 then invalid_arg "shard: retries must be non-negative";
      (match timeout with
      | Some t when t <= 0.0 -> invalid_arg "shard: timeout must be positive"
      | _ -> ());
      (* Progress goes to stderr: stdout carries only campaign-level
         results, byte-identical whatever the worker count. *)
      let chatter fmt = Printf.ksprintf (fun s -> prerr_endline ("shard: " ^ s)) fmt in
      let owned, wd =
        match work_dir with
        | Some d ->
            (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            (false, d)
        | None -> (true, Fabric.Orchestrator.fresh_work_dir ())
      in
      (match obs_dir with
      | Some d -> ( try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
      | None -> ());
      (* On the failure paths below [exit] skips this finaliser, so a
         failed run keeps its work dir (and the per-attempt logs the
         failure records point at) for diagnosis. *)
      Fun.protect ~finally:(fun () -> if owned && not keep then Fabric.Orchestrator.remove_dir wd)
      @@ fun () ->
      chatter "profiling (%d windows per candidate value, n = %d)" per_value n;
      let device = Reveal.Device.create ~n () in
      let built = Reveal.Campaign.profile ~per_value ~obs device (rng_of_seed seed) in
      let profile_path = Filename.concat wd "profile.bin" in
      Reveal.Campaign.save_profile profile_path built;
      (* Attack with the decoded cache in both paths, so the template
         floats in play are byte-identical whether a worker loaded the
         file or we never left this process. *)
      let prof = Reveal.Campaign.load_profile profile_path in
      let stats, results =
        if workers = 1 then begin
          if obs_dir <> None then chatter "note: --obs-dir collects worker traces; with 1 worker none are spawned";
          if telemetry <> None then chatter "note: --telemetry streams worker traces; with 1 worker none are spawned";
          chatter "single worker: running the campaign in-process";
          Reveal.Campaign.run_source ~obs prof (shard_source device ~seed ~traces ~lo:0 ~hi:traces)
        end
        else begin
          let plan = Fabric.Shard.plan ~traces ~workers in
          let command ~shard ~attempt ~range ~out ~log:_ =
            Array.of_list
              ([
                 Sys.executable_name;
                 "worker";
                 "--seed";
                 string_of_int seed;
                 "-n";
                 string_of_int n;
                 "--traces";
                 string_of_int traces;
                 "--shard-id";
                 string_of_int shard;
                 "--shard-lo";
                 string_of_int range.Fabric.Shard.lo;
                 "--shard-hi";
                 string_of_int range.Fabric.Shard.hi;
                 "--profile";
                 profile_path;
                 "--out";
                 out;
               ]
              @ (* both obs destinations share one logical-clock context
                   named after the shard, so a live monitor's merge and
                   [obs merge] over the files fold the same streams *)
              (let obs_flags =
                 (match obs_dir with
                 | Some dir -> [ "--obs-out"; Filename.concat dir (Printf.sprintf "shard-%d.jsonl" shard) ]
                 | None -> [])
                 @ match telemetry with Some dest -> [ "--obs-stream"; dest ] | None -> []
               in
               match obs_flags with
               | [] -> []
               | flags -> flags @ [ "--obs-clock"; "logical"; "--obs-source"; Printf.sprintf "shard-%d" shard ])
              @ if sabotage = Some shard && attempt = 0 then [ "--sabotage" ] else [])
          in
          let config =
            { Fabric.Orchestrator.max_inflight = workers; retries; timeout_s = timeout; work_dir = wd; command }
          in
          chatter "dispatching %d workers over %d traces (work dir %s)" workers traces wd;
          match Fabric.Orchestrator.run config ~plan with
          | Error failures ->
              List.iter
                (fun f -> prerr_endline ("reveal: " ^ Fabric.Orchestrator.describe_failure f))
                failures;
              Printf.eprintf "reveal: shard: a shard exhausted its retry budget; work dir kept at %s\n" wd;
              exit 1
          | Ok report -> (
              List.iter
                (fun f -> chatter "recovered: %s" (Fabric.Orchestrator.describe_failure f))
                report.Fabric.Orchestrator.failures;
              if report.Fabric.Orchestrator.retried > 0 then
                chatter "%d shard(s) needed more than one attempt" report.Fabric.Orchestrator.retried;
              match Fabric.Shard.merge prof (Array.to_list report.Fabric.Orchestrator.results) with
              | Error msg ->
                  Printf.eprintf "reveal: shard: merge failed: %s; work dir kept at %s\n" msg wd;
                  exit 1
              | Ok pair -> pair)
        end
      in
      if Array.length results <> traces * n then begin
        Printf.eprintf "reveal: shard: merged %d results, expected %d (%d traces x %d coefficients)\n"
          (Array.length results) (traces * n) traces n;
        exit 1
      end;
      (* Fold the workers' obs traces into one summary next to them. *)
      (match obs_dir with
      | Some dir when workers > 1 -> (
          let files =
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
            |> List.sort compare
            |> List.map (Filename.concat dir)
          in
          match Obs.Summary.merge_files files with
          | Error msg -> Printf.eprintf "reveal: shard: obs merge: %s\n" msg
          | Ok s ->
              let out = Filename.concat dir "summary.json" in
              let oc = open_out out in
              output_string oc (Reveal.Report.to_string (Obs.Summary.to_json s));
              output_char oc '\n';
              close_out oc;
              chatter "merged %d worker obs traces into %s" (List.length files) out)
      | _ -> ());
      let confident, tentative, sign_only, unknown = Reveal.Campaign.grade_counts results in
      let hints =
        Reveal.Sink.hints_of_results results (Array.length results) (fun i r ->
            Reveal.Campaign.hint_of_result ~sigma:prof.Reveal.Campaign.sigma ~coordinate:i r)
      in
      let perfect, approximate, none = Hints.Hint.kind_counts hints in
      if json then
        Reveal.Report.(
          print
            (Obj
               [
                 ("n", Int n);
                 ("traces", Int traces);
                 ("seed", Int seed);
                 ("sign_correct", Int stats.Reveal.Campaign.sign_correct);
                 ("sign_total", Int stats.Reveal.Campaign.sign_total);
                 ("value_correct", Int stats.Reveal.Campaign.value_correct);
                 ("value_total", Int stats.Reveal.Campaign.value_total);
                 ("out_of_range", Int stats.Reveal.Campaign.skipped_out_of_range);
                 ("corrupt_skipped", Int stats.Reveal.Campaign.corrupt_skipped);
                 ( "grades",
                   Obj
                     [
                       ("confident", Int confident);
                       ("tentative", Int tentative);
                       ("sign_only", Int sign_only);
                       ("unknown", Int unknown);
                     ] );
                 ( "hints",
                   Obj [ ("perfect", Int perfect); ("approximate", Int approximate); ("none", Int none) ] );
               ]))
      else begin
        Printf.printf "sharded campaign: %d traces x %d coefficients (seed %d)\n" traces n seed;
        Printf.printf "signs %d/%d, values %d/%d (%d out of template range)\n" stats.Reveal.Campaign.sign_correct
          stats.Reveal.Campaign.sign_total stats.Reveal.Campaign.value_correct stats.Reveal.Campaign.value_total
          stats.Reveal.Campaign.skipped_out_of_range;
        Printf.printf "grades: confident %d, tentative %d, sign-only %d, unknown %d\n" confident tentative sign_only
          unknown;
        Printf.printf "hints: perfect %d, approximate %d, none %d\n" perfect approximate none
      end)

let shard_cmd =
  let doc = "Run a campaign sharded over N worker processes and merge deterministically." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Profiles once, caches the templates in the work dir, partitions the campaign's trace index space into \
         $(b,--workers) contiguous shards and runs one $(b,reveal worker) process per shard (stdout and stderr \
         captured to per-attempt logs). Shard results come back in CRC-framed files, are validated, and merge in \
         trace order; the printed campaign results are bit-identical to $(b,--workers 1), which runs the same \
         campaign in-process.";
      `P
        "A worker that crashes, exits nonzero or leaves a corrupt result file is retried up to $(b,--retries) extra \
         attempts; only when a shard exhausts its budget does the command fail (exit 1), keeping the work dir and \
         its logs for diagnosis.";
    ]
  in
  let per_value = Arg.(value & opt int 300 & info [ "per-value" ] ~docv:"K" ~doc:"Profiling windows per value.") in
  let traces = Arg.(value & opt int 4 & info [ "traces" ] ~docv:"T" ~doc:"Campaign trace count.") in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"W" ~doc:"Worker processes; 1 runs in-process, no fork.")
  in
  let retries =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"R" ~doc:"Extra attempts per shard after the first.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "shard-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per worker attempt; a worker that outlives it is killed and charged a timeout \
             failure against its retry budget (default: no limit).")
  in
  let work_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "work-dir" ] ~docv:"DIR"
          ~doc:"Work directory for profile cache, shard results and logs (default: private temp dir, removed on success).")
  in
  let keep = Arg.(value & flag & info [ "keep" ] ~doc:"Keep the auto-created work dir after a successful run.") in
  let sabotage =
    Arg.(
      value
      & opt (some int) None
      & info [ "sabotage" ] ~docv:"SHARD"
          ~doc:"Test aid: make shard $(docv)'s first attempt write a truncated result and die, exercising the retry path.")
  in
  let obs_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-dir" ] ~docv:"DIR"
          ~doc:"Collect per-worker observability traces (logical clock) in $(docv) and fold them into summary.json.")
  in
  let telemetry =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"ENDPOINT"
          ~doc:
            "Stream each worker's observability trace live to $(docv) (\"unix:PATH\" or \"tcp:HOST:PORT\") — attach \
             $(b,reveal monitor --listen) $(docv) $(b,--workers) W first. Workers stream under the logical clock, \
             named shard-0, shard-1, ...")
  in
  Cmd.v (Cmd.info "shard" ~doc ~man)
    Term.(
      const shard_impl $ seed_arg $ n_arg 128 $ per_value $ traces $ workers $ retries $ timeout $ work_dir $ keep
      $ sabotage $ obs_dir $ telemetry $ json_arg $ obs_args)

(* --- obs ------------------------------------------------------------------- *)

let sample_events_arg =
  let doc =
    "Keep only every $(docv)-th point event while aggregating, weighting kept ones by $(docv) — bounded-memory \
     summaries of event-heavy traces. Spans, counters, gauges and histograms are always exact."
  in
  Arg.(value & opt int 1 & info [ "sample-events" ] ~docv:"K" ~doc)

let obs_summarize path sample_events json =
  traceio_guard @@ fun () ->
  match Obs.Summary.load ~sample_events path with
  | Error msg ->
      prerr_endline ("reveal: " ^ msg);
      exit 3
  | Ok s -> if json then Reveal.Report.print (Obs.Summary.to_json s) else print_string (Obs.Summary.render s)

let obs_merge paths sample_events json =
  traceio_guard @@ fun () ->
  match Obs.Summary.merge_files ~sample_events paths with
  | Error msg ->
      prerr_endline ("reveal: " ^ msg);
      exit 3
  | Ok s -> if json then Reveal.Report.print (Obs.Summary.to_json s) else print_string (Obs.Summary.render s)

let obs_export paths sample_events json =
  traceio_guard @@ fun () ->
  match Obs.Summary.merge_files ~sample_events paths with
  | Error msg ->
      prerr_endline ("reveal: " ^ msg);
      exit 3
  | Ok s ->
      if json then Reveal.Report.print (Obs.Summary.to_json s) else print_string (Obs.Summary.to_prometheus s)

let obs_cmd =
  let doc = "Work with observability traces (files written by --obs-out)." in
  let summarize =
    let doc = "Aggregate an observability trace into per-span timings, counters, gauges and histograms." in
    let man =
      [
        `S Manpage.s_description;
        `P
          "Reads a JSON Lines trace produced by any subcommand's $(b,--obs-out) and prints one table per section: \
           span wall-clock totals (count / total / mean / max), counter totals, gauge values, histogram buckets and \
           severity-tagged events. With $(b,--json) the same aggregation is emitted as one JSON object.";
      ]
    in
    let file =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file written by --obs-out.")
    in
    Cmd.v (Cmd.info "summarize" ~doc ~man) Term.(const obs_summarize $ file $ sample_events_arg $ json_arg)
  in
  let merge =
    let doc = "Merge several observability traces into one aggregate summary." in
    let man =
      [
        `S Manpage.s_description;
        `P
          "Aggregates each trace like $(b,summarize), then combines the summaries: span counts/totals and counter, \
           event, gauge and histogram-bucket totals sum; span and histogram maxima take the max. This is the fold \
           $(b,reveal shard --obs-dir) applies to its workers' traces; running it by hand answers what a whole \
           sharded campaign did across all processes.";
      ]
    in
    let files =
      Arg.(non_empty & pos_all string [] & info [] ~docv:"TRACE" ~doc:"Trace files written by --obs-out.")
    in
    Cmd.v (Cmd.info "merge" ~doc ~man) Term.(const obs_merge $ files $ sample_events_arg $ json_arg)
  in
  let export =
    let doc = "Export merged observability traces in the Prometheus text exposition format." in
    let man =
      [
        `S Manpage.s_description;
        `P
          "Aggregates the traces like $(b,merge), then renders the summary as Prometheus-style text metrics \
           ($(b,reveal_span_count), $(b,reveal_counter_total), $(b,reveal_histogram_bucket) with cumulative \
           $(b,le) labels, ...) for scraping into an existing metrics stack. $(b,--json) emits the same aggregate \
           as the $(b,summarize) JSON object instead.";
      ]
    in
    let files =
      Arg.(non_empty & pos_all string [] & info [] ~docv:"TRACE" ~doc:"Trace files written by --obs-out.")
    in
    Cmd.v (Cmd.info "export" ~doc ~man) Term.(const obs_export $ files $ sample_events_arg $ json_arg)
  in
  Cmd.group (Cmd.info "obs" ~doc) [ summarize; merge; export ]

(* --- monitor --------------------------------------------------------------- *)

let report_json (r : Fabric.Telemetry.report) =
  Reveal.Report.(
    Obj
      ([
         ("name", String r.Fabric.Telemetry.r_name);
         ("heartbeats", Int r.Fabric.Telemetry.r_heartbeats);
         ("done", Int r.Fabric.Telemetry.r_done);
       ]
      @ (match r.Fabric.Telemetry.r_total with Some t -> [ ("total", Int t) ] | None -> [])
      @ [ ("skipped", Int r.Fabric.Telemetry.r_skipped) ]
      @ (match r.Fabric.Telemetry.r_truncated with Some m -> [ ("truncated", String m) ] | None -> [])
      @ [ ("missed_heartbeats", Bool (Fabric.Telemetry.missed_heartbeats r)) ]))

let monitor_impl listen workers files json obsa =
  with_obs "monitor" obsa @@ fun _obs ->
  traceio_guard (fun () ->
      (* Progress chatter goes to stderr; stdout carries only the final
         summary, so the text output is byte-comparable to [obs merge]
         over the workers' --obs-out files. *)
      let chatter_lock = Mutex.create () in
      let chatter fmt =
        Printf.ksprintf
          (fun s ->
            if not json then begin
              Mutex.lock chatter_lock;
              prerr_endline ("monitor: " ^ s);
              Mutex.unlock chatter_lock
            end)
          fmt
      in
      let on_heartbeat ~source ~done_ ~total ~t:_ =
        match total with
        | Some total -> chatter "%s: %d/%d coefficients" source done_ total
        | None -> chatter "%s: %d coefficients" source done_
      in
      let reports =
        match (listen, files) with
        | Some _, _ :: _ -> invalid_arg "monitor: --listen and telemetry FILE replay are mutually exclusive"
        | None, [] -> invalid_arg "monitor: pass --listen ENDPOINT or at least one recorded telemetry FILE"
        | Some dest, [] ->
            if workers <= 0 then invalid_arg "monitor: workers must be positive";
            let ep =
              match Fabric.Transport.parse dest with Ok ep -> ep | Error msg -> invalid_arg ("monitor: " ^ msg)
            in
            let listener = Fabric.Transport.listen ep in
            Fun.protect ~finally:(fun () -> Fabric.Transport.close_listener listener) @@ fun () ->
            chatter "listening on %s for %d worker stream(s)" dest workers;
            (* Accept serially (the backlog holds early connectors) but
               drain concurrently: one domain per stream, so a chatty
               worker cannot stall a quiet one's heartbeats. *)
            let drain conn =
              Fun.protect
                ~finally:(fun () -> Fabric.Transport.close_connection conn)
                (fun () ->
                  Fabric.Telemetry.drain ~on_heartbeat ~peer:conn.Fabric.Transport.peer conn.Fabric.Transport.ic)
            in
            let rec accept_all acc k =
              if k = 0 then List.rev acc
              else
                let conn = Fabric.Transport.accept listener in
                accept_all (Domain.spawn (fun () -> drain conn) :: acc) (k - 1)
            in
            List.map Domain.join (accept_all [] workers)
        | None, files ->
            List.map
              (fun path ->
                let ic = Traceio.Error.open_in_bin path in
                Fun.protect
                  ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
                  (fun () -> Fabric.Telemetry.drain ~peer:path ic))
              files
      in
      let reports =
        List.sort (fun a b -> compare a.Fabric.Telemetry.r_name b.Fabric.Telemetry.r_name) reports
      in
      let lagging =
        Fabric.Telemetry.stragglers
          (List.filter_map
             (fun r ->
               match (r.Fabric.Telemetry.r_first_hb, r.Fabric.Telemetry.r_last_hb) with
               | Some a, Some b when b > a -> Some (r.Fabric.Telemetry.r_name, r.Fabric.Telemetry.r_done, b -. a)
               | _ -> None)
             reports)
      in
      List.iter
        (fun r ->
          if r.Fabric.Telemetry.r_truncated <> None then
            chatter "%s: stream cut mid-run (worker died?)" r.Fabric.Telemetry.r_name
          else if Fabric.Telemetry.missed_heartbeats r then
            chatter "%s: missed heartbeats" r.Fabric.Telemetry.r_name;
          if r.Fabric.Telemetry.r_skipped > 0 then
            chatter "%s: %d damaged/unparseable slot(s) skipped" r.Fabric.Telemetry.r_name
              r.Fabric.Telemetry.r_skipped)
        reports;
      List.iter (fun name -> chatter "%s: straggling (rate below half the fleet median)" name) lagging;
      match Fabric.Telemetry.merge_reports reports with
      | None ->
          prerr_endline "reveal: monitor: no telemetry streams to summarize";
          exit 3
      | Some s ->
          if json then
            Reveal.Report.(
              print
                (Obj
                   [
                     ("workers", List (List.map report_json reports));
                     ("stragglers", List (List.map (fun n -> String n) lagging));
                     ("summary", Obs.Summary.to_json s);
                   ]))
          else print_string (Obs.Summary.render s))

let monitor_cmd =
  let doc = "Watch a worker fleet's telemetry live, or replay recorded telemetry streams." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "With $(b,--listen), binds the endpoint, accepts one framed telemetry stream per expected worker (point \
         $(b,reveal shard --telemetry) or any subcommand's $(b,--obs-stream) at it), narrates heartbeat progress \
         and anomalies — streams cut mid-run, missed heartbeats, stragglers running below half the fleet's median \
         rate — to stderr, and prints the merged end-of-run summary to stdout. The merge is the $(b,reveal obs \
         merge) fold in sorted source order, so when workers also write $(b,--obs-out) files the two summaries are \
         bit-identical.";
      `P
        "With FILE arguments instead, replays recorded telemetry streams ($(b,--obs-stream) pointed at a plain \
         path) through the same aggregation — deterministic under the logical clock. A stream cut before its end \
         frame is reported, not fatal: a dead worker is a finding. Note the aggregator drains exactly one stream \
         per expected worker; a retried worker attempt opens a fresh connection the monitor will not count.";
    ]
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ENDPOINT"
          ~doc:"Accept live telemetry streams on $(docv) (\"unix:PATH\" or \"tcp:HOST:PORT\").")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"W" ~doc:"Streams to accept before summarizing (match the fleet size).")
  in
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Recorded telemetry stream (written by --obs-stream with a file DEST).")
  in
  Cmd.v (Cmd.info "monitor" ~doc ~man) Term.(const monitor_impl $ listen $ workers $ files $ json_arg $ obs_args)

(* --- trial / fuzz / reduce (triage) ---------------------------------------- *)

let segmenter_arg =
  let doc =
    "Segmenter: $(b,strict) (window count must match exactly; a miscounted trace grades every coefficient Unknown) \
     or $(b,resilient) (repairs miscounted bursts)."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("strict", Triage.Plan.Strict); ("resilient", Triage.Plan.Resilient) ]) Triage.Plan.Resilient
    & info [ "segmenter" ] ~docv:"MODE" ~doc)

let gate_arg =
  let doc =
    "Gate profile: $(b,default) (the shipped thresholds), $(b,aggressive) (thresholds floored, fit floors disabled — \
     accepts garbage confidently) or $(b,paranoid) (thresholds raised, deeper retries)."
  in
  Arg.(
    value
    & opt
        (Arg.enum
           [
             ("default", Triage.Plan.Default); ("aggressive", Triage.Plan.Aggressive); ("paranoid", Triage.Plan.Paranoid);
           ])
        Triage.Plan.Default
    & info [ "gate" ] ~docv:"PROFILE" ~doc)

let intensity_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "intensity" ] ~docv:"I" ~doc:"Measurement-fault intensity (0 = clean, 1 = full reference load).")

let trial_of_flags seed variant intensity segmenter gate traces per_value =
  if intensity < 0.0 then invalid_arg "trial: intensity must be non-negative";
  if traces <= 0 then invalid_arg "trial: traces must be positive";
  if per_value <= 0 then invalid_arg "trial: per-value must be positive";
  {
    Triage.Plan.id = 0;
    variant;
    intensity;
    seed;
    segmenter;
    gate;
    traces;
    n = Triage.Plan.trial_n;
    per_value;
  }

let trial_impl seed variant intensity segmenter gate traces per_value archive archive_out out flight json obsa =
  with_obs "trial" obsa @@ fun obs ->
  traceio_guard (fun () ->
      if archive <> None && archive_out <> None then
        invalid_arg "trial: --archive and --archive-out are mutually exclusive";
      let t = trial_of_flags seed variant intensity segmenter gate traces per_value in
      (* The flight recorder: a ring-buffer obs context feeding the
         pipeline's spans and heartbeats, dumped to --flight on a
         failure verdict, a pipeline crash, or SIGTERM (the
         orchestrator's timeout kill arrives as SIGTERM first, leaving
         a grace window exactly for this dump). *)
      let run_obs, dump =
        match flight with
        | None -> (obs, fun () -> ())
        | Some path ->
            let sink, ring = Obs.Sink.ring () in
            let fobs = Obs.Ctx.create ~clock:(Obs.Clock.logical ()) ~source:"trial" ~sink () in
            let dump () =
              Obs.Ctx.close fobs;
              try Obs.Sink.ring_dump ring path with Failure _ -> ()
            in
            Sys.set_signal Sys.sigterm
              (Sys.Signal_handle
                 (fun _ ->
                   dump ();
                   exit 143));
            (fobs, dump)
      in
      let measure () =
        match (archive, archive_out) with
        | Some path, _ -> Triage.Runner.run ~obs:run_obs ~archive:path t
        | None, Some path -> Triage.Runner.record_and_measure ~obs:run_obs t ~archive:path
        | None, None -> Triage.Runner.run ~obs:run_obs t
      in
      let result_json verdict m =
        Reveal.Report.(
          Obj
            ([
               ("trial", Triage.Plan.to_json t);
               ("verdict", Triage.Verdict.to_json verdict);
               ("signature", String (Triage.Signature.of_verdict t verdict));
             ]
            @ match m with Some m -> [ ("measurements", Triage.Verdict.measurements_to_json m) ] | None -> []))
      in
      match out with
      | Some path ->
          (* worker mode: any classified verdict — crashes included — is a
             successful trial run, and the verdict travels in the result
             file.  Catching here maps a pipeline exception to the same
             crash family an in-process replay would produce, so worker
             and minimizer signatures agree; only a genuine malfunction
             (e.g. a Unix error) may exit nonzero. *)
          let verdict, m =
            match measure () with
            | m -> (Triage.Verdict.classify m, Some m)
            | exception (Unix.Unix_error _ as e) -> raise e
            | exception e -> (Triage.Verdict.crash_of_exn e, None)
          in
          if Triage.Verdict.is_failure verdict then dump ();
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc (Reveal.Report.to_string (result_json verdict m) ^ "\n"))
      | None ->
          let m = measure () in
          let verdict = Triage.Verdict.classify m in
          if Triage.Verdict.is_failure verdict then dump ();
          let signature = Triage.Signature.of_verdict t verdict in
          if json then Reveal.Report.print (result_json verdict (Some m))
          else begin
            Printf.printf "trial: %s\n" (Triage.Plan.describe t);
            Printf.printf "verdict: %s\n" (Triage.Verdict.to_string verdict);
            Printf.printf "signature: %s\n" signature;
            Printf.printf
              "grades: confident=%d tentative=%d sign-only=%d unknown=%d; values %d/%d, signs %d/%d%s\n"
              m.Triage.Verdict.m_confident m.Triage.Verdict.m_tentative m.Triage.Verdict.m_sign_only
              m.Triage.Verdict.m_unknown m.Triage.Verdict.m_value_correct m.Triage.Verdict.m_value_total
              m.Triage.Verdict.m_sign_correct m.Triage.Verdict.m_sign_total
              (if m.Triage.Verdict.m_corrupt_skipped > 0 then
                 Printf.sprintf " (%d corrupt record(s) skipped)" m.Triage.Verdict.m_corrupt_skipped
               else "")
          end;
          if Triage.Verdict.is_failure verdict then exit 1)

let trial_cmd =
  let doc = "Run one randomized-campaign trial scenario and print its typed verdict." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "A trial records a faulted campaign archive (variant, intensity, seed, traces), replays the attack over it \
         in the requested segmenter/gate configuration, checks the pipeline's internal invariants, and classifies \
         the outcome: $(b,bit-exact), $(b,degraded-hints), $(b,misgrade), or $(b,invariant-violation). This is both \
         the worker the fuzzer spawns ($(b,--out)) and the repro contract: every failure $(b,reveal fuzz) reports \
         prints one $(b,trial) line that reproduces it, optionally against a minimized archive ($(b,--archive)).";
      `P "Exits 1 when the verdict is a failure (misgrade, invariant violation) — except in $(b,--out) worker mode, \
          where any classified verdict is a successful trial run.";
    ]
  in
  let traces = Arg.(value & opt int 2 & info [ "traces" ] ~docv:"T" ~doc:"Campaign trace count.") in
  let per_value = Arg.(value & opt int 24 & info [ "per-value" ] ~docv:"K" ~doc:"Profiling windows per value.") in
  let archive =
    Arg.(
      value
      & opt (some string) None
      & info [ "archive" ] ~docv:"FILE"
          ~doc:"Replay this archive instead of recording one (the reduce repro path).")
  in
  let archive_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "archive-out" ] ~docv:"FILE" ~doc:"Keep the recorded campaign archive at $(docv).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Worker mode: write the JSON verdict record to $(docv) and exit 0 for any classified verdict.")
  in
  let flight =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Arm the flight recorder: keep the last obs events of the run in a fixed ring and dump them to $(docv) \
             on a failure verdict, a pipeline crash, or SIGTERM (how the orchestrator's timeout kill announces \
             itself) — crash forensics for $(b,reveal fuzz).")
  in
  Cmd.v (Cmd.info "trial" ~doc ~man)
    Term.(
      const trial_impl $ seed_arg $ variant_arg $ intensity_arg $ segmenter_arg $ gate_arg $ traces $ per_value
      $ archive $ archive_out $ out $ flight $ json_arg $ obs_args)

let fuzz_impl master_seed trials workers timeout work_dir known_path update_known no_minimize json obsa =
  with_obs "fuzz" obsa @@ fun _obs ->
  traceio_guard (fun () ->
      if trials <= 0 then invalid_arg "fuzz: trials must be positive";
      if workers <= 0 then invalid_arg "fuzz: workers must be positive";
      (match timeout with
      | Some t when t <= 0.0 -> invalid_arg "fuzz: timeout must be positive"
      | _ -> ());
      let chatter fmt = Printf.ksprintf (fun s -> if not json then prerr_endline ("fuzz: " ^ s)) fmt in
      let owned, wd =
        match work_dir with
        | Some d -> (false, d)
        | None -> (true, Fabric.Orchestrator.fresh_work_dir ~prefix:"reveal_fuzz" ())
      in
      (* load_opt: a known file that does not exist yet is an empty
         store, so --known X --update-known bootstraps the file *)
      let known = match known_path with Some p -> Triage.Signature.load_opt p | None -> Triage.Signature.empty in
      let plan = Triage.Plan.plan ~master_seed ~trials in
      chatter "%d trials from master seed %d, %d workers (work dir %s)" trials master_seed workers wd;
      let batch =
        Triage.Fuzz.run ~minimize:(not no_minimize) ~exe:Sys.executable_name ~work_dir:wd ~workers
          ~timeout_s:timeout ~known plan
      in
      let novel =
        Array.to_list (Array.of_seq (Seq.filter (fun o -> o.Triage.Fuzz.o_status = Triage.Fuzz.Novel)
                                        (Array.to_seq batch.Triage.Fuzz.b_outcomes)))
      in
      (match (update_known, known_path) with
      | true, Some p when novel <> [] ->
          Triage.Signature.append p (List.map (fun o -> o.Triage.Fuzz.o_signature) novel);
          chatter "%d novel signature(s) appended to %s" (List.length novel) p
      | true, None -> invalid_arg "fuzz: --update-known needs --known FILE"
      | _ -> ());
      if json then begin
        let outcome_json o =
          Reveal.Report.(
            Obj
              ([
                 ("trial", Triage.Plan.to_json o.Triage.Fuzz.o_trial);
                 ("verdict", Triage.Verdict.to_json o.Triage.Fuzz.o_verdict);
                 ("signature", String o.Triage.Fuzz.o_signature);
                 ("repro", String o.Triage.Fuzz.o_repro);
               ]
              @ (match o.Triage.Fuzz.o_archive with Some a -> [ ("archive", String a) ] | None -> [])
              @ (match o.Triage.Fuzz.o_flight with Some f -> [ ("flight", String f) ] | None -> [])
              @
              match o.Triage.Fuzz.o_minimized with
              | Some (path, report) ->
                  [
                    ("minimized", String path);
                    ("reduction", Triage.Minimize.to_json report);
                    ( "reduce_repro",
                      String (Triage.Plan.repro_command ~archive:path ~exe:Sys.executable_name o.Triage.Fuzz.o_trial)
                    );
                  ]
              | None -> []))
        in
        Reveal.Report.(
          print
            (Obj
               [
                 ("master_seed", Int master_seed);
                 ("trials", Int trials);
                 ("workers", Int workers);
                 ("work_dir", String wd);
                 ( "summary",
                   Obj (List.map (fun (k, c) -> (k, Int c)) batch.Triage.Fuzz.b_summary) );
                 ("novel", Int batch.Triage.Fuzz.b_novel);
                 ("known", Int batch.Triage.Fuzz.b_known);
                 ("duplicate", Int batch.Triage.Fuzz.b_duplicate);
                 ("novel_failures", List (List.map outcome_json novel));
               ]))
      end
      else begin
        Array.iter
          (fun o ->
            Printf.printf "trial %4d: %s -> %s%s\n" o.Triage.Fuzz.o_trial.Triage.Plan.id
              (Triage.Plan.describe o.Triage.Fuzz.o_trial)
              (Triage.Verdict.to_string o.Triage.Fuzz.o_verdict)
              (match o.Triage.Fuzz.o_status with
              | Triage.Fuzz.Passed -> ""
              | Triage.Fuzz.Novel -> " [novel]"
              | Triage.Fuzz.Known -> " [known]"
              | Triage.Fuzz.Duplicate -> " [duplicate]"))
          batch.Triage.Fuzz.b_outcomes;
        Printf.printf "summary: %s\n"
          (String.concat " " (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) batch.Triage.Fuzz.b_summary));
        Printf.printf "failures: %d novel, %d known, %d duplicate\n" batch.Triage.Fuzz.b_novel
          batch.Triage.Fuzz.b_known batch.Triage.Fuzz.b_duplicate;
        List.iter
          (fun o ->
            Printf.printf "\nnovel failure: %s\n" o.Triage.Fuzz.o_signature;
            Printf.printf "  trial %d: %s\n" o.Triage.Fuzz.o_trial.Triage.Plan.id
              (Triage.Plan.describe o.Triage.Fuzz.o_trial);
            Printf.printf "  repro: %s\n" o.Triage.Fuzz.o_repro;
            (match o.Triage.Fuzz.o_archive with
            | Some a -> Printf.printf "  archive: %s\n" a
            | None -> ());
            (match o.Triage.Fuzz.o_flight with
            | Some f -> Printf.printf "  flight: %s\n" f
            | None -> ());
            match o.Triage.Fuzz.o_minimized with
            | Some (path, report) ->
                Printf.printf "  minimized: %s (%s)\n" path (Triage.Minimize.describe report);
                Printf.printf "  reduce repro: %s\n"
                  (Triage.Plan.repro_command ~archive:path ~exe:Sys.executable_name o.Triage.Fuzz.o_trial)
            | None -> ())
          novel
      end;
      if batch.Triage.Fuzz.b_novel > 0 then begin
        if owned then chatter "novel failures found; work dir kept at %s" wd;
        exit 1
      end
      else if owned then Fabric.Orchestrator.remove_dir wd)

let fuzz_cmd =
  let doc = "Run a randomized trial campaign; surface novel, deduplicated, pre-minimized failures." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Expands one master seed into a deterministic table of trial scenarios (fault intensity x sampler variant x \
         campaign seed x segmenter x gate profile), runs each as a $(b,reveal trial) worker process under a bounded \
         pool, and classifies every outcome into a typed verdict. Failing verdicts are fingerprinted into stable \
         signatures, deduplicated against $(b,--known) and within the batch, and each novel failure is reported with \
         a one-line repro command and — when it reproduces in-process — an automatically minimized archive.";
      `P
        "Two runs with the same master seed, trial count and $(b,--work-dir) produce byte-identical trial tables and \
         verdict summaries. Exits 1 when novel failures were found, 0 when everything passed or was known.";
    ]
  in
  let master_seed =
    Arg.(value & opt int 42 & info [ "master-seed" ] ~docv:"SEED" ~doc:"Master seed the trial table expands from.")
  in
  let trials = Arg.(value & opt int 100 & info [ "trials" ] ~docv:"N" ~doc:"Number of trials to run.") in
  let workers = Arg.(value & opt int 4 & info [ "workers" ] ~docv:"W" ~doc:"Concurrent trial worker processes.") in
  let timeout =
    Arg.(
      value
      & opt (some float) (Some 120.0)
      & info [ "trial-timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget per trial; a hung trial is killed and becomes a timeout verdict.")
  in
  let work_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "work-dir" ] ~docv:"DIR"
          ~doc:
            "Per-trial artefact directory (archives, result files, logs, minimized corpora). Default: private temp \
             dir, removed when no novel failure is found. Pass the same $(docv) to two runs for byte-identical \
             output.")
  in
  let known =
    Arg.(
      value
      & opt (some string) None
      & info [ "known" ] ~docv:"FILE" ~doc:"Known-signatures file; matching failures are suppressed as [known].")
  in
  let update_known =
    Arg.(value & flag & info [ "update-known" ] ~doc:"Append novel signatures to the $(b,--known) file.")
  in
  let no_minimize = Arg.(value & flag & info [ "no-minimize" ] ~doc:"Skip auto-minimization of novel failures.") in
  Cmd.v (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const fuzz_impl $ master_seed $ trials $ workers $ timeout $ work_dir $ known $ update_known $ no_minimize
      $ json_arg $ obs_args)

let reduce_impl seed variant intensity segmenter gate traces per_value archive expect out json obsa =
  with_obs "reduce" obsa @@ fun _obs ->
  traceio_guard (fun () ->
      if expect = Some "timeout" then
        invalid_arg "reduce: timeout verdicts do not reproduce in-process and cannot be reduced";
      let t = trial_of_flags seed variant intensity segmenter gate traces per_value in
      let dst = match out with Some p -> p | None -> Filename.remove_extension archive ^ ".min.rvt" in
      let prof = Triage.Runner.profile_for t in
      let expected = Triage.Runner.replay_verdict t prof ~archive in
      (match expect with
      | Some k when k <> Triage.Verdict.kind expected ->
          Printf.eprintf "reveal: reduce: archive replays as %s, expected %s\n"
            (Triage.Verdict.to_string expected) k;
          exit 1
      | _ -> ());
      if not (Triage.Verdict.is_failure expected) then begin
        Printf.eprintf "reveal: reduce: archive replays as %s — nothing to reduce\n"
          (Triage.Verdict.to_string expected);
        exit 1
      end;
      let check path = Triage.Verdict.same_failure (Triage.Runner.replay_verdict t prof ~archive:path) expected in
      let wd = Fabric.Orchestrator.fresh_work_dir ~prefix:"reveal_reduce" () in
      Fun.protect ~finally:(fun () -> Fabric.Orchestrator.remove_dir wd) @@ fun () ->
      match Triage.Minimize.reduce ~check ~work_dir:wd ~src:archive ~dst with
      | Error msg ->
          Printf.eprintf "reveal: reduce: %s\n" msg;
          exit 1
      | Ok report ->
          let repro = Triage.Plan.repro_command ~archive:dst ~exe:Sys.executable_name t in
          if json then
            Reveal.Report.(
              print
                (Obj
                   [
                     ("archive", String archive);
                     ("minimized", String dst);
                     ("verdict", Triage.Verdict.to_json expected);
                     ("reduction", Triage.Minimize.to_json report);
                     ("reduce_repro", String repro);
                   ]))
          else begin
            Printf.printf "verdict: %s\n" (Triage.Verdict.to_string expected);
            Printf.printf "minimized %s -> %s: %s\n" archive dst (Triage.Minimize.describe report);
            Printf.printf "reduce repro: %s\n" repro
          end)

let reduce_cmd =
  let doc = "Shrink a failing trial archive to a minimal reproducer (deterministic bisection over replay)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays the trial scenario (same flags as $(b,reveal trial)) over the archive to establish the failing \
         verdict, then minimizes in two passes: the smallest record subset (ddmin-style chunk removal), then the \
         smallest per-record sample span (stepped greedy cuts). Every candidate is re-verified by a full replay, so \
         the emitted archive reproduces the verdict by construction; the printed $(b,reduce repro:) line replays it.";
      `P "Exits 1 when the archive does not reproduce a failing verdict (or disagrees with $(b,--expect)).";
    ]
  in
  let archive =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ARCHIVE" ~doc:"Failing trial archive (.rvt).")
  in
  let traces = Arg.(value & opt int 2 & info [ "traces" ] ~docv:"T" ~doc:"Campaign trace count of the scenario.") in
  let per_value = Arg.(value & opt int 24 & info [ "per-value" ] ~docv:"K" ~doc:"Profiling windows per value.") in
  let expect =
    Arg.(
      value
      & opt (some (Arg.enum (List.map (fun k -> (k, k)) Triage.Fuzz.kinds_in_order))) None
      & info [ "expect" ] ~docv:"KIND"
          ~doc:"Fail unless the archive replays to this verdict kind ($(b,timeout) is a usage error).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Minimized archive path (default: ARCHIVE with a .min.rvt suffix).")
  in
  Cmd.v (Cmd.info "reduce" ~doc ~man)
    Term.(
      const reduce_impl $ seed_arg $ variant_arg $ intensity_arg $ segmenter_arg $ gate_arg $ traces $ per_value
      $ archive $ expect $ out $ json_arg $ obs_args)

let () =
  let doc = "RevEAL: single-trace side-channel attack on the SEAL BFV encryptor (reproduction)" in
  let man =
    [
      `S Manpage.s_description;
      `P "Every stage of the paper's pipeline is a subcommand:";
      `I ("$(b,disasm)", "print the RV32IM listing of a sampler firmware variant.");
      `I ("$(b,trace)", "capture one sampler power trace (ASCII plot / CSV).");
      `I ("$(b,profile)", "build attack templates and cache them to disk.");
      `I ("$(b,attack)", "run the single-trace attack once and print per-coefficient results.");
      `I ("$(b,record)", "capture a campaign of honest traces into a binary archive.");
      `I ("$(b,replay-attack)", "re-run the single-trace attack offline, from an archive.");
      `I ("$(b,inspect)", "validate an archive and print its header / record summary.");
      `I ("$(b,fault-sweep)", "sweep measurement-fault intensity, report graceful degradation.");
      `I ("$(b,lint)", "constant-time lint of the sampler firmware.");
      `I ("$(b,srclint)", "determinism / domain-safety lint of the pipeline's own OCaml source.");
      `I ("$(b,estimate)", "DBDD security estimates for SEAL parameter sets with hint counts.");
      `I ("$(b,report)", "render any experiment artefact of the paper (text or JSON).");
      `I ("$(b,shard)", "run a campaign sharded over N worker processes, merged deterministically.");
      `I ("$(b,worker)", "attack one shard of a campaign and write a shard result file.");
      `I ("$(b,obs)", "summarize, merge or export observability traces written by --obs-out.");
      `I ("$(b,monitor)", "watch a worker fleet's telemetry live, or replay recorded telemetry streams.");
      `I ("$(b,trial)", "run one randomized-campaign trial scenario and print its typed verdict.");
      `I ("$(b,fuzz)", "run a randomized trial campaign; surface novel, deduplicated, pre-minimized failures.");
      `I ("$(b,reduce)", "shrink a failing trial archive to a minimal reproducer.");
      `P "Every subcommand accepts $(b,--json) for one machine-readable JSON value on stdout.";
    ]
  in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1
        ~doc:
          "when the attack or a requested check fails (recovery below threshold, sweep invariant violated, a shard \
           exhausted its retry budget).";
      Cmd.Exit.info 2 ~doc:"on usage errors and impossible configurations.";
      Cmd.Exit.info 3 ~doc:"on I/O errors and corrupt archives, profile caches or shard result files.";
    ]
  in
  let info = Cmd.info "reveal" ~version:"1.0.0" ~doc ~man ~exits in
  exit
    (Cmd.eval ~term_err:2
       (Cmd.group info
          [
            disasm_cmd;
            trace_cmd;
            profile_cmd;
            attack_cmd;
            record_cmd;
            replay_attack_cmd;
            inspect_cmd;
            fault_sweep_cmd;
            lint_cmd;
            srclint_cmd;
            estimate_cmd;
            report_cmd;
            worker_cmd;
            shard_cmd;
            obs_cmd;
            monitor_cmd;
            trial_cmd;
            fuzz_cmd;
            reduce_cmd;
          ]))

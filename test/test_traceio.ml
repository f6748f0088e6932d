(* traceio: binary archive round trips, corruption detection, and the
   record/replay pipeline.  The hard claims: reads reproduce exactly
   the bits written (samples, events, labels), any damaged byte is
   rejected by a checksum instead of misread, and a replayed campaign
   recovers exactly the coefficients the live attack recovers. *)

let rng () = Mathkit.Prng.create ~seed:77L ()

let with_tmp name f =
  let path = Filename.temp_file "reveal_traceio" name in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let float_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* --- primitives ---------------------------------------------------------- *)

let test_crc32_vectors () =
  Alcotest.(check int) "check vector" 0xCBF43926 (Traceio.Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Traceio.Crc32.digest "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let piecewise = Traceio.Crc32.update (Traceio.Crc32.digest_sub s ~pos:0 ~len:20) s 20 (String.length s - 20) in
  Alcotest.(check int) "incremental = one-shot" (Traceio.Crc32.digest s) piecewise

let test_varint_roundtrip () =
  let cases =
    [ 0L; 1L; 127L; 128L; 300L; 0xFFFFL; 0x7FFFFFFFL; Int64.max_int; -1L; Int64.min_int; -300L ]
  in
  let b = Buffer.create 64 in
  List.iter (fun v -> Traceio.Binio.put_varint b v) cases;
  List.iter (fun v -> Traceio.Binio.put_svarint b v) cases;
  let c = Traceio.Binio.cursor (Buffer.contents b) in
  List.iter (fun v -> Alcotest.(check int64) "varint" v (Traceio.Binio.get_varint c)) cases;
  List.iter (fun v -> Alcotest.(check int64) "svarint" v (Traceio.Binio.get_svarint c)) cases;
  Alcotest.(check bool) "consumed all" true (Traceio.Binio.at_end c)

let test_binio_truncation_detected () =
  let b = Buffer.create 16 in
  Traceio.Binio.put_u64 b 0x1122334455667788L;
  let full = Buffer.contents b in
  let c = Traceio.Binio.cursor (String.sub full 0 5) in
  Alcotest.check_raises "truncated u64"
    (Traceio.Error.Corrupt "buffer: truncated record (need 8 more bytes at offset 0 of 5)") (fun () ->
      ignore (Traceio.Binio.get_u64 c))

let prop_floats_roundtrip =
  QCheck.Test.make ~count:200 ~name:"codec floats roundtrip bit-identically"
    QCheck.(array float)
    (fun xs ->
      let b = Buffer.create 256 in
      Traceio.Codec.put_floats b xs;
      let c = Traceio.Binio.cursor (Buffer.contents b) in
      let ys = Traceio.Codec.get_floats c in
      Traceio.Binio.at_end c && float_bits_equal xs ys)

let prop_ints_roundtrip =
  QCheck.Test.make ~count:200 ~name:"codec int streams roundtrip"
    QCheck.(array int)
    (fun xs ->
      let b = Buffer.create 256 in
      Traceio.Codec.put_ints b xs;
      Traceio.Codec.put_ints_delta b xs;
      let c = Traceio.Binio.cursor (Buffer.contents b) in
      let plain = Traceio.Codec.get_ints c in
      let delta = Traceio.Codec.get_ints_delta c in
      Traceio.Binio.at_end c && plain = xs && delta = xs)

(* --- archives ------------------------------------------------------------ *)

let sample_runs device count =
  let g = rng () in
  Array.init count (fun _ -> Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g)

let write_archive path device runs =
  let w = Reveal.Device.open_recorder device ~path ~seed:123L in
  Array.iter (fun run -> Reveal.Device.record_run w run) runs;
  Traceio.Archive.close_writer w

let test_archive_roundtrip () =
  let device = Reveal.Device.create ~n:8 () in
  let runs = sample_runs device 3 in
  with_tmp "roundtrip.rvt" (fun path ->
      write_archive path device runs;
      let h = Traceio.Archive.with_reader path Traceio.Archive.header in
      Alcotest.(check int) "trace count" 3 h.Traceio.Archive.trace_count;
      Alcotest.(check int) "n" 8 h.Traceio.Archive.n;
      Alcotest.(check int64) "seed" 123L h.Traceio.Archive.seed;
      let records = List.rev (Traceio.Archive.fold path (fun acc r -> r :: acc) []) in
      Alcotest.(check int) "records read" 3 (List.length records);
      List.iteri
        (fun i (r : Traceio.Archive.record) ->
          let live = runs.(i) in
          Alcotest.(check int) "index" i r.Traceio.Archive.index;
          Alcotest.(check bool) "noises" true (live.Reveal.Device.noises = r.Traceio.Archive.noises);
          Alcotest.(check bool) "samples bit-identical" true
            (float_bits_equal live.Reveal.Device.trace.Power.Ptrace.samples
               r.Traceio.Archive.trace.Power.Ptrace.samples);
          Alcotest.(check bool) "event starts" true
            (live.Reveal.Device.trace.Power.Ptrace.event_start = r.Traceio.Archive.trace.Power.Ptrace.event_start);
          Alcotest.(check bool) "event pcs" true
            (live.Reveal.Device.trace.Power.Ptrace.event_pc = r.Traceio.Archive.trace.Power.Ptrace.event_pc))
        records)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_corrupt name f =
  match f () with
  | exception Traceio.Error.Corrupt _ -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: damaged archive was accepted" name

let drain path = Traceio.Archive.iter path (fun _ -> ())

let test_archive_flipped_byte_rejected () =
  let device = Reveal.Device.create ~n:4 () in
  let runs = sample_runs device 2 in
  with_tmp "corrupt.rvt" (fun path ->
      write_archive path device runs;
      let original = read_file path in
      let len = String.length original in
      (* a flip anywhere — header, length field, payload or checksum —
         must surface as Corrupt, never as silently different data *)
      List.iter
        (fun off ->
          let b = Bytes.of_string original in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
          write_file path (Bytes.to_string b);
          expect_corrupt (Printf.sprintf "flip at %d/%d" off len) (fun () -> drain path))
        [ 0; 9; 20; len / 3; len / 2; len - 2 ])

let test_archive_truncation_rejected () =
  let device = Reveal.Device.create ~n:4 () in
  let runs = sample_runs device 2 in
  with_tmp "trunc.rvt" (fun path ->
      write_archive path device runs;
      let original = read_file path in
      List.iter
        (fun keep ->
          write_file path (String.sub original 0 keep);
          expect_corrupt (Printf.sprintf "truncated to %d bytes" keep) (fun () -> drain path))
        [ 4; 40; String.length original / 2; String.length original - 3 ])

let test_archive_version_and_magic_rejected () =
  let device = Reveal.Device.create ~n:4 () in
  let runs = sample_runs device 1 in
  with_tmp "version.rvt" (fun path ->
      write_archive path device runs;
      let original = read_file path in
      let b = Bytes.of_string original in
      Bytes.set b 8 '\xFF' (* version field: now 0xFF01 *);
      write_file path (Bytes.to_string b);
      expect_corrupt "future version" (fun () -> drain path);
      write_file path ("NOTATALL" ^ String.sub original 8 (String.length original - 8));
      expect_corrupt "bad magic" (fun () -> drain path))

let test_replay_parameter_mismatch_rejected () =
  let device = Reveal.Device.create ~n:4 () in
  let runs = sample_runs device 1 in
  with_tmp "mismatch.rvt" (fun path ->
      write_archive path device runs;
      let other = Reveal.Device.create ~n:8 () in
      (match Reveal.Device.open_replay ~expect:other path with
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "message names the mismatch" true (contains ~affix:"coefficient count" msg)
      | _ -> Alcotest.fail "n mismatch accepted");
      let branchless = Reveal.Device.create ~variant:Riscv.Sampler_prog.Branchless ~n:4 () in
      match Reveal.Device.open_replay ~expect:branchless path with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "variant mismatch accepted")

(* --- profile cache -------------------------------------------------------- *)

(* A tiny but real profile: restricted candidate values keep the
   device small enough for unit-test time. *)
let tiny_values = [| -2; -1; 0; 1; 2 |]

let tiny_profile =
  lazy
    (let device = Reveal.Device.create ~n:16 () in
     Reveal.Campaign.profile ~values:tiny_values ~per_value:16 device (rng ()))

let profile_equal (a : Reveal.Campaign.profile) (b : Reveal.Campaign.profile) =
  let template_equal (x : Sca.Template.t) (y : Sca.Template.t) =
    x.Sca.Template.labels = y.Sca.Template.labels
    && Array.for_all2 float_bits_equal x.Sca.Template.means y.Sca.Template.means
    && Array.for_all2 float_bits_equal
         (Mathkit.Matrix.to_arrays x.Sca.Template.inv_cov)
         (Mathkit.Matrix.to_arrays y.Sca.Template.inv_cov)
    && Int64.equal (Int64.bits_of_float x.Sca.Template.log_det) (Int64.bits_of_float y.Sca.Template.log_det)
    && x.Sca.Template.pois = y.Sca.Template.pois
  in
  a.Reveal.Campaign.window_length = b.Reveal.Campaign.window_length
  && a.Reveal.Campaign.values = b.Reveal.Campaign.values
  && a.Reveal.Campaign.segment = b.Reveal.Campaign.segment
  && Int64.equal (Int64.bits_of_float a.Reveal.Campaign.sigma) (Int64.bits_of_float b.Reveal.Campaign.sigma)
  && Int64.equal (Int64.bits_of_float a.Reveal.Campaign.sign_fit_floor) (Int64.bits_of_float b.Reveal.Campaign.sign_fit_floor)
  && Int64.equal
       (Int64.bits_of_float a.Reveal.Campaign.value_fit_floor)
       (Int64.bits_of_float b.Reveal.Campaign.value_fit_floor)
  && template_equal a.Reveal.Campaign.attack.Sca.Attack.sign_template b.Reveal.Campaign.attack.Sca.Attack.sign_template
  && template_equal a.Reveal.Campaign.attack.Sca.Attack.neg_template b.Reveal.Campaign.attack.Sca.Attack.neg_template
  && template_equal a.Reveal.Campaign.attack.Sca.Attack.pos_template b.Reveal.Campaign.attack.Sca.Attack.pos_template
  && float_bits_equal a.Reveal.Campaign.attack.Sca.Attack.neg_priors b.Reveal.Campaign.attack.Sca.Attack.neg_priors
  && float_bits_equal a.Reveal.Campaign.attack.Sca.Attack.pos_priors b.Reveal.Campaign.attack.Sca.Attack.pos_priors
  && float_bits_equal a.Reveal.Campaign.attack.Sca.Attack.prior_of_sign
       b.Reveal.Campaign.attack.Sca.Attack.prior_of_sign
  && a.Reveal.Campaign.attack.Sca.Attack.pois_sign = b.Reveal.Campaign.attack.Sca.Attack.pois_sign
  && a.Reveal.Campaign.attack.Sca.Attack.pois_neg = b.Reveal.Campaign.attack.Sca.Attack.pois_neg
  && a.Reveal.Campaign.attack.Sca.Attack.pois_pos = b.Reveal.Campaign.attack.Sca.Attack.pois_pos

let test_profile_cache_roundtrip () =
  let prof = Lazy.force tiny_profile in
  with_tmp "profile.bin" (fun path ->
      Reveal.Campaign.save_profile path prof;
      let loaded = Reveal.Campaign.load_profile path in
      Alcotest.(check bool) "profile loads bit-identically" true (profile_equal prof loaded))

let expect_invalid_arg name ~mentions f =
  match f () with
  | exception Invalid_argument msg ->
      List.iter
        (fun affix ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: error mentions %S (got %S)" name affix msg)
            true (contains ~affix msg))
        mentions
  | _ -> Alcotest.failf "%s: bad cache was accepted" name

let test_profile_cache_stale_rejected () =
  with_tmp "stale.bin" (fun path ->
      (* what PR-era v1 wrote: text magic + Marshal blob *)
      let oc = open_out_bin path in
      output_string oc "REVEAL-PROFILE-v1\n";
      Marshal.to_channel oc (1, 2, 3) [];
      close_out oc;
      expect_invalid_arg "stale v1 cache" ~mentions:[ "stale"; "re-run profiling" ] (fun () ->
          Reveal.Campaign.load_profile path))

let test_profile_cache_truncated_rejected () =
  let prof = Lazy.force tiny_profile in
  with_tmp "truncated.bin" (fun path ->
      Reveal.Campaign.save_profile path prof;
      let full = read_file path in
      List.iter
        (fun keep ->
          write_file path (String.sub full 0 keep);
          expect_invalid_arg (Printf.sprintf "truncated to %d" keep) ~mentions:[] (fun () ->
              Reveal.Campaign.load_profile path))
        [ 3; 9; String.length full / 2; String.length full - 1 ])

let test_profile_cache_corrupt_rejected () =
  let prof = Lazy.force tiny_profile in
  with_tmp "flipped.bin" (fun path ->
      Reveal.Campaign.save_profile path prof;
      let full = read_file path in
      let b = Bytes.of_string full in
      let off = String.length full / 2 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
      write_file path (Bytes.to_string b);
      expect_invalid_arg "flipped byte" ~mentions:[ "corrupt" ] (fun () -> Reveal.Campaign.load_profile path))

(* --- record / replay pipeline -------------------------------------------- *)

let test_replay_attack_bit_identical () =
  let device = Reveal.Device.create ~n:16 () in
  let prof = Lazy.force tiny_profile in
  (* identical generator derivations for the live and recorded campaigns *)
  let live_scope = Mathkit.Prng.create ~seed:9L () and live_sampler = Mathkit.Prng.create ~seed:10L () in
  let rec_scope = Mathkit.Prng.create ~seed:9L () and rec_sampler = Mathkit.Prng.create ~seed:10L () in
  let live_runs = Array.init 3 (fun _ -> Reveal.Device.run_gaussian device ~scope_rng:live_scope ~sampler_rng:live_sampler) in
  with_tmp "replay.rvt" (fun path ->
      Reveal.Device.record device ~path ~seed:9L ~traces:3 ~scope_rng:rec_scope ~sampler_rng:rec_sampler;
      let replayed = ref [] in
      Reveal.Device.replay_iter ~expect:device path ~f:(fun run -> replayed := run :: !replayed);
      let replayed = Array.of_list (List.rev !replayed) in
      Alcotest.(check int) "replayed all traces" 3 (Array.length replayed);
      Array.iteri
        (fun i live ->
          let offline = replayed.(i) in
          let live_r = Reveal.Campaign.attack_trace prof live in
          let offline_r = Reveal.Campaign.attack_trace prof offline in
          Alcotest.(check int) "same coefficient count" (Array.length live_r) (Array.length offline_r);
          Array.iteri
            (fun j lr ->
              let orr = offline_r.(j) in
              Alcotest.(check int) "same actual" lr.Reveal.Campaign.actual orr.Reveal.Campaign.actual;
              Alcotest.(check int) "same recovered value" lr.Reveal.Campaign.verdict.Sca.Attack.value
                orr.Reveal.Campaign.verdict.Sca.Attack.value;
              Alcotest.(check int) "same recovered sign" lr.Reveal.Campaign.verdict.Sca.Attack.sign
                orr.Reveal.Campaign.verdict.Sca.Attack.sign;
              Alcotest.(check bool) "same posterior bits" true
                (Array.for_all2
                   (fun (va, pa) (vb, pb) -> va = vb && Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
                   lr.Reveal.Campaign.posterior_all orr.Reveal.Campaign.posterior_all))
            live_r)
        live_runs)

let test_attack_archive_matches_per_trace_attacks () =
  let device = Reveal.Device.create ~n:16 () in
  let prof = Lazy.force tiny_profile in
  with_tmp "campaign.rvt" (fun path ->
      let g = rng () in
      Reveal.Device.record device ~path ~seed:0L ~traces:4 ~scope_rng:g ~sampler_rng:g;
      (* ground truth: replay each run and attack it individually *)
      let expected = ref [] in
      Reveal.Device.replay_iter path ~f:(fun run ->
          Array.iter (fun r -> expected := r :: !expected) (Reveal.Campaign.attack_trace prof run));
      let expected = Array.of_list (List.rev !expected) in
      let stats, results = Reveal.Campaign.attack_archive ~batch:2 prof path in
      Alcotest.(check int) "flattened results" (Array.length expected) (Array.length results);
      Array.iteri
        (fun i e ->
          Alcotest.(check int) "value" e.Reveal.Campaign.verdict.Sca.Attack.value
            results.(i).Reveal.Campaign.verdict.Sca.Attack.value;
          Alcotest.(check int) "actual" e.Reveal.Campaign.actual results.(i).Reveal.Campaign.actual)
        expected;
      Alcotest.(check int) "sign totals" (Array.length expected) stats.Reveal.Campaign.sign_total)

let test_profile_of_archive_matches_live_profile () =
  let device = Reveal.Device.create ~n:16 () in
  let live = Reveal.Campaign.profile ~values:tiny_values ~per_value:16 device (rng ()) in
  with_tmp "profiling.rvt" (fun path ->
      (* the same generator state drives the recorded campaign *)
      Reveal.Campaign.record_profiling ~values:tiny_values ~per_value:16 ~seed:77L device (rng ()) ~path;
      let offline = Reveal.Campaign.profile_of_archive ~batch:3 path in
      Alcotest.(check bool) "offline profile is bit-identical to the live one" true (profile_equal live offline))

let test_record_profiling_memory_is_streamed () =
  (* structural guarantee: the reader hands out one record at a time
     and batches are bounded by [max] *)
  let device = Reveal.Device.create ~n:16 () in
  with_tmp "stream.rvt" (fun path ->
      Reveal.Campaign.record_profiling ~values:tiny_values ~per_value:8 ~seed:1L device (rng ()) ~path;
      Traceio.Archive.with_reader path (fun r ->
          let batch = Traceio.Archive.next_batch r ~max:2 in
          Alcotest.(check int) "batch bounded" 2 (Array.length batch);
          let h = Traceio.Archive.header r in
          Alcotest.(check bool) "profiling metadata present" true
            (Traceio.Archive.meta_find h "profiling:threshold-bits" <> None)))

let suite =
  [
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "varint/svarint roundtrip" `Quick test_varint_roundtrip;
    Alcotest.test_case "binio truncation detected" `Quick test_binio_truncation_detected;
    QCheck_alcotest.to_alcotest prop_floats_roundtrip;
    QCheck_alcotest.to_alcotest prop_ints_roundtrip;
    Alcotest.test_case "archive roundtrip is bit-identical" `Quick test_archive_roundtrip;
    Alcotest.test_case "flipped byte => checksum error" `Quick test_archive_flipped_byte_rejected;
    Alcotest.test_case "truncated file => clean failure" `Quick test_archive_truncation_rejected;
    Alcotest.test_case "bad magic / future version rejected" `Quick test_archive_version_and_magic_rejected;
    Alcotest.test_case "replay parameter mismatch rejected" `Quick test_replay_parameter_mismatch_rejected;
    Alcotest.test_case "profile cache roundtrip" `Quick test_profile_cache_roundtrip;
    Alcotest.test_case "profile cache: stale v1 rejected" `Quick test_profile_cache_stale_rejected;
    Alcotest.test_case "profile cache: truncated rejected" `Quick test_profile_cache_truncated_rejected;
    Alcotest.test_case "profile cache: flipped byte rejected" `Quick test_profile_cache_corrupt_rejected;
    Alcotest.test_case "replayed attack = live attack (bit-identical)" `Quick test_replay_attack_bit_identical;
    Alcotest.test_case "attack_archive = per-trace replay attacks" `Quick test_attack_archive_matches_per_trace_attacks;
    Alcotest.test_case "profile_of_archive = live profile" `Quick test_profile_of_archive_matches_live_profile;
    Alcotest.test_case "archive streaming is batch-bounded" `Quick test_record_profiling_memory_is_streamed;
  ]

(* --- tolerant replay (CRC skip-and-continue) ----------------------------- *)

(* Byte offset of a mid-payload byte of record [k]: the file is
   magic(8) + version(2) followed by length-prefixed frames, frame 0
   being the header. *)
let record_payload_offset s k =
  let u32 off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)
  in
  let rec skip off frames = if frames = 0 then off else skip (off + 4 + u32 off + 4) (frames - 1) in
  let frame = skip 10 (k + 1) in
  frame + 4 + (u32 frame / 2)

let flip_payload_byte path k =
  let original = read_file path in
  let off = record_payload_offset original k in
  let b = Bytes.of_string original in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  write_file path (Bytes.to_string b)

let test_archive_try_next_skips_bad_crc () =
  let device = Reveal.Device.create ~n:8 () in
  let runs = sample_runs device 3 in
  with_tmp "skip.rvt" (fun path ->
      write_archive path device runs;
      flip_payload_byte path 1;
      (* the strict path still fails fast *)
      expect_corrupt "strict drain" (fun () -> drain path);
      (* the tolerant path drops exactly the damaged record *)
      Traceio.Archive.with_reader path (fun r ->
          let rec go recs skipped =
            match Traceio.Archive.try_next r with
            | `Record rec_ -> go (rec_.Traceio.Archive.index :: recs) skipped
            | `Skipped _ -> go recs (skipped + 1)
            | `End_of_archive -> (List.rev recs, skipped)
          in
          let indices, skipped = go [] 0 in
          Alcotest.(check (list int)) "survivors resume at the frame boundary" [ 0; 2 ] indices;
          Alcotest.(check int) "one record skipped" 1 skipped))

let test_attack_archive_skips_corrupt_record () =
  let device = Reveal.Device.create ~n:16 () in
  let prof = Lazy.force tiny_profile in
  with_tmp "tolerant.rvt" (fun path ->
      let g = rng () in
      Reveal.Device.record device ~path ~seed:0L ~traces:4 ~scope_rng:g ~sampler_rng:g;
      flip_payload_byte path 2;
      let stats, results = Reveal.Campaign.attack_archive ~batch:2 prof path in
      Alcotest.(check int) "corrupt record counted" 1 stats.Reveal.Campaign.corrupt_skipped;
      Alcotest.(check int) "remaining traces attacked" (3 * 16) (Array.length results);
      (* --strict semantics: fail fast instead of skipping *)
      expect_corrupt "strict replay" (fun () ->
          ignore (Reveal.Campaign.attack_archive ~strict:true ~batch:2 prof path)))

let suite =
  suite
  @ [
      Alcotest.test_case "try_next skips a bad-CRC record" `Quick test_archive_try_next_skips_bad_crc;
      Alcotest.test_case "attack_archive tolerant vs strict" `Quick test_attack_archive_skips_corrupt_record;
    ]

(* --- Fvec decode path (numeric core refactor) ---------------------------- *)

let test_next_fv_matches_next_bitwise () =
  (* the replay decode path ([next_fv], no float-array intermediate)
     must hand back exactly the samples the boxed decode produces *)
  let device = Reveal.Device.create ~n:8 () in
  let runs = sample_runs device 3 in
  with_tmp "fvdecode.rvt" (fun path ->
      write_archive path device runs;
      Traceio.Archive.with_reader path (fun boxed ->
          Traceio.Archive.with_reader path (fun fv ->
              let rec go seen =
                match (Traceio.Archive.next boxed, Traceio.Archive.next_fv fv) with
                | None, None -> seen
                | Some r, Some rf ->
                    Alcotest.(check int) "index" r.Traceio.Archive.index rf.Traceio.Archive.fv_index;
                    Alcotest.(check (array int)) "noises" r.Traceio.Archive.noises rf.Traceio.Archive.fv_noises;
                    let xs = r.Traceio.Archive.trace.Power.Ptrace.samples in
                    Alcotest.(check int) "length" (Array.length xs) (Mathkit.Fvec.length rf.Traceio.Archive.fv_samples);
                    Array.iteri
                      (fun i s ->
                        Alcotest.(check int64)
                          (Printf.sprintf "sample %d bits" i)
                          (Int64.bits_of_float s)
                          (Int64.bits_of_float (Mathkit.Fvec.get rf.Traceio.Archive.fv_samples i)))
                      xs;
                    go (seen + 1)
                | Some _, None | None, Some _ -> Alcotest.fail "decode paths disagree on record count"
              in
              let n = go 0 in
              Alcotest.(check int) "all records compared" 3 n)))

let suite =
  suite @ [ Alcotest.test_case "next_fv decode = next decode (bit-identical)" `Quick test_next_fv_matches_next_bitwise ]

(* --- decode kernels against boxed references ----------------------------- *)

(* The byte-at-a-time, boxed-[Int64] decoders the native kernels
   replaced, kept as oracles: same values, same [Corrupt] messages,
   same cursor position on failure. *)
module Ref = struct
  type cursor = { data : string; mutable pos : int; name : string }

  let cursor ?(name = "buffer") data = { data; pos = 0; name }
  let remaining c = String.length c.data - c.pos

  let get_u8 c =
    if remaining c < 1 then
      Traceio.Error.corruptf "%s: truncated record (need %d more bytes at offset %d of %d)" c.name 1 c.pos
        (String.length c.data);
    let v = Char.code c.data.[c.pos] in
    c.pos <- c.pos + 1;
    v

  let get_varint c =
    let v = ref 0L and shift = ref 0 and continue_ = ref true in
    while !continue_ do
      if !shift > 63 then Traceio.Error.corruptf "%s: varint longer than 10 bytes at offset %d" c.name c.pos;
      let byte = get_u8 c in
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte land 0x7F)) !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then continue_ := false
    done;
    !v

  let get_svarint c = Traceio.Binio.unzigzag (get_varint c)

  let get_varint_int c =
    let v = get_varint c in
    if Int64.compare v (Int64.of_int max_int) > 0 then
      Traceio.Error.corruptf "%s: varint %Lu does not fit an OCaml int" c.name v;
    Int64.to_int v

  let fits v = Int64.compare v (Int64.of_int max_int) <= 0 && Int64.compare v (Int64.of_int min_int) >= 0

  let get_count c =
    let n = get_varint_int c in
    if n > remaining c then
      Traceio.Error.corruptf "int array claims %d elements but only %d bytes remain" n (remaining c);
    n

  let get_ints_delta c =
    let n = get_count c in
    let prev = ref 0L in
    Array.init n (fun _ ->
        let v = Int64.add !prev (get_svarint c) in
        prev := v;
        if not (fits v) then Traceio.Error.corruptf "int array element %Ld does not fit an OCaml int" v;
        Int64.to_int v)

  let get_ints c =
    let n = get_count c in
    Array.init n (fun _ ->
        let v = get_svarint c in
        if not (fits v) then Traceio.Error.corruptf "int array element %Ld does not fit an OCaml int" v;
        Int64.to_int v)

  (* Bytewise reflected CRC-32. *)
  let crc_table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let crc_update crc s pos len =
    let c = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF
end

(* What a decoder did to a string: its value or [Corrupt] message, and
   the bytes it left unread. *)
let outcome_new f s =
  let c = Traceio.Binio.cursor s in
  let r = try Ok (f c) with Traceio.Error.Corrupt m -> Error m in
  (r, Traceio.Binio.remaining c)

let outcome_ref f s =
  let c = Ref.cursor s in
  let r = try Ok (f c) with Traceio.Error.Corrupt m -> Error m in
  (r, Ref.remaining c)

(* 64-bit values spread over every encoded length, 1 to 10 bytes. *)
let gen_u64 =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x00FFFFFFFFFFFFFFL; 0x0100000000000000L ]);
        ( 8,
          map2
            (fun len bits ->
              let width = min 64 (7 * len) in
              let v = if width = 64 then bits else Int64.shift_right_logical bits (64 - width) in
              (* force the top bit of the width so the length is exact *)
              Int64.logor v (Int64.shift_left 1L (width - 1)))
            (int_range 1 10) ui64 );
      ])

let encode put v =
  let b = Buffer.create 10 in
  put b v;
  Buffer.contents b

let prefixes s = List.init (String.length s + 1) (fun k -> String.sub s 0 k)

let prop_varint_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"varint kernel = boxed reference (values, truncations)"
    (QCheck.make ~print:(Printf.sprintf "%Lx") gen_u64)
    (fun v ->
      let agree s =
        outcome_new Traceio.Binio.get_varint s = outcome_ref Ref.get_varint s
        && outcome_new Traceio.Binio.get_svarint s = outcome_ref Ref.get_svarint s
        && outcome_new Traceio.Binio.get_varint_int s = outcome_ref Ref.get_varint_int s
      in
      let plain = encode Traceio.Binio.put_varint v and zz = encode Traceio.Binio.put_svarint v in
      outcome_new Traceio.Binio.get_varint plain = (Ok v, 0)
      && outcome_new Traceio.Binio.get_svarint zz = (Ok v, 0)
      && List.for_all agree (prefixes plain)
      && List.for_all agree (prefixes zz))

(* Raw bytes, mostly with the continuation bit set: over-long (11-byte)
   varints, non-canonical 10th bytes and truncations. *)
let gen_raw_varint =
  QCheck.Gen.(
    map
      (fun l -> String.init (List.length l) (List.nth l))
      (list_size (int_range 0 12)
         (map Char.chr (frequency [ (3, int_range 0x80 0xFF); (1, int_range 0 0xFF) ]))))

let prop_varint_raw_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"varint kernel = boxed reference (raw and over-long bytes)"
    (QCheck.make ~print:String.escaped gen_raw_varint)
    (fun s ->
      let over_long = String.make 11 '\xff' in
      List.for_all
        (fun s ->
          outcome_new Traceio.Binio.get_varint s = outcome_ref Ref.get_varint s
          && outcome_new Traceio.Binio.get_svarint s = outcome_ref Ref.get_svarint s
          && outcome_new Traceio.Binio.get_varint_int s = outcome_ref Ref.get_varint_int s)
        [ s; over_long; String.sub over_long 0 10 ^ "\x00" ])

(* Int streams whose elements sit near the edges of the OCaml int range,
   so native sums overflow and the checked path must take over. *)
let gen_int_stream =
  QCheck.Gen.(
    let elem =
      frequency
        [
          (3, map Int64.of_int (int_range (-1000) 1000));
          (2, map (fun d -> Int64.add (Int64.of_int max_int) (Int64.of_int d)) (int_range (-4) 4));
          (2, map (fun d -> Int64.add (Int64.of_int min_int) (Int64.of_int d)) (int_range (-4) 4));
          (1, ui64);
        ]
    in
    map2
      (fun (count, elems) cut ->
        let b = Buffer.create 64 in
        Traceio.Binio.put_varint b (Int64.of_int count);
        List.iter (Traceio.Binio.put_svarint b) elems;
        let s = Buffer.contents b in
        match cut with Some k when k < String.length s -> String.sub s 0 k | _ -> s)
      (pair (int_range 0 6) (list_size (int_range 0 6) elem))
      (opt (int_range 0 60)))

let prop_int_streams_match_reference =
  QCheck.Test.make ~count:1000 ~name:"int stream decoders = boxed reference"
    (QCheck.make ~print:String.escaped gen_int_stream)
    (fun s ->
      outcome_new Traceio.Codec.get_ints_delta s = outcome_ref Ref.get_ints_delta s
      && outcome_new Traceio.Codec.get_ints s = outcome_ref Ref.get_ints s
      && outcome_new Traceio.Codec.check_ints_delta s
         = (match outcome_ref Ref.get_ints_delta s with Ok xs, r -> (Ok (Array.length xs), r) | (Error _, _) as e -> e))

(* Floats whose bit-pattern deltas need every varint length, 10 bytes
   included: NaN payloads, signed zeros, infinities, sign crossings. *)
let gen_special_floats =
  QCheck.Gen.(
    let special =
      frequency
        [
          (1, oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; Float.min_float; -.Float.max_float; 1e-310 ]);
          (2, map (fun p -> Int64.float_of_bits (Int64.logor 0x7FF0000000000000L (Int64.logand p 0x800FFFFFFFFFFFFFL))) ui64);
          (2, map Int64.float_of_bits ui64);
          (3, float_range (-5.0) 5.0);
        ]
    in
    array_size (int_range 0 64) special)

let prop_floats_fv_roundtrip =
  QCheck.Test.make ~count:500 ~name:"get_floats_fv roundtrips special floats bit for bit; get_floats agrees"
    (QCheck.make ~print:(fun xs -> String.concat " " (Array.to_list (Array.map (fun x -> Printf.sprintf "%Lx" (Int64.bits_of_float x)) xs))) gen_special_floats)
    (fun xs ->
      let s = encode Traceio.Codec.put_floats xs in
      let c = Traceio.Binio.cursor s in
      let fv = Traceio.Codec.get_floats_fv c in
      let c' = Traceio.Binio.cursor s in
      let boxed = Traceio.Codec.get_floats c' in
      Traceio.Binio.at_end c && Traceio.Binio.at_end c'
      && float_bits_equal xs (Mathkit.Fvec.to_array fv)
      && float_bits_equal xs boxed)

let prop_crc_matches_bytewise =
  QCheck.Test.make ~count:500 ~name:"slicing-by-8 crc32 = bytewise reference (any pos/len, chained)"
    QCheck.(triple (string_of_size Gen.(0 -- 100)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      let split = pos + (len / 3) in
      let one = Traceio.Crc32.update 0 s pos len in
      let chained = Traceio.Crc32.update (Traceio.Crc32.update 0 s pos (split - pos)) s split (pos + len - split) in
      one = Ref.crc_update 0 s pos len && chained = one && Traceio.Crc32.digest s = Ref.crc_update 0 s 0 n)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_varint_matches_reference;
        prop_varint_raw_matches_reference;
        prop_int_streams_match_reference;
        prop_floats_fv_roundtrip;
        prop_crc_matches_bytewise;
      ]

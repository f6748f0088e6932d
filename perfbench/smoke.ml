(* Tiny-size smoke test of the benchmark (n = 64, 40 profiling windows
   per value, 3 traces): BENCHMARK.json and the metric catalogue agree,
   every workload runs untraced and traced with every correctness gate
   holding, and every metric is reported, finite, with its unit. *)

open Perfbench

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        print_endline ("FAIL " ^ msg)
      end)
    fmt

let member k j = Option.get (Obs.Json.member k j)
let string k j = Option.get (Obs.Json.to_string_opt (member k j))
let list = function Obs.Json.List l -> l | _ -> failwith "smoke: expected a JSON list"

(* BENCHMARK.json lists exactly the workloads and metrics the code runs. *)
let check_manifest () =
  let json =
    match Obs.Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("smoke: BENCHMARK.json: " ^ e)
  in
  let names = List.map (string "name") (list (member "workloads" json)) in
  check (names = List.map fst Workload.kinds) "workloads: %s" (String.concat ", " names);
  let metrics key spec =
    let listed = List.map (fun j -> (string "name" j, string "unit" j, string "better" j)) (list (member key json)) in
    let expected = List.map (fun m -> (m.Spec.name, m.Spec.unit, Spec.better_name m.Spec.better)) spec in
    check (listed = expected) "%s in BENCHMARK.json differ from Spec" key
  in
  metrics "end_to_end" Spec.end_to_end;
  metrics "per_layer" Spec.per_layer

(* The result line is one JSON object with exactly the four keys, and
   each metric carries its unit. *)
let check_result name trace (r : Run.result) spec =
  let label = Printf.sprintf "%s trace=%b" name trace in
  List.iter (fun f -> check false "%s: gate: %s" label f) r.Run.failures;
  check r.Run.correct "%s: correct" label;
  check (r.Run.attempted > 0 && r.Run.failed = 0) "%s: attempted %d failed %d" label r.Run.attempted r.Run.failed;
  match Obs.Json.parse (Run.result_line r) with
  | Error e -> check false "%s: result line does not parse: %s" label e
  | Ok (Obs.Json.Obj fields as j) ->
      check
        (List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ])
        "%s: result keys" label;
      List.iter
        (fun m ->
          match Obs.Json.member m.Spec.name (member "metrics" j) with
          | None -> check false "%s: %s missing" label m.Spec.name
          | Some v ->
              check (string "unit" v = m.Spec.unit) "%s: %s unit" label m.Spec.name;
              check
                (Option.fold ~none:false ~some:Float.is_finite (Obs.Json.to_float_opt (member "value" v)))
                "%s: %s value" label m.Spec.name)
        spec;
      check (List.length r.Run.metrics = List.length spec) "%s: metric count" label
  | Ok _ -> check false "%s: result is not an object" label

let () =
  check_manifest ();
  let work_dir = "smoke_work" in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  List.iter
    (fun (name, kind) ->
      let plan = Workload.plan ~work_dir ~tiny:true kind 54398L in
      Fun.protect
        ~finally:(fun () -> Workload.dispose plan)
        (fun () ->
          check_result name false (Run.run ~trace:false ~seconds:0.0 plan) Spec.end_to_end;
          check_result name true (Run.run ~trace:true ~seconds:0.0 plan) Spec.per_layer))
    Workload.kinds;
  if !failures > 0 then begin
    Printf.printf "perfbench smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "perfbench smoke: ok"

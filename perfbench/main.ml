(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one metadata line (host, workload, archive), then as its last
   line the result object: [--trace 0] reports the end-to-end metrics,
   [--trace 1] the per-layer ones.  perfbench/run.py builds this
   executable and forwards the arguments. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME live-attack | replay-attack | faulted-attack");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S time budget of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  Arg.parse spec (fun a -> die ("unexpected argument " ^ a)) usage;
  let kind =
    match List.assoc_opt !workload Workload.kinds with
    | Some k -> k
    | None -> die (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (* the replay archive and the identity check's profile files *)
  let work_dir = ".perfbench_work" in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let plan = Workload.plan ~work_dir ~tiny:false kind (Int64.of_int !seed) in
  let r =
    Fun.protect
      ~finally:(fun () -> Workload.dispose plan)
      (fun () -> Run.run ~progress:true ~trace:(!trace = 1) ~seconds:!seconds plan)
  in
  List.iter (fun f -> prerr_endline ("perfbench: gate failed: " ^ f)) r.Run.failures;
  let archive =
    match plan.Workload.archive with
    | Some a -> Obs.Json.Obj [ ("bytes", Obs.Json.Int a.Workload.bytes); ("records", Obs.Json.Int a.Workload.records) ]
    | None -> Obs.Json.Null
  in
  Obs.Json.print
    (Obs.Json.Obj
       [
         ("host", Run.host_json ());
         ("workload", Obs.Json.String !workload);
         ("seed", Obs.Json.Int !seed);
         ("trace", Obs.Json.Int !trace);
         ( "shape",
           Obs.Json.Obj
             [
               ("n", Obs.Json.Int plan.Workload.size.Workload.n);
               ("per_value", Obs.Json.Int plan.Workload.size.Workload.per_value);
               ("traces", Obs.Json.Int plan.Workload.size.Workload.traces);
             ] );
         ("repeats", Obs.Json.Int r.Run.repeats);
         ("archive", archive);
       ]);
  print_endline (Run.result_line r)

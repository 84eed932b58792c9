(* In-process replay of one benchmark workload.

   usage: replay.exe --out FILE [--spans FILE] [--run-id ID] -- COMMAND...

   COMMAND is the usched command line a workload runs, without the
   program name: "solve FILE [flags]" or "run fig3 [flags]". The replay
   makes the public library calls that bin/main.ml (solve) and
   Experiments.Fig3 (run fig3) make, in the same order, on one domain.

   With --spans, each call is wrapped in a span (name, start, end,
   parent, run id) and every engine run gets a live metrics registry.
   Without it, spans are off and the registries are the ones the CLI
   passes, so the two kinds of pass differ only by tracing. Spans stay in
   memory and are written to --spans at exit. The values the CLI prints
   (formatted as it formats them), the engine's metrics snapshot, heap
   deltas and the pass's wall time go to --out as one JSON object. *)

module Json = Usched_report.Json
module Metrics = Usched_obs.Metrics
module Sink = Usched_obs.Trace
module Model = Usched_model
module Core = Usched_core
module Engine = Usched_desim.Engine
module Schedule = Usched_desim.Schedule
module Runner = Usched_experiments.Runner
module Rng = Usched_prng.Rng

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("replay: " ^ s); exit 2) fmt

(* ---------------- spans ---------------- *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  run : string;
}

let tracing = ref false
let run_id = ref "0"
let spans = ref []
let next_id = ref 0
let open_spans = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start = Metrics.now_s () in
    Fun.protect f ~finally:(fun () ->
        let stop = Metrics.now_s () in
        open_spans := List.tl !open_spans;
        spans := { id; name; start; stop; parent; run = !run_id } :: !spans)
  end

let span_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("name", Json.String s.name);
      ("start", Json.Float s.start);
      ("end", Json.Float s.stop);
      ("parent", Json.Int s.parent);
      ("run", Json.String s.run);
    ]

let heap_mb () = float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8.0 /. 1e6

(* Values reported to the harness, in insertion order. *)
let results = ref []
let report key v = results := (key, v) :: !results
let report_f4 key x = report key (Json.String (Printf.sprintf "%.4f" x))

(* A registry the CLI would not create is created anyway on traced
   passes, so their counts come from the engine's own instruments. *)
let registry ~cli_live =
  if cli_live || !tracing then Metrics.create () else Metrics.disabled

(* ---------------- solve ---------------- *)

type solve = {
  file : string;
  algo : Core.Strategy.t;
  seed : int;
  fail_rate : float;
  speculate : float option;
  recover : Usched_faults.Recovery.target;
  detect_latency : float;
  bandwidth : float;
  stream : bool;
  arrival : Usched_desim.Arrival.t;
  trace : string option;
}

let parse_solve args =
  let float_arg flag v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> fail "%s: not a number: %S" flag v
  in
  let ok flag = function Ok x -> x | Error msg -> fail "%s: %s" flag msg in
  let rec go o = function
    | [] -> o
    | "--algo" :: v :: r -> go { o with algo = ok "--algo" (Core.Strategy.of_string v) } r
    | "--seed" :: v :: r -> (
        match int_of_string_opt v with
        | Some seed -> go { o with seed } r
        | None -> fail "--seed: not an integer: %S" v)
    | "--fail-rate" :: v :: r -> go { o with fail_rate = float_arg "--fail-rate" v } r
    | "--speculate" :: v :: r ->
        go { o with speculate = Some (float_arg "--speculate" v) } r
    | "--recover" :: v :: r ->
        go
          { o with recover = ok "--recover" (Usched_faults.Recovery.target_of_string v) }
          r
    | "--detect-latency" :: v :: r ->
        go { o with detect_latency = float_arg "--detect-latency" v } r
    | "--bandwidth" :: v :: r -> go { o with bandwidth = float_arg "--bandwidth" v } r
    | "--stream" :: r -> go { o with stream = true } r
    | "--arrival" :: v :: r ->
        go { o with arrival = ok "--arrival" (Usched_desim.Arrival.of_string v) } r
    | "--trace" :: v :: r -> go { o with trace = Some v } r
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
        fail "solve flag %s is not replayed" flag
    | file :: r -> go { o with file } r
  in
  let o =
    go
      {
        file = "";
        algo = Core.Strategy.(full_replication Lpt);
        seed = 42;
        fail_rate = 0.0;
        speculate = None;
        recover = Usched_faults.Recovery.Fixed 0;
        detect_latency = 0.0;
        bandwidth = infinity;
        stream = false;
        arrival = Usched_desim.Arrival.poisson ~rate:1.0;
        trace = None;
      }
      args
  in
  if o.file = "" then fail "solve: no instance file";
  if o.stream && (o.fail_rate > 0.0 || o.trace <> None) then
    fail "solve --stream with --fail-rate or --trace is not replayed";
  o

(* Useful work (actual times of finished tasks) over useful plus wasted
   machine time. *)
let useful_work_frac realization (outcome : Engine.outcome) =
  let actuals = Model.Realization.actuals realization in
  let useful = ref 0.0 in
  Array.iteri
    (fun j -> function
      | Engine.Finished _ -> useful := !useful +. actuals.(j)
      | Engine.Stranded -> ())
    outcome.Engine.fates;
  !useful /. (!useful +. outcome.Engine.wasted)

let replay_solve o =
  let recovery =
    if
      o.recover = Usched_faults.Recovery.Fixed 0
      && o.detect_latency = 0.0 && o.bandwidth = infinity
    then Usched_faults.Recovery.none
    else
      Usched_faults.Recovery.make ~detection_latency:o.detect_latency
        ~rereplication_target:o.recover ~bandwidth:o.bandwidth ()
  in
  let policy = Usched_desim.Dispatch.default in
  let t0 = Metrics.now_s () in
  let heap0 = heap_mb () in
  let instance = span "model.load_instance" (fun () -> Model.Io.load_instance ~path:o.file) in
  let heap1 = heap_mb () in
  let m = Model.Instance.m instance and n = Model.Instance.n instance in
  let algo =
    match Core.Strategy.check o.algo ~m with
    | Ok () -> Core.Strategy.build o.algo ~m
    | Error msg -> fail "--algo: %s" msg
  in
  let rng = Rng.create ~seed:o.seed () in
  let realization =
    span "model.realization" (fun () -> Model.Realization.log_uniform_factor instance rng)
  in
  let placement = span "core.phase1" (fun () -> algo.Core.Two_phase.phase1 instance) in
  let heap2 = heap_mb () in
  let schedule =
    span "desim.phase2" (fun () -> algo.Core.Two_phase.phase2 instance placement realization)
  in
  let lb =
    span "core.lower_bounds" (fun () ->
        Core.Lower_bounds.best ~m (Model.Realization.actuals realization))
  in
  let healthy = Schedule.makespan schedule in
  let sizes = Model.Instance.sizes instance in
  let sink = Option.map (fun path -> span "obs.trace_emit" (fun () -> Sink.create ~path)) o.trace in
  let records = ref 0 in
  let emit json =
    match sink with
    | None -> ()
    | Some s ->
        incr records;
        Sink.emit s json
  in
  let replication_cost =
    span "core.replication_cost" (fun () ->
        Core.Placement.replication_cost placement
          ~topology:(Model.Instance.topology_or_uniform instance)
          ~sizes)
  in
  span "obs.trace_emit" (fun () ->
      emit
        (Json.Obj
           [
             ("type", Json.String "meta");
             ("tool", Json.String "perfbench replay");
             ("algo", Json.String algo.Core.Two_phase.name);
             ("seed", Json.Int o.seed);
             ("n", Json.Int n);
             ("m", Json.Int m);
             ("replication_cost", Json.float replication_cost);
           ]));
  let replicas_max = span "core.max_replication" (fun () -> Core.Placement.max_replication placement) in
  let mem_max = span "core.memory_max" (fun () -> Core.Placement.memory_max placement ~sizes) in
  Printf.printf
    "%s on %s: C_max = %.4f (lower bound %.4f, ratio <= %.4f)\n\
     replicas/task max %d, Mem_max %.4f\n"
    algo.Core.Two_phase.name o.file healthy lb (healthy /. lb) replicas_max mem_max;
  print_string (span "desim.render_stats" (fun () -> Usched_desim.Timeline.render_stats schedule));
  let emit_events events =
    span "obs.trace_emit" (fun () -> List.iter (fun e -> emit (Engine.event_json e)) events)
  in
  if sink <> None then begin
    let metrics = Metrics.create () in
    let order = span "model.lpt_order" (fun () -> Model.Instance.lpt_order instance) in
    let replay, events =
      span "desim.healthy_replay" (fun () ->
          Engine.run_traced ~dispatch:policy ~metrics instance realization
            ~placement:(Core.Placement.sets placement) ~order)
    in
    emit_events events;
    span "obs.trace_emit" (fun () ->
        emit
          (Json.Obj
             [
               ("type", Json.String "metrics");
               ("metrics", Metrics.to_json (Metrics.snapshot metrics));
             ]);
        emit
          (Json.Obj
             [
               ("type", Json.String "summary");
               ("makespan", Json.float (Schedule.makespan replay));
               ("lower_bound", Json.float lb);
             ]))
  end;
  let primary =
    if o.stream then begin
      let order = Array.init n (fun j -> j) in
      let arrivals =
        span "desim.arrival_generate" (fun () ->
            Usched_desim.Arrival.generate o.arrival rng ~count:n)
      in
      let so =
        span "desim.stream_run" (fun () ->
            Engine.run_stream ?speculation:o.speculate ~dispatch:policy ~recovery
              ~metrics:(registry ~cli_live:false) instance realization ~arrivals
              ~placement:(Core.Placement.sets placement) ~order)
      in
      let lat = so.Engine.latencies in
      let p50, p95, p99 =
        span "stats.quantile" (fun () ->
            let q p = Usched_stats.Quantile.quantile lat ~q:p in
            (q 0.5, q 0.95, q 0.99))
      in
      report "stream_completed" (Json.Int so.Engine.outcome.Engine.completed);
      report_f4 "p50" p50;
      report_f4 "p95" p95;
      report_f4 "p99" p99;
      Some so.Engine.outcome
    end
    else if o.fail_rate > 0.0 || o.speculate <> None || Usched_faults.Recovery.is_active recovery
    then begin
      let faults =
        span "faults.crash_trace" (fun () ->
            Usched_faults.Trace.random_crashes rng ~m ~p:o.fail_rate ~horizon:healthy)
      in
      let metrics =
        registry ~cli_live:(sink <> None || Usched_faults.Recovery.is_active recovery)
      in
      let order = span "model.lpt_order" (fun () -> Model.Instance.lpt_order instance) in
      let outcome, events =
        span "desim.faulty_run" (fun () ->
            Engine.run_faulty_traced ?speculation:o.speculate ~dispatch:policy ~recovery
              ~metrics instance realization ~faults
              ~placement:(Core.Placement.sets placement) ~order)
      in
      if sink <> None then begin
        emit_events events;
        span "obs.trace_emit" (fun () -> emit (Engine.outcome_json outcome))
      end;
      report "faulty_completed" (Json.Int outcome.Engine.completed);
      report "stranded" (Json.Int (List.length outcome.Engine.stranded));
      report_f4 "faulty_cmax" outcome.Engine.makespan;
      Some outcome
    end
    else None
  in
  Option.iter (fun s -> span "obs.trace_emit" (fun () -> Sink.close s)) sink;
  report "wall_s" (Json.Float (Metrics.now_s () -. t0));
  (* Checks and derived figures, outside the timed region. *)
  report_f4 "cmax" healthy;
  report_f4 "lower_bound" lb;
  report_f4 "ratio" (healthy /. lb);
  report "replicas_max" (Json.Int replicas_max);
  report_f4 "mem_max" mem_max;
  report "n" (Json.Int n);
  report "violations"
    (Json.Int
       (List.length
          (Schedule.validate ~placement:(Core.Placement.sets placement) instance
             realization schedule)));
  report "instance_heap_mb" (Json.Float (heap1 -. heap0));
  report "placement_heap_mb" (Json.Float (heap2 -. heap1));
  report "trace_records" (Json.Int !records);
  match primary with
  | None -> report "useful_work_frac" (Json.Float 1.0)
  | Some outcome ->
      report "useful_work_frac" (Json.Float (useful_work_frac realization outcome));
      report "engine" (Metrics.to_json outcome.Engine.metrics)

(* ---------------- run fig3 ---------------- *)

(* Experiments.Fig3's measured series and CSV output, with the sweep of
   Runner.random_sweep unrolled on one domain so each run's calls can be
   spanned. Tables and plots are not rendered. *)
let replay_fig3 args =
  let rec go ((seed, reps, csv) as acc) = function
    | [] -> acc
    | "--seed" :: v :: r -> go (int_of_string v, reps, csv) r
    | "--reps" :: v :: r -> go (seed, int_of_string v, csv) r
    | "--csv" :: v :: r -> go (seed, reps, Some v) r
    | "--domains" :: _ :: r -> go acc r
    | flag :: _ -> fail "run fig3: argument %s is not replayed" flag
  in
  let seed, reps, csv_dir =
    go (Runner.default_config.seed, Runner.default_config.reps, None) args
  in
  let config =
    { (Runner.fresh_metrics Runner.default_config) with seed; reps; domains = 1; csv_dir }
  in
  let pass = !run_id in
  let runs = ref 0 in
  let m = 210 in
  let spec = Model.Workload.Uniform { lo = 1.0; hi = 100.0 } in
  let sweep ~alpha algo =
    let alpha_v = Model.Uncertainty.alpha alpha in
    let master = Rng.create ~seed () in
    let streams = Array.init reps (fun _ -> Rng.split master) in
    let summary = Usched_stats.Summary.create () in
    Array.iter
      (fun rng ->
        run_id := Printf.sprintf "%s/%d" pass !runs;
        incr runs;
        span "experiments.run" (fun () ->
            let instance =
              span "model.workload_generate" (fun () ->
                  Model.Workload.generate spec ~n:(4 * m) ~m ~alpha:alpha_v rng)
            in
            let realization =
              span "model.realization" (fun () ->
                  Model.Realization.extremes ~p_high:0.3 instance rng)
            in
            let placement = span "core.phase1" (fun () -> algo.Core.Two_phase.phase1 instance) in
            let schedule =
              span "desim.phase2" (fun () ->
                  algo.Core.Two_phase.phase2 instance placement realization)
            in
            let opt, _ =
              span "experiments.opt_estimate" (fun () ->
                  Runner.opt_estimate config ~m (Model.Realization.actuals realization))
            in
            Usched_stats.Summary.add summary (Schedule.makespan schedule /. opt)))
      streams;
    run_id := pass;
    Usched_stats.Summary.max summary
  in
  let replications = [ 1; 3; 10; 42; 210 ] in
  let series alpha spec_of =
    List.map
      (fun r -> (r, sweep ~alpha (Runner.strategy config ~m (spec_of r))))
      replications
  in
  let t0 = Metrics.now_s () in
  List.iter
    (fun alpha ->
      let measured = series alpha (fun r -> Core.Strategy.(group ~order:Ls ~k:(m / r))) in
      ignore (series alpha (fun r -> Core.Strategy.budgeted ~k:r));
      let guarantees =
        List.filter (fun k -> m mod k = 0) (List.init m (fun i -> i + 1))
        |> List.map (fun k -> (m / k, Core.Guarantees.ls_group ~m ~k ~alpha))
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      span "experiments.csv" (fun () ->
          Runner.maybe_csv config
            ~name:(Printf.sprintf "fig3_m%d_alpha%g" m alpha)
            ~header:[ "replication"; "groups_k"; "guarantee"; "measured_worst" ]
            (List.map
               (fun (r, g) ->
                 [
                   string_of_int r;
                   string_of_int (m / r);
                   Printf.sprintf "%.6f" g;
                   (match List.assoc_opt r measured with
                   | Some v -> Printf.sprintf "%.6f" v
                   | None -> "");
                 ])
               guarantees)))
    [ 1.1; 1.5; 2.0 ];
  report "wall_s" (Json.Float (Metrics.now_s () -. t0));
  report "runs" (Json.Int !runs);
  report "useful_work_frac" (Json.Float 1.0)

(* ---------------- main ---------------- *)

let () =
  let rec opts out spans_path = function
    | "--out" :: v :: r -> opts (Some v) spans_path r
    | "--spans" :: v :: r -> opts out (Some v) r
    | "--run-id" :: v :: r ->
        run_id := v;
        opts out spans_path r
    | "--" :: cmd -> (out, spans_path, cmd)
    | _ -> fail "usage: replay.exe --out FILE [--spans FILE] [--run-id ID] -- COMMAND..."
  in
  let out, spans_path, cmd = opts None None (List.tl (Array.to_list Sys.argv)) in
  let out = match out with Some p -> p | None -> fail "--out is required" in
  tracing := spans_path <> None;
  (match cmd with
  | "solve" :: args -> replay_solve (parse_solve args)
  | "run" :: "fig3" :: args -> replay_fig3 args
  | _ -> fail "no replay for command: %s" (String.concat " " cmd));
  Json.write_file ~path:out (Json.Obj (List.rev !results));
  Option.iter
    (fun path ->
      Usched_obs.Fs.with_atomic_oc ~path (fun oc ->
          List.iter (fun s -> Json.output_line oc (span_json s)) (List.rev !spans)))
    spans_path

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Workload = Usched_model.Workload
module Uncertainty = Usched_model.Uncertainty
module Core = Usched_core
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary
module Pool = Usched_parallel.Pool
module Metrics = Usched_obs.Metrics
module Fs = Usched_obs.Fs
module Json = Usched_report.Json

type config = {
  seed : int;
  reps : int;
  domains : int;
  exact_n : int;
  csv_dir : string option;
  metrics : Metrics.t;
  algo_specs : string list ref;
}

let default_config =
  {
    seed = 42;
    reps = 50;
    domains = Pool.recommended_domains ();
    exact_n = 16;
    csv_dir = None;
    metrics = Metrics.create ();
    algo_specs = ref [];
  }

let fresh_metrics config =
  { config with metrics = Metrics.create (); algo_specs = ref [] }

let record_spec config spec =
  let s = Core.Strategy.to_string spec in
  if not (List.mem s !(config.algo_specs)) then
    config.algo_specs := !(config.algo_specs) @ [ s ]

let strategy config ~m spec =
  record_spec config spec;
  Core.Strategy.build spec ~m

let maybe_csv config ~name ~header rows =
  match config.csv_dir with
  | None -> ()
  | Some dir ->
      Metrics.time (Metrics.timer config.metrics "runner.csv_write") (fun () ->
          Fs.mkdir_p dir;
          let path = Filename.concat dir (name ^ ".csv") in
          (* Atomic: a run killed mid-write must not leave a torn CSV. *)
          Fs.write_atomic ~path (Usched_report.Csv.to_string ~header rows);
          Metrics.incr (Metrics.counter config.metrics "runner.csv_files");
          Printf.printf "[csv] wrote %s\n" path)

let maybe_manifest config ~id ~title ~wall_time_s =
  match config.csv_dir with
  | None -> ()
  | Some dir ->
      Fs.mkdir_p dir;
      let path = Filename.concat dir (id ^ ".manifest.json") in
      let manifest =
        Json.Obj
          [
            ("type", Json.String "run_manifest");
            ("experiment", Json.String id);
            ("title", Json.String title);
            ("seed", Json.Int config.seed);
            ("reps", Json.Int config.reps);
            ("domains", Json.Int config.domains);
            ("exact_n", Json.Int config.exact_n);
            ("wall_time_s", Json.float wall_time_s);
            ("unix_time", Json.float (Metrics.now_s ()));
            ( "algo_specs",
              Json.List
                (List.map (fun s -> Json.String s) !(config.algo_specs)) );
            ("metrics", Metrics.to_json (Metrics.snapshot config.metrics));
          ]
      in
      (* Atomic: readers see the previous manifest or this one, nothing
         in between. *)
      Fs.write_atomic ~path (Json.to_string manifest ^ "\n");
      Printf.printf "[manifest] wrote %s\n" path

let quick config = { config with reps = Stdlib.min config.reps 5 }

let opt_estimate config ~m actuals =
  if Array.length actuals <= config.exact_n then begin
    let result = Core.Opt.solve ~node_limit:2_000_000 ~m actuals in
    if result.Core.Opt.optimal then (result.Core.Opt.value, true)
    else (Core.Lower_bounds.best ~m actuals, false)
  end
  else (Core.Lower_bounds.best ~m actuals, false)

let ratio config algo instance realization =
  let makespan = Core.Two_phase.makespan algo instance realization in
  let opt, _ =
    opt_estimate config ~m:(Instance.m instance) (Realization.actuals realization)
  in
  makespan /. opt

type sweep_result = {
  summary : Summary.t;
  worst : float;
  exact_opt : bool;
}

let paired config ~seed ~reps run fold =
  (* One stream per repetition, split off the master up front, so a
     repetition's draws do not depend on the parallel execution order. *)
  let master = Rng.create ~seed () in
  let streams = Array.init reps (fun _ -> Rng.split master) in
  Array.iter fold (Pool.parallel_map ~domains:config.domains run streams)

let random_sweep config ~algo ~spec ~realize ~n ~m ~alpha =
  (* The timer wraps the whole sweep from the main domain; workers are
     left uninstrumented (metrics registries are single-domain). *)
  Metrics.time (Metrics.timer config.metrics "phase.sweep") @@ fun () ->
  let alpha_v = Uncertainty.alpha alpha in
  let summary = Summary.create () and exact_opt = ref true in
  paired config ~seed:config.seed ~reps:config.reps
    (fun rng ->
      let instance = Workload.generate spec ~n ~m ~alpha:alpha_v rng in
      let realization = realize instance rng in
      let makespan = Core.Two_phase.makespan algo instance realization in
      let opt, exact =
        opt_estimate config ~m (Realization.actuals realization)
      in
      (makespan /. opt, exact))
    (fun (r, exact) ->
      Summary.add summary r;
      exact_opt := !exact_opt && exact);
  { summary; worst = Summary.max summary; exact_opt = !exact_opt }

let adversarial_ratio config algo instance =
  Metrics.time (Metrics.timer config.metrics "phase.adversary") @@ fun () ->
  let placement = algo.Core.Two_phase.phase1 instance in
  let run realization =
    algo.Core.Two_phase.phase2 instance placement realization
  in
  let opt actuals = fst (opt_estimate config ~m:(Instance.m instance) actuals) in
  let candidates =
    ref
      [
        Core.Adversary.theorem1 instance placement;
        Core.Adversary.greedy_flip ~run ~opt instance;
      ]
  in
  for machine = 0 to Stdlib.min 7 (Instance.m instance - 1) do
    candidates := Core.Adversary.inflate_machine machine instance placement :: !candidates
  done;
  let best =
    List.fold_left
      (fun acc realization ->
        Float.max acc (Core.Adversary.ratio ~run ~opt realization))
      neg_infinity !candidates
  in
  if Instance.n instance <= 12 then begin
    let _, exhaustive_ratio = Core.Adversary.exhaustive ~run ~opt instance in
    Float.max best exhaustive_ratio
  end
  else best

let print_section title =
  let rule = String.make 72 '=' in
  Printf.printf "\n%s\n== %s\n%s\n%!" rule title rule

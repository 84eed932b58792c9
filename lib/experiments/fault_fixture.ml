module Bitset = Usched_model.Bitset
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Engine = Usched_desim.Engine
module Metrics = Usched_obs.Metrics
module Core = Usched_core
module Summary = Usched_stats.Summary

let m = 6
let n = 36
let alpha = 1.5

let generate ?(spec = Workload.Uniform { lo = 1.0; hi = 10.0 }) ~n ~m rng =
  let instance =
    Workload.generate spec ~n ~m ~alpha:(Uncertainty.alpha alpha) rng
  in
  (instance, Realization.log_uniform_factor instance rng)

let ring ~k =
  Core.Placement.sets
    (Core.Placement.of_sets ~m
       (Array.init n (fun j ->
            Bitset.of_list m (List.init k (fun i -> (j + i) mod m)))))

type cell = {
  mutable runs : int;
  mutable stranded_runs : int; (* runs that lost at least one task *)
  stranded_tasks : Summary.t; (* stranded count per run *)
  completion : Summary.t; (* fraction of tasks completed per run *)
  degradation : Summary.t; (* faulty/healthy makespan, full runs only *)
  wasted : Summary.t; (* wasted work / total actual work *)
  rereplications : Summary.t; (* healer transfers completed per run *)
  resumes : Summary.t; (* checkpoint resumes per run *)
}

let cell () =
  {
    runs = 0;
    stranded_runs = 0;
    stranded_tasks = Summary.create ();
    completion = Summary.create ();
    degradation = Summary.create ();
    wasted = Summary.create ();
    rereplications = Summary.create ();
    resumes = Summary.create ();
  }

let runs_of c = c.runs
let stranded_runs_of c = c.stranded_runs

let record cell ~healthy ~total_work (outcome : Engine.outcome) =
  cell.runs <- cell.runs + 1;
  let stranded = List.length outcome.Engine.stranded in
  if stranded > 0 then cell.stranded_runs <- cell.stranded_runs + 1;
  Summary.add cell.stranded_tasks (float_of_int stranded);
  Summary.add cell.completion
    (float_of_int outcome.Engine.completed
    /. float_of_int (Array.length outcome.Engine.fates));
  Summary.add cell.wasted (outcome.Engine.wasted /. total_work);
  let counter name =
    float_of_int (Metrics.find_counter outcome.Engine.metrics name)
  in
  Summary.add cell.rereplications (counter "engine.rereplications");
  Summary.add cell.resumes (counter "engine.checkpoint_resumes");
  if stranded = 0 then
    Summary.add cell.degradation (outcome.Engine.makespan /. healthy)

let of_runs title count name f =
  Sheet.column title
    (fun r ->
      let c = f r in
      Printf.sprintf "%d/%d" (count c) c.runs)
    ~csv:
      [
        (name, fun r -> string_of_int (count (f r)));
        ("runs", fun r -> string_of_int (f r).runs);
      ]

let full_runs f =
  of_runs "full runs" (fun c -> c.runs - c.stranded_runs) "full_runs" f

let stranded_runs f =
  of_runs "stranded runs" (fun c -> c.stranded_runs) "stranded_runs" f

let mean_lost f =
  Sheet.num ~csv:"mean_stranded" "mean lost" (fun r ->
      Summary.mean (f r).stranded_tasks)

let tasks_done f =
  Sheet.pct ~csv:"task_completion" "tasks done" (fun r ->
      Summary.mean (f r).completion)

let degr stat f r =
  let d = (f r).degradation in
  if Summary.count d = 0 then None else Some (stat d)

let mean_degr f =
  Sheet.num_opt ~csv:"mean_degradation" "mean degr" (degr Summary.mean f)

let worst_degr ?csv f = Sheet.num_opt ?csv "worst degr" (degr Summary.max f)

let wasted f =
  Sheet.pct ~csv:"wasted_fraction" "wasted" (fun r -> Summary.mean (f r).wasted)

let transfers f =
  Sheet.num ~csv:"rereplications" "transfers" (fun r ->
      Summary.mean (f r).rereplications)

let resumes f =
  Sheet.num ~csv:"checkpoint_resumes" "resumes" (fun r ->
      Summary.mean (f r).resumes)

(* policy-sweep: what the dispatch rule is worth, placement held fixed.
   The paper's engine hard-wires list-priority dispatch (the
   highest-priority eligible task); the layered desim core makes that
   rule a parameter. Part A replays paired healthy workloads under every
   built-in policy — once on a spread-prone uniform workload and once on
   an identical workload, where random tie-breaking actually has ties to
   break. Part B replays paired crash traces with online re-replication
   to check the policies' fault behavior: under full replication every
   work-conserving policy completes the same task set, so the question
   is degradation, not completion. *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Workload = Usched_model.Workload
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Dispatch = Usched_desim.Dispatch
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Core = Usched_core
module Summary = Usched_stats.Summary
module F = Fault_fixture

let m = F.m
let n = F.n
let policies = List.map (fun p -> (Dispatch.name p, p)) Dispatch.builtin

(* ------------- part A: healthy makespan by dispatch rule ------------- *)

let healthy_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "A. Healthy replays: n=%d, m=%d, ring k=2 placement, LPT order. Every\n\
     policy replays the same paired workload per rep; ratios are against\n\
     the default list-priority rule on that same workload.\n\n"
    n m;
  let workloads =
    [
      ("uniform:1:10", Workload.Uniform { lo = 1.0; hi = 10.0 });
      ("identical:5", Workload.Identical 5.0);
    ]
  in
  let rows =
    List.concat_map
      (fun (wname, spec) ->
        let cells =
          List.map
            (fun (name, _) -> (wname, name, Summary.create (), Summary.create ()))
            policies
        in
        Runner.paired config ~seed:(config.Runner.seed + 7177) ~reps
          (fun rng ->
            let instance, realization = F.generate ~spec ~n ~m rng in
            let order = Instance.lpt_order instance in
            let placement = F.ring ~k:2 in
            let lb =
              Core.Lower_bounds.best ~m (Realization.actuals realization)
            in
            let makespan dispatch =
              Schedule.makespan
                (Engine.run ~dispatch instance realization ~placement ~order)
            in
            let base = makespan Dispatch.default in
            List.map
              (fun (_, dispatch) ->
                let mk = makespan dispatch in
                (mk /. base, mk /. lb))
              policies)
          (List.iter2
             (fun (_, _, ratio, vs_lb) (r, l) ->
               Summary.add ratio r;
               Summary.add vs_lb l)
             cells);
        cells)
      workloads
  in
  let ratio stat (_, _, r, _) = stat r in
  Sheet.emit config ~csv:"policy_sweep_healthy"
    [
      Sheet.text ~csv:"workload" "workload" (fun (w, _, _, _) -> w);
      Sheet.text ~csv:"policy" "policy" (fun (_, p, _, _) -> p);
      Sheet.num ~csv:"mean_ratio" "mean ratio" (ratio Summary.mean);
      Sheet.num ~csv:"worst_ratio" "worst ratio" (ratio Summary.max);
      Sheet.num ~csv:"best_ratio" "best ratio" (ratio Summary.min);
      Sheet.num ~csv:"mean_vs_lb" "vs LB" (fun (_, _, _, l) -> Summary.mean l);
    ]
    rows;
  Printf.printf
    "\nOn the uniform workload estimates are almost surely distinct, so\n\
     random tie-breaking coincides with list-priority; on the identical\n\
     workload every eligible task ties and the rules genuinely diverge.\n"

(* ------------- part B: dispatch rules under crashes ------------------ *)

let faulty_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  let crash_rate = 0.4 in
  Printf.printf
    "\nB. Crash replays: same construction, crash rate %.2f (times uniform\n\
     in the healthy makespan), online re-replication back up to 2 live\n\
     replicas. Paired traces across policies.\n\n"
    crash_rate;
  let recovery = Recovery.make ~rereplication_target:(Recovery.Fixed 2) () in
  let cells = List.map (fun (name, _) -> (name, F.cell ())) policies in
  Runner.paired config ~seed:(config.Runner.seed + 7178) ~reps
    (fun rng ->
      let instance, realization = F.generate ~n ~m rng in
      let order = Instance.lpt_order instance in
      let placement = F.ring ~k:2 in
      let healthy =
        Schedule.makespan (Engine.run instance realization ~placement ~order)
      in
      let faults = Trace.random_crashes rng ~m ~p:crash_rate ~horizon:healthy in
      ( healthy,
        Realization.total realization,
        List.map
          (fun (_, dispatch) ->
            Engine.run_faulty ~dispatch ~recovery instance realization ~faults
              ~placement ~order)
          policies ))
    (fun (healthy, total_work, outcomes) ->
      List.iter2
        (fun (_, cell) outcome -> F.record cell ~healthy ~total_work outcome)
        cells outcomes);
  let cell_of = snd in
  Sheet.emit config ~csv:"policy_sweep_faulty"
    [
      Sheet.text ~csv:"policy" "policy" fst;
      F.stranded_runs cell_of;
      F.tasks_done cell_of;
      F.mean_degr cell_of;
      F.wasted cell_of;
    ]
    cells;
  Printf.printf
    "\nStranding is dominated by the data (which replicas survive the\n\
     trace), not the dispatch rule: under full replication every\n\
     work-conserving policy completes exactly the same task set (the\n\
     reachability property pinned in test_dispatch). At k=2 the rule\n\
     can still shift what is running when a disk dies; mostly it moves\n\
     degradation and wasted work.\n"

let run config =
  Runner.print_section
    "Policy sweep -- pluggable dispatch rules on fixed placements";
  healthy_sweep config;
  faulty_sweep config

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Trace = Usched_faults.Trace
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Summary = Usched_stats.Summary
module F = Fault_fixture

let m = F.m
let n = F.n
let rates = [ 0.1; 0.25; 0.5 ]

(* One repetition's paired draws: workload, realization, and a crash
   trace at [rate] with crash times uniform in the k=1 ring's healthy
   makespan. *)
let crash_draws ~rate rng =
  let instance, realization = F.generate ~n ~m rng in
  let order = Instance.lpt_order instance in
  let horizon =
    Schedule.makespan
      (Engine.run instance realization ~placement:(F.ring ~k:1) ~order)
  in
  let faults = Trace.random_crashes rng ~m ~p:rate ~horizon in
  (instance, realization, order, faults)

(* Rows of parts A and B: (crash rate, replicas k or strategy, cell). *)
let crash_rate =
  Sheet.column "crash rate"
    (fun (rate, _, _) -> Printf.sprintf "%.2f" rate)
    ~csv:[ ("rate", fun (rate, _, _) -> Printf.sprintf "%.4f" rate) ]

let cell_cols =
  let f (_, _, c) = c in
  [ F.tasks_done f; F.full_runs f; F.mean_degr f; F.worst_degr f; F.wasted f ]

(* ----------------- part A: replication degree sweep ----------------- *)

let degree_sweep config =
  let ks = [ 1; 2; 3; 6 ] in
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "A. Replication degree: n=%d tasks, m=%d machines, alpha=%g, nested\n\
     ring placements, LPT order, crash times uniform in the k=1 healthy\n\
     makespan. One crash trace per repetition, shared across every k.\n\n"
    n m F.alpha;
  let rows =
    List.concat
      (List.mapi
         (fun rate_idx rate ->
           let cells =
             List.map (fun k -> (rate, string_of_int k, F.cell ())) ks
           in
           Runner.paired config
             ~seed:(config.Runner.seed + (7919 * rate_idx))
             ~reps
             (fun rng ->
               let instance, realization, order, faults =
                 crash_draws ~rate rng
               in
               let total_work = Realization.total realization in
               List.map
                 (fun k ->
                   let placement = F.ring ~k in
                   let healthy =
                     Schedule.makespan
                       (Engine.run instance realization ~placement ~order)
                   in
                   ( healthy,
                     total_work,
                     Engine.run_faulty instance realization ~faults
                       ~placement ~order ))
                 ks)
             (List.iter2
                (fun (_, _, cell) (healthy, total_work, outcome) ->
                  F.record cell ~healthy ~total_work outcome)
                cells);
           cells)
         rates)
  in
  Sheet.emit config ~csv:"fault_sweep_degree"
    (crash_rate
    :: Sheet.text ~align:Table.Right ~csv:"k" "replicas k" (fun (_, k, _) -> k)
    :: cell_cols)
    rows;
  Printf.printf
    "\nCompletion climbs monotonically with k (nested rings: losing a task\n\
     at k+1 replicas implies losing it at k); degradation and wasted work\n\
     rise with the crash rate — killed work is re-run from scratch on a\n\
     surviving replica holder.\n"

(* ----------------- part B: the paper's strategies ------------------- *)

let strategy_specs =
  Strategy.
    [
      ("LPT-No Choice (k=1)", no_replication Lpt);
      ("LS-Group k=3 (2 repl)", group ~order:Ls ~k:3);
      ("LS-Group k=2 (3 repl)", group ~order:Ls ~k:2);
      ("Budgeted k=2", budgeted ~k:2);
      ("Budgeted k=3", budgeted ~k:3);
      ("LPT-No Restriction (k=m)", full_replication Lpt);
    ]

let strategy_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "\nB. The paper's strategies under mid-run crashes (same workload and\n\
     crash trace for every strategy within a repetition; the faulty run\n\
     re-dispatches in LPT order).\n\n";
  let rows =
    List.concat_map
      (fun (name, spec) ->
        let algo = Runner.strategy config ~m spec in
        List.mapi
          (fun rate_idx rate ->
            let cell = F.cell () in
            (* Identical streams per (rate, rep) across strategies: the
               instance, realization, and trace are all paired. *)
            Runner.paired config
              ~seed:(config.Runner.seed + (7919 * rate_idx))
              ~reps
              (fun rng ->
                let instance, realization, order, faults =
                  crash_draws ~rate rng
                in
                let placement = algo.Core.Two_phase.phase1 instance in
                let healthy =
                  Schedule.makespan
                    (algo.Core.Two_phase.phase2 instance placement realization)
                in
                ( healthy,
                  Realization.total realization,
                  Engine.run_faulty instance realization ~faults
                    ~placement:(Core.Placement.sets placement)
                    ~order ))
              (fun (healthy, total_work, outcome) ->
                F.record cell ~healthy ~total_work outcome);
            (rate, name, cell))
          rates)
      strategy_specs
  in
  Sheet.emit config ~csv:"fault_sweep_strategies"
    (Sheet.text ~csv:"strategy" "strategy" (fun (_, name, _) -> name)
    :: crash_rate :: cell_cols)
    rows

(* ----------------- part C: speculation vs stragglers ---------------- *)

let speculation_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  let beta = 1.5 in
  Printf.printf
    "\nC. Speculative re-execution vs stragglers: 30%% of machines slow to\n\
     a 0.2-0.5 speed factor mid-run; an idle replica holder may start a\n\
     backup once a copy runs past %.1fx its estimate (first copy to\n\
     finish wins). Replication is what makes speculation possible.\n\n"
    beta;
  let rows =
    List.concat_map
      (fun (pname, k) ->
        List.map
          (fun speculation ->
            let slowdown = Summary.create () and waste = Summary.create () in
            Runner.paired config ~seed:(config.Runner.seed + 31337) ~reps
              (fun rng ->
                let instance, realization = F.generate ~n ~m rng in
                let order = Instance.lpt_order instance in
                let placement = F.ring ~k in
                let healthy =
                  Schedule.makespan
                    (Engine.run instance realization ~placement ~order)
                in
                let faults =
                  Trace.random_slowdowns rng ~m ~p:0.3 ~horizon:healthy
                    ~factor:(0.2, 0.5)
                in
                let outcome =
                  Engine.run_faulty ?speculation instance realization ~faults
                    ~placement ~order
                in
                ( outcome.Engine.makespan /. healthy,
                  outcome.Engine.wasted /. Realization.total realization ))
              (fun (s, w) ->
                Summary.add slowdown s;
                Summary.add waste w);
            (pname, speculation, slowdown, waste))
          [ None; Some beta ])
      [ ("ring k=2", 2); ("ring k=3", 3); ("full (k=6)", 6) ]
  in
  Sheet.emit config
    [
      Sheet.text "placement" (fun (p, _, _, _) -> p);
      Sheet.text "speculation" (function
        | _, None, _, _ -> "off"
        | _, Some b, _, _ -> Printf.sprintf "beta=%.1f" b);
      Sheet.num "mean slowdown" (fun (_, _, s, _) -> Summary.mean s);
      Sheet.num "worst slowdown" (fun (_, _, s, _) -> Summary.max s);
      Sheet.pct "wasted" (fun (_, _, _, w) -> Summary.mean w);
    ]
    rows;
  Printf.printf
    "\nSpeculation trades duplicate work for response time, exactly the\n\
     replication-for-latency tradeoff of the queueing literature (Wang\n\
     et al.; Sun et al.): the slowdown drop is largest where replicas\n\
     are plentiful, and the wasted-work bill is the price of the race.\n"

let run config =
  Runner.print_section
    "Fault sweep -- mid-run crashes, re-dispatch, and speculation";
  degree_sweep config;
  strategy_sweep config;
  speculation_sweep config

module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng

let run config =
  Runner.print_section "Portfolio selection over scenario sets (extension)";
  let m = 6 and n = 24 and alpha = 2.0 in
  Printf.printf
    "m=%d, n=%d, alpha=%g. For each workload family: sample %d scenario\n\
     realizations, evaluate the whole strategy portfolio against them,\n\
     and pick winners by worst-case and by mean makespan.\n\n"
    m n alpha
    (Stdlib.max 10 config.Runner.reps);
  let specs = Strategy.default_portfolio ~m in
  List.iter (Runner.record_spec config) specs;
  let portfolio = List.map (fun spec -> Strategy.build spec ~m) specs in
  Printf.printf "Portfolio: %s\n\n"
    (String.concat ", "
       (List.map (fun a -> a.Core.Two_phase.name) portfolio));
  let table =
    Table.create
      ~columns:
        [
          ("workload", Table.Left);
          ("worst-case winner", Table.Left);
          ("its worst", Table.Right);
          ("mean winner", Table.Left);
          ("its mean", Table.Right);
        ]
  in
  List.iter
    (fun (name, spec) ->
      let rng = Rng.create ~seed:config.Runner.seed () in
      let instance =
        Workload.generate spec ~n ~m ~alpha:(Uncertainty.alpha alpha) rng
      in
      let scenarios =
        Core.Scenarios.sample
          ~count:(Stdlib.max 10 config.Runner.reps)
          ~realize:(fun instance rng ->
            Realization.log_uniform_factor instance rng)
          ~rng instance
      in
      let by_worst =
        Core.Scenarios.select Core.Scenarios.Minimize_worst ~portfolio instance
          scenarios
      in
      let by_mean =
        Core.Scenarios.select Core.Scenarios.Minimize_mean ~portfolio instance
          scenarios
      in
      Table.add_row table
        [
          name;
          by_worst.Core.Scenarios.algorithm.Core.Two_phase.name;
          Table.cell_float ~decimals:2 by_worst.Core.Scenarios.worst;
          by_mean.Core.Scenarios.algorithm.Core.Two_phase.name;
          Table.cell_float ~decimals:2 by_mean.Core.Scenarios.mean;
        ])
    (Workload.standard_suite ~m);
  print_string (Table.render table);
  Printf.printf
    "\n(The winner varies by family: smooth workloads tolerate pinning,\n\
     heavy-tailed and adversarial ones reward replication — choosing the\n\
     paper's knob per workload is itself an optimization, automated\n\
     here.)\n"

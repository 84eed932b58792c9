(* Integration tests: the experiment harness end to end. *)

module Experiments = Usched_experiments
module Runner = Usched_experiments.Runner
module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Workload = Usched_model.Workload
module Uncertainty = Usched_model.Uncertainty
module Summary = Usched_stats.Summary
module Rng = Usched_prng.Rng

let checkb = Alcotest.(check bool)
let close = Alcotest.(check (float 1e-9))

let tiny_config =
  { Runner.default_config with reps = 4; domains = 2; exact_n = 10 }

let registry_ids_unique () =
  let ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all in
  Alcotest.(check int) "no duplicates"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let registry_find () =
  checkb "fig1 exists" true (Experiments.Registry.find "fig1" <> None);
  checkb "nonsense missing" true (Experiments.Registry.find "zzz" = None)

let registry_covers_all_paper_artifacts () =
  List.iter
    (fun id ->
      checkb (id ^ " registered") true (Experiments.Registry.find id <> None))
    [ "fig1"; "fig2"; "tab1"; "fig3"; "fig45"; "tab2"; "fig6" ]

let registry_covers_extensions () =
  List.iter
    (fun id ->
      checkb (id ^ " registered") true (Experiments.Registry.find id <> None))
    [
      "ablation-phase2";
      "ablation-adversary";
      "ablation-selective";
      "ablation-budget";
      "ablation-errors";
      "alpha-sweep";
      "fault-tolerance";
      "hetero";
      "lb-search";
      "portfolio";
    ]

let opt_estimate_exact_for_small () =
  let _, exact = Runner.opt_estimate tiny_config ~m:2 [| 1.0; 2.0; 3.0 |] in
  checkb "small is exact" true exact;
  let _, exact =
    Runner.opt_estimate tiny_config ~m:2 (Array.make 50 1.0)
  in
  checkb "large falls back to bounds" false exact

let opt_estimate_sound () =
  let value, exact = Runner.opt_estimate tiny_config ~m:2 [| 3.0; 3.0; 2.0; 2.0; 2.0 |] in
  checkb "exact" true exact;
  close "optimum" 6.0 value

let ratio_at_least_one () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.5)
      [| 4.0; 3.0; 2.0; 1.0 |]
  in
  let realization = Realization.exact instance in
  let r =
    Runner.ratio tiny_config Core.Full_replication.lpt_no_restriction instance
      realization
  in
  checkb "ratio >= 1" true (r >= 1.0 -. 1e-9)

let random_sweep_reproducible () =
  let sweep () =
    Runner.random_sweep tiny_config ~algo:Core.No_replication.lpt_no_choice
      ~spec:(Workload.Uniform { lo = 1.0; hi = 10.0 })
      ~realize:(fun instance rng -> Realization.uniform_factor instance rng)
      ~n:8 ~m:3 ~alpha:1.5
  in
  let a = sweep () and b = sweep () in
  Alcotest.(check int) "counts" (Summary.count a.Runner.summary)
    (Summary.count b.Runner.summary);
  close "same mean (deterministic streams)" (Summary.mean a.Runner.summary)
    (Summary.mean b.Runner.summary);
  close "same worst" a.Runner.worst b.Runner.worst

let random_sweep_respects_reps () =
  let sweep =
    Runner.random_sweep tiny_config ~algo:Core.Full_replication.ls_no_restriction
      ~spec:(Workload.Identical 1.0)
      ~realize:(fun instance rng -> Realization.extremes ~p_high:0.5 instance rng)
      ~n:6 ~m:2 ~alpha:2.0
  in
  Alcotest.(check int) "one ratio per rep" tiny_config.Runner.reps
    (Summary.count sweep.Runner.summary)

let sweep_ratios_bounded_by_guarantee () =
  let m = 3 and alpha = 2.0 in
  let sweep =
    Runner.random_sweep
      { tiny_config with reps = 20 }
      ~algo:Core.Full_replication.ls_no_restriction
      ~spec:(Workload.Uniform { lo = 1.0; hi = 10.0 })
      ~realize:(fun instance rng -> Realization.uniform_factor instance rng)
      ~n:9 ~m ~alpha
  in
  checkb "worst within Graham bound" true
    (sweep.Runner.worst <= Core.Guarantees.list_scheduling ~m +. 1e-9)

let adversarial_ratio_sound () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 2.0)
      (Array.make 6 1.0)
  in
  let worst =
    Runner.adversarial_ratio tiny_config Core.No_replication.lpt_no_choice
      instance
  in
  checkb "above 1" true (worst >= 1.0 -. 1e-9);
  checkb "below Theorem 2" true
    (worst <= Core.Guarantees.lpt_no_choice ~m:2 ~alpha:2.0 +. 1e-9)

let quick_config_caps_reps () =
  let q = Runner.quick { Runner.default_config with reps = 100 } in
  Alcotest.(check int) "capped at 5" 5 q.Runner.reps

let csv_export_writes_files () =
  let dir = Filename.temp_file "usched" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let config = { tiny_config with Runner.csv_dir = Some dir } in
      Runner.maybe_csv config ~name:"probe" ~header:[ "a"; "b" ]
        [ [ "1"; "2" ] ];
      checkb "file created" true
        (Sys.file_exists (Filename.concat dir "probe.csv")));
  (* Without csv_dir nothing is written anywhere. *)
  Runner.maybe_csv tiny_config ~name:"probe" ~header:[ "a" ] [ [ "1" ] ];
  checkb "no-op without dir" true true

(* Cheap experiments must run end-to-end without raising. The heavyweight
   ones (tab1, fig3) are exercised by the bench harness. *)
let cheap_experiments_run () =
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | None -> Alcotest.failf "experiment %s missing" id
      | Some e -> e.Experiments.Registry.run tiny_config)
    [ "fig2"; "fig45"; "fig6"; "fault-tolerance"; "hetero" ]

let fig1_theoretical_ratio_monotone () =
  let m = 6 and alpha = 2.0 in
  let r lambda = Experiments.Fig1.theoretical_ratio_at_lambda ~m ~alpha ~lambda in
  checkb "grows with lambda" true (r 1 < r 2 && r 2 < r 10 && r 10 < r 100);
  checkb "bounded by the limit" true
    (r 1000 < Core.Guarantees.no_replication_lower_bound ~m ~alpha)

let fig3_divisors () =
  Alcotest.(check (list int)) "divisors of 12"
    [ 1; 2; 3; 4; 6; 12 ]
    (Experiments.Fig3.divisors 12)

let fig3_guarantee_series_shape () =
  let series = Experiments.Fig3.guarantee_series ~m:210 ~alpha:2.0 in
  Alcotest.(check int) "one point per divisor" 16 (List.length series);
  let replications = List.map fst series in
  checkb "starts at 1 replica" true (List.hd replications = 1);
  checkb "ends at 210 replicas" true
    (List.nth replications (List.length replications - 1) = 210);
  (* Ratio improves (decreases) as replication grows. *)
  let ratios = List.map snd series in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && decreasing rest
    | _ -> true
  in
  checkb "monotone improvement" true (decreasing ratios)

let fig6_curves_shapes () =
  let deltas = [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let sabo = Experiments.Fig6.sabo_curve ~alpha:(sqrt 2.0) ~rho:1.0 ~deltas in
  (* Along growing delta: memory guarantee falls, makespan guarantee
     rises. *)
  let rec shape = function
    | (mem_a, mk_a) :: ((mem_b, mk_b) :: _ as rest) ->
        mem_a >= mem_b -. 1e-9 && mk_a <= mk_b +. 1e-9 && shape rest
    | _ -> true
  in
  checkb "SABO tradeoff curve" true (shape sabo);
  let abo = Experiments.Fig6.abo_curve ~m:5 ~alpha:(sqrt 2.0) ~rho:1.0 ~deltas in
  checkb "ABO tradeoff curve" true (shape abo)

let example_instance_is_mixed () =
  let instance = Experiments.Fig45.example_instance () in
  checkb "has time-heavy tasks" true
    (Array.exists (fun t -> Usched_model.Task.est t > 4.0) (Instance.tasks instance));
  checkb "has memory-heavy tasks" true
    (Array.exists (fun t -> Usched_model.Task.size t > 4.0) (Instance.tasks instance))

(* The figures [usched solve] prints, for two instances whose report
   would read [ratio <= -nan] / [utilization: -nan%]: no tasks, and
   estimates whose sum overflows. [check_report] must name the reason;
   the CLI turns it into exit code 2 (test/cli). *)
let report_of text =
  let instance = Usched_model.Io.instance_of_string text in
  let m = Instance.m instance in
  let algo = Core.Strategy.build Core.Strategy.(group ~order:Ls ~k:2) ~m in
  let realization =
    Realization.log_uniform_factor instance (Rng.create ~seed:1 ())
  in
  let placement, schedule = Core.Two_phase.run_full algo instance realization in
  Core.Two_phase.check_report ~n:(Instance.n instance)
    ~cmax:(Usched_desim.Schedule.makespan schedule)
    ~lower_bound:(Core.Lower_bounds.best ~m (Realization.actuals realization))
    ~mem_max:(Core.Placement.memory_max placement ~sizes:(Instance.sizes instance))

let report_rejects_empty_instance () =
  match report_of "# usched-instance m=2 alpha=1.5\nid,est,size\n" with
  | Ok () -> Alcotest.fail "an instance with no tasks was reported"
  | Error reason -> Alcotest.(check string) "reason" "instance has no tasks" reason

let report_rejects_overflow () =
  match
    report_of
      "# usched-instance m=2 alpha=1.5\nid,est,size\n0,1e308,1\n1,1e308,1\n"
  with
  | Ok () -> Alcotest.fail "an overflowing lower bound was reported"
  | Error reason ->
      checkb "names the lower bound" true
        (String.length reason >= 11 && String.sub reason 0 11 = "lower bound")

let report_accepts_finite () =
  checkb "finite figures pass" true
    (report_of "# usched-instance m=2 alpha=1.5\nid,est,size\n0,2,1\n1,3,1\n"
    = Ok ());
  checkb "infinite Mem_max named" true
    (match
       Core.Two_phase.check_report ~n:1 ~cmax:1.0 ~lower_bound:1.0
         ~mem_max:infinity
     with
    | Error r -> String.sub r 0 7 = "Mem_max"
    | Ok () -> false)

let () =
  Alcotest.run "integration"
    [
      ( "solve report",
        [
          Alcotest.test_case "no tasks" `Quick report_rejects_empty_instance;
          Alcotest.test_case "overflowing estimates" `Quick report_rejects_overflow;
          Alcotest.test_case "finite figures" `Quick report_accepts_finite;
        ] );
      ( "registry",
        [
          Alcotest.test_case "unique ids" `Quick registry_ids_unique;
          Alcotest.test_case "find" `Quick registry_find;
          Alcotest.test_case "covers paper artifacts" `Quick
            registry_covers_all_paper_artifacts;
          Alcotest.test_case "covers extensions" `Quick registry_covers_extensions;
        ] );
      ( "runner",
        [
          Alcotest.test_case "opt estimate switch" `Quick opt_estimate_exact_for_small;
          Alcotest.test_case "opt estimate value" `Quick opt_estimate_sound;
          Alcotest.test_case "ratio >= 1" `Quick ratio_at_least_one;
          Alcotest.test_case "sweeps reproducible" `Quick random_sweep_reproducible;
          Alcotest.test_case "sweep repetitions" `Quick random_sweep_respects_reps;
          Alcotest.test_case "sweep within guarantee" `Quick
            sweep_ratios_bounded_by_guarantee;
          Alcotest.test_case "adversarial ratio" `Quick adversarial_ratio_sound;
          Alcotest.test_case "quick config" `Quick quick_config_caps_reps;
          Alcotest.test_case "csv export" `Quick csv_export_writes_files;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "cheap experiments run" `Slow cheap_experiments_run;
          Alcotest.test_case "fig1 ratio curve" `Quick fig1_theoretical_ratio_monotone;
          Alcotest.test_case "fig3 divisors" `Quick fig3_divisors;
          Alcotest.test_case "fig3 guarantee series" `Quick fig3_guarantee_series_shape;
          Alcotest.test_case "fig6 curve shapes" `Quick fig6_curves_shapes;
          Alcotest.test_case "fig45 instance" `Quick example_instance_is_mixed;
        ] );
    ]

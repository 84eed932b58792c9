module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Speed_band = Usched_model.Speed_band
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Trace = Usched_faults.Trace
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary
module Metrics = Usched_obs.Metrics

let m = 8
let n = 32
let mc_draws_per_rep = 12
let band = Speed_band.uniform ~m ~lo:0.5 ~hi:2.0

(* Estimates are exact (alpha = 1): the only uncertainty in this
   experiment is which in-band speeds the adversary (or the Monte-Carlo
   sampler) reveals, so ratio differences are placement hedges, not
   estimation luck. *)
let alpha = 1.0

let strategy_specs =
  Strategy.
    [
      ("no replication (LPT)", no_replication Lpt);
      ("budgeted k=2", budgeted ~k:2);
      ("speed-robust k=2", speed_robust ~k:2);
      ("full replication", full_replication Lpt);
    ]

type row = {
  cname : string;
  name : string;
  spec : Strategy.t;
  adv : Summary.t;
  mc : Summary.t;
  reveal : Summary.t;
}

let run config =
  Runner.print_section
    "Speed-robust placement -- sand/bricks/rocks under banded speeds";
  (* The adversary enumerates all 2^m speed corners per placement, so a
     handful of repetitions already costs ~the full sweep of other
     experiments; cap the repetitions rather than the search. *)
  let reps = Stdlib.max 4 (Stdlib.min 12 config.Runner.reps) in
  Printf.printf
    "m=%d machines, every speed in [%g, %g] (committed placement, speeds\n\
     revealed after). n=%d tasks, alpha=%g (exact estimates). Per class and\n\
     repetition every strategy faces the same workload, the same %d paired\n\
     Monte-Carlo revelations, and the same exhaustive corner adversary; the\n\
     sampled draws join the adversary's candidate set, so 'adv' dominates\n\
     'MC' by construction. Ratios are makespan over the uniform-machines\n\
     lower bound at the revealed speeds. 'reveal@t' replays the adversarial\n\
     revelation mid-run through the fault layer: machines start fast and\n\
     are slowed by Slowdown events while work is in flight.\n\n"
    m
    (Speed_band.lo band 0)
    (Speed_band.hi band 0)
    n alpha mc_draws_per_rep;
  let hedge_wins = ref 0 in
  let rows =
    List.concat
      (List.mapi
         (fun cidx (cname, workload) ->
           let rows =
             List.map
               (fun (name, spec) ->
                 ( Runner.strategy config ~m spec,
                   { cname; name; spec; adv = Summary.create ();
                     mc = Summary.create (); reveal = Summary.create () } ))
               strategy_specs
           in
           Runner.paired config ~seed:(config.Runner.seed + (7127 * cidx)) ~reps
             (fun rng ->
               let instance =
                 Workload.generate workload ~n ~m
                   ~alpha:(Uncertainty.alpha alpha) rng
               in
               let instance = Instance.with_speed_band instance (Some band) in
               let realization = Realization.exact instance in
               let actuals = Realization.actuals realization in
               let lb_at speeds = Core.Uniform.lower_bound ~speeds actuals in
               let draws =
                 Array.init mc_draws_per_rep (fun _ ->
                     Speed_band.sample band (Rng.split rng))
               in
               List.map
                 (fun (algo, _) ->
                   let placement = algo.Core.Two_phase.phase1 instance in
                   let sets = Core.Placement.sets placement in
                   let order = Instance.lpt_order instance in
                   let makespan speeds =
                     Schedule.makespan
                       (Engine.run ~speeds instance realization ~placement:sets
                          ~order)
                   in
                   let run_ratio speeds = makespan speeds /. lb_at speeds in
                   let adv_speeds, adv_ratio =
                     Core.Speed_adversary.worst_case ~run:run_ratio
                       ~candidates:(Array.to_list draws) instance placement band
                   in
                   (* Mid-run revelation: start every machine at its
                      optimistic speed, then at [at] the fault layer slows
                      each to the adversary's pick (factor = target /
                      current). *)
                   let his = Speed_band.his band in
                   let at = 0.5 *. lb_at his in
                   let factors = Array.mapi (fun i s -> s /. his.(i)) adv_speeds in
                   let outcome =
                     Engine.run_faulty ~speeds:his instance realization
                       ~faults:(Trace.revelation ~m ~at factors)
                       ~placement:sets ~order
                   in
                   ( adv_ratio,
                     Array.map run_ratio draws,
                     outcome.Engine.makespan /. lb_at adv_speeds ))
                 rows)
             (List.iter2
                (fun (_, row) (adv, mc, reveal) ->
                  Summary.add row.adv adv;
                  Array.iter (Summary.add row.mc) mc;
                  Summary.add row.reveal reveal)
                rows);
           let rows = List.map snd rows in
           let mean_of row = Summary.mean row.adv in
           let no_rep = mean_of (List.hd rows) in
           let best_replicated =
             List.fold_left
               (fun acc r -> Float.min acc (mean_of r))
               infinity (List.tl rows)
           in
           if best_replicated < no_rep then incr hedge_wins;
           Metrics.set
             (Metrics.gauge config.Runner.metrics
                (Printf.sprintf "speed_robust.%s.no_replication" cname))
             no_rep;
           Metrics.set
             (Metrics.gauge config.Runner.metrics
                (Printf.sprintf "speed_robust.%s.best_replicated" cname))
             best_replicated;
           rows)
         (Workload.speed_robust_suite ~m))
  in
  Metrics.set
    (Metrics.gauge config.Runner.metrics "speed_robust.hedge_wins")
    (float_of_int !hedge_wins);
  Sheet.emit config ~csv:"speed_robust"
    [
      Sheet.text ~csv:"class" "class" (fun r -> r.cname);
      Sheet.column ~align:Table.Left "strategy" (fun r -> r.name)
        ~csv:[ ("strategy", fun r -> Strategy.to_string r.spec) ];
      Sheet.num ~csv:"adv_ratio_mean" "adv ratio" (fun r -> Summary.mean r.adv);
      Sheet.num ~csv:"adv_ratio_worst" "adv worst" (fun r -> Summary.max r.adv);
      Sheet.num ~csv:"mc_ratio_mean" "MC mean" (fun r -> Summary.mean r.mc);
      Sheet.num ~csv:"reveal_ratio_mean" "reveal@t" (fun r ->
          Summary.mean r.reveal);
    ]
    rows;
  Printf.printf
    "\nPinned placement commits each task to one machine before speeds are\n\
     known, so the adversary slows exactly the loaded machines and the\n\
     ratio blows up — worst on sand, where a speed-aware schedule would be\n\
     perfectly divisible. Any replication lets phase 2 route work toward\n\
     the machines revealed fast; the speed-robust family gets most of full\n\
     replication's hedge at a quarter of its memory by keeping one replica\n\
     per speed class (%d/3 classes where some replication beats none).\n"
    !hedge_wins

module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Failure = Usched_model.Failure
module Schedule = Usched_desim.Schedule
module Trace = Usched_faults.Trace
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary
module Bootstrap = Usched_stats.Bootstrap
module Metrics = Usched_obs.Metrics

let m = 8
let n = 40
let crash_draws_per_rep = 40

type survival = { point : float; lo : float; hi : float; trials : int }

(* A crash draw strands task [j] iff every machine in its replica set
   crashed; an empty set counts as stranded (no data survives anywhere),
   matching [Failure.prob_all_lost] on the empty set. *)
let survives sets crashed =
  not (Array.exists (fun s -> Bitset.subset s crashed) sets)

let crashed_set ~m faults =
  let set = Bitset.create m in
  List.iter (fun i -> Bitset.add set i) (Trace.crashed faults);
  set

let monte_carlo_survival ?(trials = 1000) ?(domains = 1) ~seed ~profile
    placement =
  if trials < 1 then invalid_arg "monte_carlo_survival: trials must be >= 1";
  let sets = Core.Placement.sets placement in
  let mm = Failure.m profile in
  let rng = Rng.create ~seed () in
  (* Trial generators are split off sequentially before the fan-out, so
     trial [t] sees the same stream — and the bootstrap below continues
     from the same master state — at any domain count: N-domain and
     1-domain runs are bit-identical. *)
  let trial_rngs = Array.init trials (fun _ -> Rng.split rng) in
  let data =
    Usched_parallel.Pool.parallel_init ~domains trials (fun t ->
        let faults =
          Trace.profile_crashes trial_rngs.(t) ~profile ~horizon:1.0
        in
        if survives sets (crashed_set ~m:mm faults) then 1.0 else 0.0)
  in
  let iv = Bootstrap.mean_interval ~rng data in
  { point = iv.Bootstrap.point; lo = iv.Bootstrap.lo; hi = iv.Bootstrap.hi;
    trials }

(* ------------------------- the experiment --------------------------- *)

let profiles =
  [
    ("uniform p=0.05", fun _rng -> Failure.uniform ~m ~p:0.05);
    ( "tiered 0.01/0.20",
      fun _rng ->
        Failure.make (Array.init m (fun i -> if i < m / 2 then 0.01 else 0.20))
    );
    ( "random [0.01,0.30]",
      fun rng ->
        Failure.make
          (Array.init m (fun _ -> Rng.float_range rng ~lo:0.01 ~hi:0.30)) );
  ]

let strategy_specs =
  Strategy.
    [
      ("LPT-No Choice", no_replication Lpt);
      ("Budgeted k=2", budgeted ~k:2);
      ("Reliability 0.9", reliability ~target:0.9 ~budget:None);
      ("Reliability 0.99", reliability ~target:0.99 ~budget:None);
      ("Reliability 0.999", reliability ~target:0.999 ~budget:None);
      ("Reliability 0.99 B=18", reliability ~target:0.99 ~budget:(Some 18.0));
      ("LPT-No Restriction", full_replication Lpt);
    ]

let is_reliability = function Strategy.Reliability _ -> true | _ -> false

type row = {
  pname : string;
  name : string;
  spec : Strategy.t;
  ratio : Summary.t;
  mem : Summary.t;
  bound : Summary.t;
  indicators : float list ref;
  infeasible : int ref;
  mutable survival : Bootstrap.interval option; (* None when never feasible *)
}

let run config =
  Runner.print_section
    "Reliability tradeoff -- makespan x memory x survival probability";
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "n=%d tasks, m=%d machines, alpha=%g. Per profile and repetition every\n\
     strategy sees the same workload, realization, and %d crash draws from\n\
     the profile (paired streams), so survival differences are placement\n\
     differences. 'survival' is the Monte-Carlo P(no stranded task) with a\n\
     95%% bootstrap CI over %d draws; 'bound' the analytic union bound the\n\
     reliability solver holds at >= its target.\n\n"
    n m Fault_fixture.alpha crash_draws_per_rep (reps * crash_draws_per_rep);
  let min_survival = ref infinity and min_bound = ref infinity in
  let algos =
    List.map (fun (_, spec) -> Runner.strategy config ~m spec) strategy_specs
  in
  let rows =
    List.concat
      (List.mapi
         (fun pidx (pname, make_profile) ->
           let profile =
             make_profile
               (Rng.create ~seed:(config.Runner.seed + (613 * pidx)) ())
           in
           let rows =
             List.map
               (fun (name, spec) ->
                 {
                   pname;
                   name;
                   spec;
                   ratio = Summary.create ();
                   mem = Summary.create ();
                   bound = Summary.create ();
                   indicators = ref [];
                   infeasible = ref 0;
                   survival = None;
                 })
               strategy_specs
           in
           Runner.paired config ~seed:(config.Runner.seed + (7919 * pidx)) ~reps
             (fun rng ->
               let instance, realization = Fault_fixture.generate ~n ~m rng in
               let instance = Instance.with_failure instance (Some profile) in
               let lb =
                 Core.Lower_bounds.best ~m (Realization.actuals realization)
               in
               let crash_sets =
                 Array.init crash_draws_per_rep (fun _ -> Rng.split rng)
                 |> Array.map (fun r ->
                        crashed_set ~m
                          (Trace.profile_crashes r ~profile ~horizon:1.0))
               in
               (* Per strategy: None when phase 1 is infeasible, else the
                  ratio, memory, survival bound and survival indicators. *)
               List.map
                 (fun algo ->
                   match algo.Core.Two_phase.phase1 instance with
                   | exception Core.Reliability.Infeasible _ -> None
                   | placement ->
                       let makespan =
                         Schedule.makespan
                           (algo.Core.Two_phase.phase2 instance placement
                              realization)
                       in
                       let sets = Core.Placement.sets placement in
                       Some
                         ( makespan /. lb,
                           Core.Placement.memory_max placement
                             ~sizes:(Instance.sizes instance),
                           Core.Reliability.survival_bound instance placement,
                           Array.map
                             (fun crashed ->
                               if survives sets crashed then 1.0 else 0.0)
                             crash_sets ))
                 algos)
             (List.iter2
                (fun row -> function
                  | None -> incr row.infeasible
                  | Some (ratio, mem, bound, indicators) ->
                      Summary.add row.ratio ratio;
                      Summary.add row.mem mem;
                      Summary.add row.bound bound;
                      Array.iter
                        (fun x -> row.indicators := x :: !(row.indicators))
                        indicators)
                rows);
           List.iter
             (fun row ->
               if !(row.infeasible) < reps then begin
                 let iv =
                   Bootstrap.mean_interval
                     ~rng:(Rng.create ~seed:(config.Runner.seed + 104729) ())
                     (Array.of_list !(row.indicators))
                 in
                 if is_reliability row.spec then begin
                   min_survival := Float.min !min_survival iv.Bootstrap.point;
                   min_bound := Float.min !min_bound (Summary.min row.bound)
                 end;
                 row.survival <- Some iv
               end)
             rows;
           rows)
         profiles)
  in
  if Float.is_finite !min_survival then begin
    Metrics.set
      (Metrics.gauge config.Runner.metrics "reliability.survival_min")
      !min_survival;
    Metrics.set
      (Metrics.gauge config.Runner.metrics "reliability.bound_min")
      !min_bound
  end;
  (* A never-feasible row shows "-" in the table ("infeasible" under
     survival) and nan in every CSV field but the count. *)
  let if_feasible none f r =
    match r.survival with None -> none | Some iv -> f r iv
  in
  let shown none fmt f = if_feasible none (fun r iv -> fmt (f r iv)) in
  let raw f = if_feasible "nan" (fun r iv -> Printf.sprintf "%.6f" (f r iv)) in
  let ratio r _ = Summary.mean r.ratio and mem r _ = Summary.mean r.mem in
  let bound r _ = Summary.min r.bound and point _ iv = iv.Bootstrap.point in
  let lo _ iv = iv.Bootstrap.lo and hi _ iv = iv.Bootstrap.hi in
  Sheet.emit config ~csv:"reliability_tradeoff"
    [
      Sheet.text ~csv:"profile" "profile" (fun r -> r.pname);
      Sheet.column ~align:Table.Left "strategy" (fun r -> r.name)
        ~csv:[ ("strategy", fun r -> Strategy.to_string r.spec) ];
      Sheet.column "mean ratio" (shown "-" Table.cell_float ratio)
        ~csv:[ ("mean_ratio", raw ratio) ];
      Sheet.column "mem max" (shown "-" Table.cell_float mem)
        ~csv:[ ("mem_max", raw mem) ];
      Sheet.column "survival"
        (shown "infeasible" (Printf.sprintf "%.4f") point)
        ~csv:[ ("survival", raw point) ];
      Sheet.column "95% CI"
        (shown "-" Fun.id (fun r iv ->
             Printf.sprintf "[%.4f, %.4f]" (lo r iv) (hi r iv)))
        ~csv:[ ("survival_lo", raw lo); ("survival_hi", raw hi) ];
      Sheet.column "bound" (shown "-" (Printf.sprintf "%.4f") bound)
        ~csv:[ ("bound_min", raw bound) ];
      Sheet.csv_only "infeasible_reps" (fun r -> string_of_int !(r.infeasible));
    ]
    rows;
  Printf.printf
    "\nFixed-degree strategies pay the same memory on every profile and\n\
     let survival float; the reliability family holds survival above its\n\
     target (bound column) and spends memory only where the profile is\n\
     flaky — degrees shrink on the reliable tier, which is what the\n\
     variable-degree engine plumbing exists for. The budgeted variant\n\
     shows the feasibility edge: a tight memory cap and a tight target\n\
     cannot always both be met.\n"

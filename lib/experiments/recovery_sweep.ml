(* recovery-sweep: how much of the paper's replication-degree guarantee
   online healing buys back. Part A crashes machines under a fixed ring
   placement and sweeps the recovery policy (detection latency x
   transfer bandwidth, re-replication target 2) against the passive
   engine on paired traces. Part B isolates checkpoint/resume on
   outage-only traces over singleton placements, where its effect is
   pointwise (every machine runs its own queue, so banked progress can
   only help). *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module F = Fault_fixture

let m = F.m
let n = F.n
let crash_rate = 0.4

(* One paired repetition: a workload and a fault trace drawn by
   [faults], replayed under every policy of [cells] on the ring with [k]
   replicas. *)
let replay config ~seed ~reps ~k ~faults cells =
  Runner.paired config ~seed ~reps
    (fun rng ->
      let instance, realization = F.generate ~n ~m rng in
      let order = Instance.lpt_order instance in
      let placement = F.ring ~k in
      let healthy =
        Schedule.makespan (Engine.run instance realization ~placement ~order)
      in
      let faults = faults rng ~healthy in
      ( healthy,
        Realization.total realization,
        List.map
          (fun (_, recovery, _) ->
            Engine.run_faulty ~recovery ~metrics:(Metrics.create ()) instance
              realization ~faults ~placement ~order)
          cells ))
    (fun (healthy, total_work, outcomes) ->
      List.iter2
        (fun (_, _, cell) outcome -> F.record cell ~healthy ~total_work outcome)
        cells outcomes)

let policy_col = Sheet.text ~csv:"policy" "policy" (fun (name, _, _) -> name)
let cell_of (_, _, c) = c

(* ----------------- part A: healing vs crashes ----------------------- *)

let policies =
  ("passive (none)", Recovery.none)
  :: List.concat_map
       (fun lat ->
         List.map
           (fun (bw_name, bw) ->
             ( Printf.sprintf "heal r=2 lat=%g bw=%s" lat bw_name,
               Recovery.make ~detection_latency:lat ~rereplication_target:(Recovery.Fixed 2)
                 ~bandwidth:bw () ))
           [ ("inf", infinity); ("1", 1.0); ("0.05", 0.05) ])
       [ 0.0; 2.0; 8.0 ]

let healing_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "A. Online re-replication under crashes: n=%d, m=%d, ring k=2, crash\n\
     rate %.2f (times uniform in the healthy makespan), LPT order. Every\n\
     policy replays the same paired workload + crash trace per rep; the\n\
     healer copies data at the given bandwidth back up to 2 live\n\
     replicas, after the given detection latency.\n\n"
    n m crash_rate;
  let cells = List.map (fun (name, p) -> (name, p, F.cell ())) policies in
  (* One workload + trace per repetition, shared by every policy. *)
  replay config ~seed:(config.Runner.seed + 4241) ~reps ~k:2 cells
    ~faults:(fun rng ~healthy ->
      Trace.random_crashes rng ~m ~p:crash_rate ~horizon:healthy);
  Sheet.emit config ~csv:"recovery_sweep_healing"
    [
      policy_col;
      F.stranded_runs cell_of;
      F.mean_lost cell_of;
      F.tasks_done cell_of;
      F.mean_degr cell_of;
      F.wasted cell_of;
      F.transfers cell_of;
    ]
    cells;
  (* The acceptance check of this experiment: healing strictly reduces
     the probability of losing a task on the paired traces. *)
  (match cells with
  | (_, _, passive) :: (best_name, _, best) :: _ ->
      let stranded c = F.stranded_runs_of c and runs c = F.runs_of c in
      Printf.printf
        "\nStranded-run probability: passive %d/%d -> %s %d/%d (%s).\n"
        (stranded passive) (runs passive) best_name (stranded best) (runs best)
        (if stranded best < stranded passive then "strict improvement"
         else "no improvement at these parameters")
  | _ -> ());
  Printf.printf
    "Lower bandwidth and higher detection latency hand the second crash a\n\
     longer window to beat the healer; wasted work includes the copies a\n\
     late detection kept dispatching to doomed machines.\n"

(* ----------------- part B: checkpoint/resume ------------------------ *)

let checkpoint_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  let interval = 1.0 in
  Printf.printf
    "\nB. Checkpoint/resume on outage-only traces: singleton placements\n\
     (k=1, every machine owns its queue), outage rate 0.5 with durations\n\
     in [5, 10]. A checkpointed copy resumes from its last multiple of\n\
     %.1f work units when the machine rejoins; the passive engine\n\
     restarts from zero.\n\n"
    interval;
  let cells =
    [
      ("restart (none)", Recovery.none, F.cell ());
      ( Printf.sprintf "checkpoint c=%.1f" interval,
        Recovery.make ~checkpoint_interval:interval (),
        F.cell () );
    ]
  in
  replay config ~seed:(config.Runner.seed + 9631) ~reps ~k:1 cells
    ~faults:(fun rng ~healthy ->
      Trace.random_outages rng ~m ~p:0.5 ~horizon:healthy ~duration:(5.0, 10.0));
  Sheet.emit config ~csv:"recovery_sweep_checkpoint"
    [
      policy_col;
      F.mean_degr cell_of;
      F.worst_degr ~csv:"worst_degradation" cell_of;
      F.wasted cell_of;
      F.resumes cell_of;
    ]
    cells;
  Printf.printf
    "\nWith singleton placements an outage stalls the only holder, so the\n\
     passive engine re-runs every killed unit of work; checkpointing\n\
     caps the loss per outage at one interval and never hurts (each\n\
     machine's queue shrinks pointwise).\n"

let run config =
  Runner.print_section
    "Recovery sweep -- detection latency, re-replication bandwidth, checkpoints";
  healing_sweep config;
  checkpoint_sweep config

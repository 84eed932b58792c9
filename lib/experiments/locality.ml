(* locality: replication transfer cost vs zone-outage robustness across
   network topologies. Full replication is maximally robust but pays
   every cross-zone link for every task; the zone-aware builders
   (zonegroup:K, localbudget:B) aim for the same fault-domain coverage
   at a fraction of the transfer bill. Each topology replays paired
   workloads: a healthy run (the engine charges staging before a
   machine's first copy), then one whole-zone outage per zone with
   online re-replication enabled. The acceptance gauge counts
   topologies where some zone-aware placement is strictly cheaper than
   full replication at equal-or-better completion. *)

module Instance = Usched_model.Instance
module Topology = Usched_model.Topology
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Summary = Usched_stats.Summary

let m = 8
let n = 40

(* One intra-datacenter, one two-rack, one geo-distributed topology.
   Specs go through [Topology.of_spec] so the experiment exercises the
   same grammar the CLI exposes. *)
let topologies =
  [
    ("uniform", "uniform");
    ("two-rack", "zones:2:0.5");
    ("multi-zone-wan", "zones:4:0.1:5");
  ]

let strategies =
  [
    ("full (m copies)", Strategy.full_replication Strategy.Lpt);
    ("ls-group k=2", Strategy.group ~order:Strategy.Ls ~k:2);
    ("zonegroup:2", Strategy.zone_group ~k:2);
    ("localbudget:2.5", Strategy.local_budget ~budget:2.5);
  ]

let zone_aware = [ "zonegroup:2"; "localbudget:2.5" ]

(* Crash every machine of [zone] at time [at] — a whole fault domain
   going dark mid-run. *)
let zone_outage topo ~zone ~at =
  Trace.of_events ~m
    (List.filter_map
       (fun i ->
         if Topology.zone topo i = zone then
           Some { Fault.machine = i; time = at; kind = Fault.Crash }
         else None)
       (List.init m Fun.id))

type cell = {
  cost : Summary.t; (* Placement.replication_cost per rep *)
  healthy : Summary.t; (* healthy C_max, staging included *)
  completion : Summary.t; (* completed fraction per zone outage *)
  degradation : Summary.t; (* outage/healthy makespan, full runs only *)
}

let cell () =
  {
    cost = Summary.create ();
    healthy = Summary.create ();
    completion = Summary.create ();
    degradation = Summary.create ();
  }

let run config =
  Runner.print_section
    "Locality -- replication transfer cost vs zone-outage robustness";
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "n=%d, m=%d, alpha=%g, %d reps per topology. Per rep: healthy replay\n\
     (engine stages data before a machine's first copy of a task), then\n\
     one whole-zone crash per zone at 0.3 x healthy makespan, with online\n\
     re-replication (target 2, bandwidth 1) healing over the topology's\n\
     links. Transfer cost is Placement.replication_cost: data born on\n\
     machine j mod m, every replica pays its path's latency + size/bw.\n\n"
    n m Fault_fixture.alpha reps;
  let wins = ref 0 in
  let recovery =
    Recovery.make ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0 ()
  in
  let algos =
    List.map (fun (name, s) -> (name, Runner.strategy config ~m s)) strategies
  in
  let rows =
    List.concat_map
      (fun (tname, spec) ->
        let topo =
          match Topology.of_spec ~m spec with
          | Ok t -> t
          | Error msg -> invalid_arg ("locality: " ^ msg)
        in
        let cells = List.map (fun (name, _) -> (tname, name, cell ())) algos in
        (* One workload per rep, shared by every strategy and zone; per
           strategy the transfer cost, the healthy makespan, and the
           outcome of each zone outage. *)
        Runner.paired config ~seed:(config.Runner.seed + 7177) ~reps
          (fun rng ->
            let instance, realization = Fault_fixture.generate ~n ~m rng in
            let instance = Instance.with_topology instance (Some topo) in
            let order = Instance.lpt_order instance in
            let sizes = Instance.sizes instance in
            List.map
              (fun (_, algo) ->
                let placement = algo.Core.Two_phase.phase1 instance in
                let sets = Core.Placement.sets placement in
                let healthy =
                  Schedule.makespan
                    (Engine.run instance realization ~placement:sets ~order)
                in
                ( Core.Placement.replication_cost placement ~topology:topo
                    ~sizes,
                  healthy,
                  List.init (Topology.zones topo) (fun zone ->
                      let faults = zone_outage topo ~zone ~at:(0.3 *. healthy) in
                      Engine.run_faulty ~recovery instance realization ~faults
                        ~placement:sets ~order) ))
              algos)
          (List.iter2
             (fun (_, _, cell) (cost, healthy, outages) ->
               Summary.add cell.cost cost;
               Summary.add cell.healthy healthy;
               List.iter
                 (fun (outcome : Engine.outcome) ->
                   Summary.add cell.completion
                     (float_of_int outcome.Engine.completed /. float_of_int n);
                   if outcome.Engine.stranded = [] then
                     Summary.add cell.degradation
                       (outcome.Engine.makespan /. healthy))
                 outages)
             cells);
        (* The acceptance question, per topology: does some zone-aware
           placement beat full replication's transfer bill strictly while
           completing at least as many tasks under every zone outage? *)
        let mean_of f name =
          let _, _, c = List.find (fun (_, n, _) -> n = name) cells in
          Summary.mean (f c)
        in
        let full_cost = mean_of (fun c -> c.cost) "full (m copies)" in
        let full_done = mean_of (fun c -> c.completion) "full (m copies)" in
        let best =
          List.fold_left
            (fun acc (_, name, cell) ->
              if
                List.mem name zone_aware
                && Summary.mean cell.completion >= full_done -. 1e-9
              then
                match acc with
                | Some (_, c) when c <= Summary.mean cell.cost -> acc
                | _ -> Some (name, Summary.mean cell.cost)
              else acc)
            None cells
        in
        let gauge suffix =
          Metrics.gauge config.Runner.metrics
            (Printf.sprintf "locality.%s.%s" tname suffix)
        in
        (match best with
        | Some (bname, bcost) when bcost < full_cost ->
            incr wins;
            Printf.printf
              "%s: %s wins -- transfer cost %.2f vs full replication's %.2f at\n\
               equal-or-better completion.\n"
              tname bname bcost full_cost;
            Metrics.set (gauge "cost_ratio") (bcost /. full_cost)
        | _ ->
            Printf.printf
              "%s: no strict transfer-cost win over full replication (its\n\
               transfers are already free here).\n"
              tname;
            Metrics.set (gauge "cost_ratio") 1.0);
        Metrics.set (gauge "completion_delta")
          ((match best with
           | Some (bname, _) -> mean_of (fun c -> c.completion) bname
           | None -> full_done)
          -. full_done);
        cells)
      topologies
  in
  Metrics.set
    (Metrics.gauge config.Runner.metrics "locality.wins")
    (float_of_int !wins);
  let mean f (_, _, c) = Summary.mean (f c) in
  Sheet.emit config ~csv:"locality"
    [
      Sheet.text ~csv:"topology" "topology" (fun (t, _, _) -> t);
      Sheet.text ~csv:"strategy" "strategy" (fun (_, s, _) -> s);
      Sheet.num ~csv:"transfer_cost" "transfer cost" (mean (fun c -> c.cost));
      Sheet.num ~csv:"healthy_makespan" "healthy C_max"
        (mean (fun c -> c.healthy));
      Sheet.pct ~csv:"task_completion" "tasks done"
        (mean (fun c -> c.completion));
      Sheet.num_opt ~csv:"mean_degradation" "mean degr" (fun (_, _, c) ->
          if Summary.count c.degradation = 0 then None
          else Some (Summary.mean c.degradation));
    ]
    rows;
  Printf.printf
    "\nZone-aware placement strictly cheaper than full replication at\n\
     equal-or-better zone-outage robustness on %d/%d topologies (the\n\
     uniform topology's transfers are free, so no strict win exists\n\
     there).\n"
    !wins (List.length topologies)

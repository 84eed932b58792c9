(* THE golden gate of the zero-allocation engine rewrite: the live
   engine against [Reference_engine] — the pre-refactor engine frozen
   verbatim — bit for bit. Schedules, fates, floats, chronological
   event logs, and metrics snapshots must be identical across mixed
   fault regimes, every built-in dispatch policy, speculation on/off,
   metrics on/off, recovery none/neutral/active, heterogeneous speeds,
   and the streaming arrival mode. Any behavioural drift the SoA heap,
   flat machine state, or allocation-free loops introduced fails
   here. *)

module Engine = Usched_desim.Engine
module Dispatch = Usched_desim.Dispatch
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Json = Usched_report.Json
module Rng = Usched_prng.Rng

(* ------------------------- scenario space --------------------------- *)

let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* m = int_range 1 5 in
    let* k = int_range 1 m in
    let* p = float_range 0.0 1.0 in
    let* seed = int_bound 1_000_000 in
    return (n, m, k, p, seed))

let scenario =
  QCheck.make
    ~print:(fun (n, m, k, p, seed) ->
      Printf.sprintf "n=%d m=%d k=%d p=%.3f seed=%d" n m k p seed)
    scenario_gen

let build (n, m, k, p, seed) =
  let rng = Rng.create ~seed () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let sizes = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:4.0) in
  let instance =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ~sizes ests
  in
  let realization = Realization.uniform_factor instance rng in
  let placement () =
    Array.init n (fun j ->
        Bitset.of_list m (List.init k (fun i -> (j + i) mod m)))
  in
  let order = Instance.lpt_order instance in
  let horizon = 2.0 *. Realization.total realization in
  let faults =
    Trace.merge
      (Trace.random_crashes rng ~m ~p ~horizon)
      (Trace.merge
         (Trace.random_outages rng ~m ~p ~horizon ~duration:(0.5, 5.0))
         (Trace.random_slowdowns rng ~m ~p ~horizon ~factor:(0.2, 0.9)))
  in
  (instance, realization, placement, order, faults, rng)

(* The recovery/speculation/metrics axes, derived from the seed so the
   320 scenarios spread over the whole grid. *)
let variants seed =
  let speculation = if seed mod 3 = 0 then Some 1.3 else None in
  let metrics_on = seed mod 2 = 0 in
  let recovery =
    match seed mod 5 with
    | 0 | 1 ->
        Recovery.make ~detection_latency:0.5
          ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0
          ~checkpoint_interval:1.0 ~max_retries:2 ()
    | 2 -> Recovery.make ()
    | _ -> Recovery.none
  in
  let speeds m =
    if seed mod 7 < 3 then
      Some (Array.init m (fun i -> 0.5 +. (0.5 *. float_of_int (i + 1))))
    else None
  in
  (speculation, metrics_on, recovery, speeds)

let registry metrics_on =
  if metrics_on then Metrics.create () else Metrics.disabled

let entries_equal (a : Schedule.entry) (b : Schedule.entry) =
  a.Schedule.machine = b.Schedule.machine
  && a.Schedule.start = b.Schedule.start
  && a.Schedule.finish = b.Schedule.finish

let outcomes_identical (a : Engine.outcome) (b : Engine.outcome) =
  a.Engine.completed = b.Engine.completed
  && a.Engine.stranded = b.Engine.stranded
  && a.Engine.makespan = b.Engine.makespan
  && a.Engine.wasted = b.Engine.wasted
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Engine.Stranded, Engine.Stranded -> true
         | Engine.Finished e, Engine.Finished f -> entries_equal e f
         | _ -> false)
       a.Engine.fates b.Engine.fates
  && Json.to_string (Metrics.to_json a.Engine.metrics)
     = Json.to_string (Metrics.to_json b.Engine.metrics)

(* ------------------------------ faulty ------------------------------ *)

let prop_faulty_matches_reference =
  QCheck.Test.make
    ~name:"faulty engine is bit-for-bit the frozen reference" ~count:320
    scenario (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults, _ = build s in
      let speculation, metrics_on, recovery, _ = variants seed in
      List.for_all
        (fun dispatch ->
          let a, ev_a =
            Engine.run_faulty_traced ?speculation ~dispatch ~recovery
              ~metrics:(registry metrics_on) instance realization ~faults
              ~placement:(placement ()) ~order
          in
          let b, ev_b =
            Reference_engine.run_faulty_traced ?speculation ~dispatch
              ~recovery ~metrics:(registry metrics_on) instance realization
              ~faults ~placement:(placement ()) ~order
          in
          outcomes_identical a b && ev_a = ev_b)
        Dispatch.builtin)

(* ----------------------------- healthy ------------------------------ *)

let prop_healthy_matches_reference =
  QCheck.Test.make
    ~name:"healthy engine is bit-for-bit the frozen reference" ~count:320
    scenario (fun ((_, m, _, _, seed) as s) ->
      let instance, realization, placement, order, _, _ = build s in
      let _, metrics_on, _, speeds = variants seed in
      let speeds = speeds m in
      List.for_all
        (fun dispatch ->
          let a, ev_a =
            Engine.run_traced ?speeds ~dispatch
              ~metrics:(registry metrics_on) instance realization
              ~placement:(placement ()) ~order
          in
          let b, ev_b =
            Reference_engine.run_traced ?speeds ~dispatch
              ~metrics:(registry metrics_on) instance realization
              ~placement:(placement ()) ~order
          in
          ev_a = ev_b
          && Array.for_all2 entries_equal
               (Array.init (Schedule.n a) (Schedule.entry a))
               (Array.init (Schedule.n b) (Schedule.entry b)))
        Dispatch.builtin)

(* ----------------------------- streaming ---------------------------- *)

let prop_stream_matches_reference =
  QCheck.Test.make
    ~name:"streaming engine is bit-for-bit the frozen reference" ~count:200
    scenario (fun ((n, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults, rng = build s in
      let speculation, metrics_on, recovery, _ = variants seed in
      let arrivals =
        Array.init n (fun _ -> Rng.float_range rng ~lo:0.0 ~hi:5.0)
      in
      let a, ev_a =
        Engine.run_stream_traced ?speculation ~recovery
          ~metrics:(registry metrics_on) ~faults instance realization
          ~arrivals ~placement:(placement ()) ~order
      in
      let b, ev_b =
        Reference_engine.run_stream_traced ?speculation ~recovery
          ~metrics:(registry metrics_on) ~faults instance realization
          ~arrivals ~placement:(placement ()) ~order
      in
      outcomes_identical a.Engine.outcome b.Engine.outcome
      && a.Engine.latencies = b.Engine.latencies
      && ev_a = ev_b)

(* ------------------------- word boundaries -------------------------- *)

(* The engine walks its speculation candidates and its heal worklist as
   bitsets of 62-member words, so these task counts sit on and around
   the first word boundaries. Replication is kept at most three, so
   crashes leave tasks under the healer's target; speculation is always
   on and the recovery policy always active. *)
let boundary_scenario =
  QCheck.make
    ~print:(fun (n, m, k, p, seed) ->
      Printf.sprintf "n=%d m=%d k=%d p=%.3f seed=%d" n m k p seed)
    QCheck.Gen.(
      let* n = oneofl [ 61; 62; 63; 124; 125; 190 ] in
      let* m = int_range 3 12 in
      let* k = int_range 1 3 in
      let* p = float_range 0.1 0.9 in
      let* seed = int_bound 1_000_000 in
      return (n, m, k, p, seed))

let boundary_variants seed =
  let speculation = List.nth [ 1.1; 1.3; 1.6 ] (seed mod 3) in
  let recovery =
    Recovery.make
      ~detection_latency:(if seed mod 2 = 0 then 0.0 else 0.5)
      ~rereplication_target:
        (match seed mod 5 with
        | 0 | 1 -> Recovery.Fixed 2
        | 2 | 3 -> Recovery.Fixed 3
        | _ -> Recovery.Degree)
      ~bandwidth:1.0
      ~checkpoint_interval:(if seed mod 7 < 3 then 1.0 else 0.0)
      ~max_retries:2 ()
  in
  (speculation, recovery)

let prop_word_boundaries_match_reference =
  QCheck.Test.make
    ~name:"speculation and healing across bitset word boundaries match the \
           frozen reference"
    ~count:200 boundary_scenario (fun ((n, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults, rng = build s in
      let speculation, recovery = boundary_variants seed in
      let faulty_ok =
        List.for_all
          (fun dispatch ->
            let a, ev_a =
              Engine.run_faulty_traced ~speculation ~dispatch ~recovery
                ~metrics:(Metrics.create ()) instance realization ~faults
                ~placement:(placement ()) ~order
            in
            let b, ev_b =
              Reference_engine.run_faulty_traced ~speculation ~dispatch
                ~recovery ~metrics:(Metrics.create ()) instance realization
                ~faults ~placement:(placement ()) ~order
            in
            outcomes_identical a b && ev_a = ev_b)
          Dispatch.builtin
      in
      let arrivals =
        Array.init n (fun _ -> Rng.float_range rng ~lo:0.0 ~hi:20.0)
      in
      let a, ev_a =
        Engine.run_stream_traced ~speculation ~recovery
          ~metrics:(Metrics.create ()) ~faults instance realization ~arrivals
          ~placement:(placement ()) ~order
      in
      let b, ev_b =
        Reference_engine.run_stream_traced ~speculation ~recovery
          ~metrics:(Metrics.create ()) ~faults instance realization ~arrivals
          ~placement:(placement ()) ~order
      in
      faulty_ok
      && outcomes_identical a.Engine.outcome b.Engine.outcome
      && a.Engine.latencies = b.Engine.latencies
      && ev_a = ev_b)

(* ------------------------------ suite ------------------------------- *)

let () =
  Alcotest.run "golden_engine"
    [
      ( "golden",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_faulty_matches_reference;
            prop_healthy_matches_reference;
            prop_stream_matches_reference;
            prop_word_boundaries_match_reference;
          ] );
    ]

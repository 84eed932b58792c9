(* Tests for timelines and utilization statistics. *)

module Timeline = Usched_desim.Timeline
module Schedule = Usched_desim.Schedule
module Gantt = Usched_desim.Gantt
module Engine = Usched_desim.Engine
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let entry machine start finish = { Schedule.machine; start; finish }

let stats_basic () =
  let s =
    Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 0 3.0 5.0; entry 1 0.0 1.0 |]
  in
  let stats = Timeline.machine_stats s in
  let m0 = stats.(0) and m1 = stats.(1) in
  close "m0 busy" 4.0 m0.Timeline.busy;
  close "m0 finish" 5.0 m0.Timeline.finish;
  Alcotest.(check int) "m0 tasks" 2 m0.Timeline.tasks;
  close "m0 idle gap" 1.0 m0.Timeline.idle_before_finish;
  close "m1 busy" 1.0 m1.Timeline.busy;
  Alcotest.(check int) "m1 tasks" 1 m1.Timeline.tasks

let utilization_perfect () =
  let s = Schedule.make ~m:2 [| entry 0 0.0 3.0; entry 1 0.0 3.0 |] in
  close "fully busy" 1.0 (Timeline.utilization s)

let utilization_half () =
  (* One machine busy 4, the other idle: 4 / (2*4) = 0.5. *)
  let s = Schedule.make ~m:2 [| entry 0 0.0 4.0 |] in
  close "half" 0.5 (Timeline.utilization s)

let utilization_empty () =
  close "empty schedule" 0.0 (Timeline.utilization (Schedule.make ~m:3 [||]))

let engine_schedules_have_no_gaps () =
  (* The engine never leaves a machine idle while it has eligible
     work, so idle_before_finish must be 0 everywhere. *)
  let instance =
    Instance.of_ests ~m:3 ~alpha:Uncertainty.alpha_exact
      [| 4.0; 3.0; 3.0; 2.0; 2.0; 1.0 |]
  in
  let realization = Realization.exact instance in
  let placement = Array.init 6 (fun _ -> Bitset.full 3) in
  let s =
    Engine.run instance realization ~placement
      ~order:(Array.init 6 (fun j -> j))
  in
  Array.iter
    (fun stat -> close "no internal idleness" 0.0 stat.Timeline.idle_before_finish)
    (Timeline.machine_stats s)

let render_events_format () =
  let events =
    [
      Engine.Started { time = 0.0; machine = 1; task = 4 };
      Engine.Completed { time = 2.5; machine = 1; task = 4 };
    ]
  in
  let text = Timeline.render_events events in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "start line" true (contains "start    task 4");
  checkb "complete line" true (contains "complete task 4");
  checkb "machine" true (contains "m1")

let render_stats_mentions_utilization () =
  let s = Schedule.make ~m:1 [| entry 0 0.0 1.0 |] in
  let text = Timeline.render_stats s in
  checkb "has utilization line" true
    (String.length text > 0
    &&
    let needle = "utilization" in
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0)

(* [render_stats] and [Gantt.render] against references that rescan
   the whole schedule once per machine with [Schedule.machine_tasks].
   Start times are drawn from a handful of values, so same-machine ties
   are common and the tie order (ascending task id) is exercised. *)
let random_schedule rng =
  let m = 1 + Random.State.int rng 12 in
  let n = Random.State.int rng 80 in
  Schedule.make ~m
    (Array.init n (fun _ ->
         let start = 0.5 *. float_of_int (Random.State.int rng 6) in
         let duration =
           if Random.State.bool rng then 0.0 else Random.State.float rng 3.0
         in
         entry (Random.State.int rng m) start (start +. duration)))

let reference_render_stats schedule =
  let m = Schedule.m schedule in
  let stats =
    Array.init m (fun i ->
        let tasks = Schedule.machine_tasks schedule i in
        let busy, finish =
          List.fold_left
            (fun (busy, finish) task ->
              let e = Schedule.entry schedule task in
              ( busy +. (e.Schedule.finish -. e.Schedule.start),
                Float.max finish e.Schedule.finish ))
            (0.0, 0.0) tasks
        in
        (i, List.length tasks, busy, finish))
  in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "machine  tasks      busy    finish      idle\n";
  Array.iter
    (fun (i, tasks, busy, finish) ->
      Buffer.add_string buffer
        (Printf.sprintf "m%-7d %5d %9.3f %9.3f %9.3f\n" i tasks busy finish
           (finish -. busy)))
    stats;
  let horizon = Schedule.makespan schedule in
  let utilization =
    if horizon <= 0.0 then 0.0
    else
      Array.fold_left (fun acc (_, _, busy, _) -> acc +. busy) 0.0 stats
      /. (float_of_int m *. horizon)
  in
  Buffer.add_string buffer
    (Printf.sprintf "utilization: %.1f%% of m * makespan\n"
       (100.0 *. utilization));
  Buffer.contents buffer

let reference_gantt ~width schedule =
  let buffer = Buffer.create 256 in
  let horizon = Schedule.makespan schedule in
  let scale = if horizon > 0.0 then float_of_int width /. horizon else 0.0 in
  Buffer.add_string buffer
    (Printf.sprintf "time 0 .. %g (makespan), %d machines\n" horizon
       (Schedule.m schedule));
  for i = 0 to Schedule.m schedule - 1 do
    let row = Bytes.make width '.' in
    List.iter
      (fun task ->
        let e = Schedule.entry schedule task in
        let first = int_of_float (e.Schedule.start *. scale) in
        let last = int_of_float (e.Schedule.finish *. scale) - 1 in
        let first = Stdlib.max 0 (Stdlib.min (width - 1) first) in
        let last = Stdlib.max first (Stdlib.min (width - 1) last) in
        for c = first to last do
          Bytes.set row c (Char.chr (Char.code '0' + (task mod 10)))
        done)
      (Schedule.machine_tasks schedule i);
    Buffer.add_string buffer
      (Printf.sprintf "m%-3d |%s|\n" i (Bytes.to_string row))
  done;
  Buffer.contents buffer

let prop_render_stats_matches_reference =
  QCheck.Test.make ~name:"render_stats matches a per-machine-scan reference"
    ~count:300 QCheck.int (fun seed ->
      let schedule = random_schedule (Random.State.make [| seed |]) in
      String.equal (Timeline.render_stats schedule)
        (reference_render_stats schedule))

let prop_gantt_matches_reference =
  QCheck.Test.make ~name:"Gantt.render matches a per-machine-scan reference"
    ~count:200 QCheck.int (fun seed ->
      let schedule = random_schedule (Random.State.make [| seed |]) in
      String.equal (Gantt.render ~width:40 schedule)
        (reference_gantt ~width:40 schedule))

let () =
  Alcotest.run "timeline"
    [
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick stats_basic;
          Alcotest.test_case "full utilization" `Quick utilization_perfect;
          Alcotest.test_case "half utilization" `Quick utilization_half;
          Alcotest.test_case "empty" `Quick utilization_empty;
          Alcotest.test_case "engine leaves no gaps" `Quick
            engine_schedules_have_no_gaps;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "events" `Quick render_events_format;
          Alcotest.test_case "stats table" `Quick render_stats_mentions_utilization;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_render_stats_matches_reference; prop_gantt_matches_reference ] );
    ]

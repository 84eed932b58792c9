(* Unit tests for schedules, validation and Gantt rendering. *)

module Schedule = Usched_desim.Schedule
module Gantt = Usched_desim.Gantt
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let entry machine start finish = { Schedule.machine; start; finish }

let basic_measures () =
  let s =
    Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 1 0.0 3.0; entry 0 2.0 5.0 |]
  in
  Alcotest.(check int) "n" 3 (Schedule.n s);
  Alcotest.(check int) "m" 2 (Schedule.m s);
  close "makespan" 5.0 (Schedule.makespan s);
  Alcotest.(check (array (float 1e-12))) "loads" [| 5.0; 3.0 |] (Schedule.loads s);
  Alcotest.(check (list int)) "machine 0 tasks in start order" [ 0; 2 ]
    (Schedule.machine_tasks s 0);
  Alcotest.(check (array int)) "assignment" [| 0; 1; 0 |] (Schedule.assignment s)

let make_validation () =
  Alcotest.check_raises "machine out of range"
    (Invalid_argument "Schedule.make: task 0 on machine 5") (fun () ->
      ignore (Schedule.make ~m:2 [| entry 5 0.0 1.0 |]));
  Alcotest.check_raises "finish before start"
    (Invalid_argument "Schedule.make: task 0 has bad times") (fun () ->
      ignore (Schedule.make ~m:2 [| entry 0 2.0 1.0 |]))

let of_assignment_packs_back_to_back () =
  let s =
    Schedule.of_assignment ~m:2 ~durations:[| 2.0; 3.0; 4.0 |] [| 0; 0; 1 |]
  in
  let e1 = Schedule.entry s 1 in
  close "second task starts when first ends" 2.0 e1.Schedule.start;
  close "makespan" 5.0 (Schedule.makespan s)

let fixture () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:Uncertainty.alpha_exact [| 2.0; 3.0 |]
  in
  let realization = Realization.exact instance in
  (instance, realization)

let validate_accepts_good_schedule () =
  let instance, realization = fixture () in
  let s = Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 1 0.0 3.0 |] in
  Alcotest.(check int) "no violations" 0
    (List.length (Schedule.validate instance realization s))

let validate_catches_wrong_duration () =
  let instance, realization = fixture () in
  let s = Schedule.make ~m:2 [| entry 0 0.0 9.0; entry 1 0.0 3.0 |] in
  match Schedule.validate instance realization s with
  | [ Schedule.Wrong_duration { task = 0; _ } ] -> ()
  | other ->
      Alcotest.failf "expected one duration violation, got %d" (List.length other)

let validate_catches_overlap () =
  let instance, realization = fixture () in
  let s = Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 0 1.0 4.0 |] in
  checkb "overlap detected" true
    (List.exists
       (function Schedule.Overlap _ -> true | _ -> false)
       (Schedule.validate instance realization s))

let validate_catches_misplacement () =
  let instance, realization = fixture () in
  let placement = [| Bitset.singleton 2 1; Bitset.full 2 |] in
  let s = Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 1 0.0 3.0 |] in
  checkb "locality violation detected" true
    (List.exists
       (function Schedule.Not_allowed { task = 0; machine = 0 } -> true | _ -> false)
       (Schedule.validate ~placement instance realization s))

let validate_allows_idle_gaps () =
  let instance, realization = fixture () in
  (* Machine 0 idles between its two... here task 1 on machine 0 with a gap. *)
  let s = Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 0 10.0 13.0 |] in
  Alcotest.(check int) "gaps are fine" 0
    (List.length (Schedule.validate instance realization s))

let gantt_contains_all_machines () =
  let s = Schedule.make ~m:3 [| entry 0 0.0 2.0; entry 2 0.0 1.0 |] in
  let text = Gantt.render ~width:20 s in
  checkb "mentions m0" true
    (String.length text > 0
    && List.for_all
         (fun needle ->
           let rec contains i =
             i + String.length needle <= String.length text
             && (String.sub text i (String.length needle) = needle
                || contains (i + 1))
           in
           contains 0)
         [ "m0"; "m1"; "m2"; "makespan" ])

let gantt_zero_duration () =
  let s = Schedule.make ~m:1 [||] in
  checkb "renders something" true (String.length (Gantt.render s) > 0)

let gantt_two_requires_same_m () =
  let a = Schedule.make ~m:1 [| entry 0 0.0 1.0 |] in
  let b = Schedule.make ~m:2 [| entry 0 0.0 1.0 |] in
  Alcotest.check_raises "machine count mismatch"
    (Invalid_argument "Gantt.render_two: machine counts differ") (fun () ->
      ignore (Gantt.render_two ~left_title:"a" ~right_title:"b" a b))

let tasks_by_machine_ties () =
  (* Machine 0 runs tasks 3, 1, 0 at start times 0, 1, 1: the tie keeps
     ascending task id. Machine 1 runs nothing. *)
  let s =
    Schedule.make ~m:3
      [| entry 0 1.0 2.0; entry 0 1.0 1.0; entry 2 0.0 1.0; entry 0 0.0 1.0 |]
  in
  let by = Schedule.tasks_by_machine s in
  Alcotest.(check (array int)) "offsets" [| 0; 3; 3; 4 |] by.Schedule.offsets;
  Alcotest.(check (array int)) "tasks" [| 3; 0; 1; 2 |] by.Schedule.tasks

let prop_tasks_by_machine_matches_scans =
  QCheck.Test.make ~name:"tasks_by_machine = machine_tasks on every machine"
    ~count:300 QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let m = 1 + Random.State.int rng 10 in
      let s =
        Schedule.make ~m
          (Array.init (Random.State.int rng 60) (fun _ ->
               let start = float_of_int (Random.State.int rng 4) in
               entry (Random.State.int rng m) start (start +. 1.0)))
      in
      let by = Schedule.tasks_by_machine s in
      by.Schedule.offsets.(m) = Schedule.n s
      && List.for_all
           (fun i ->
             Array.to_list
               (Array.sub by.Schedule.tasks by.Schedule.offsets.(i)
                  (by.Schedule.offsets.(i + 1) - by.Schedule.offsets.(i)))
             = Schedule.machine_tasks s i)
           (List.init m Fun.id))

let () =
  Alcotest.run "schedule"
    [
      ( "measures",
        [
          Alcotest.test_case "basic" `Quick basic_measures;
          Alcotest.test_case "construction validation" `Quick make_validation;
          Alcotest.test_case "of_assignment" `Quick of_assignment_packs_back_to_back;
          Alcotest.test_case "tasks_by_machine ties" `Quick tasks_by_machine_ties;
          QCheck_alcotest.to_alcotest prop_tasks_by_machine_matches_scans;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts good" `Quick validate_accepts_good_schedule;
          Alcotest.test_case "wrong duration" `Quick validate_catches_wrong_duration;
          Alcotest.test_case "overlap" `Quick validate_catches_overlap;
          Alcotest.test_case "misplacement" `Quick validate_catches_misplacement;
          Alcotest.test_case "idle gaps ok" `Quick validate_allows_idle_gaps;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "all machines shown" `Quick gantt_contains_all_machines;
          Alcotest.test_case "empty schedule" `Quick gantt_zero_duration;
          Alcotest.test_case "side-by-side m check" `Quick gantt_two_requires_same_m;
        ] );
    ]

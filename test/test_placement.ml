(* Unit tests for placements. *)

module Placement = Usched_core.Placement
module Bitset = Usched_model.Bitset
module Topology = Usched_model.Topology

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let singletons_basic () =
  let p = Placement.singletons ~m:3 [| 0; 2; 2 |] in
  checki "n" 3 (Placement.n p);
  checki "m" 3 (Placement.m p);
  checkb "task 0 on machine 0" true (Placement.allowed p ~task:0 ~machine:0);
  checkb "task 0 not on machine 1" false (Placement.allowed p ~task:0 ~machine:1);
  checki "replication" 1 (Placement.replication p 1);
  checki "max replication" 1 (Placement.max_replication p);
  checki "total replicas" 3 (Placement.total_replicas p)

let full_basic () =
  let p = Placement.full ~m:4 ~n:2 in
  checki "max replication" 4 (Placement.max_replication p);
  checki "total replicas" 8 (Placement.total_replicas p);
  checkb "everywhere" true (Placement.allowed p ~task:1 ~machine:3)

let group_assignment_basic () =
  let groups = [| [| 0; 1 |]; [| 2; 3 |] |] in
  let p = Placement.of_group_assignment ~m:4 ~groups [| 0; 1; 0 |] in
  checkb "task 1 in group 1" true (Placement.allowed p ~task:1 ~machine:2);
  checkb "task 1 not in group 0" false (Placement.allowed p ~task:1 ~machine:0);
  checki "replication is group size" 2 (Placement.max_replication p)

let empty_set_rejected () =
  Alcotest.check_raises "empty machine set"
    (Invalid_argument "Placement.of_sets: task 0 placed nowhere") (fun () ->
      ignore (Placement.of_sets ~m:2 [| Bitset.create 2 |]))

let capacity_mismatch_rejected () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Placement.of_sets: task 0 capacity mismatch") (fun () ->
      ignore (Placement.of_sets ~m:2 [| Bitset.singleton 3 0 |]))

let memory_loads_count_every_replica () =
  (* Task 0 (size 2) everywhere; task 1 (size 3) only on machine 1. *)
  let sets = [| Bitset.full 2; Bitset.singleton 2 1 |] in
  let p = Placement.of_sets ~m:2 sets in
  let loads = Placement.memory_loads p ~sizes:[| 2.0; 3.0 |] in
  Alcotest.(check (array (float 1e-12))) "per machine" [| 2.0; 5.0 |] loads;
  close "mem_max" 5.0 (Placement.memory_max p ~sizes:[| 2.0; 3.0 |])

let degrees_per_task () =
  let p =
    Placement.of_sets ~m:4
      [| Bitset.of_list 4 [ 0 ]; Bitset.of_list 4 [ 1; 3 ]; Bitset.full 4 |]
  in
  Alcotest.(check (array int)) "one entry per task, its replica count"
    [| 1; 2; 4 |] (Placement.degrees p);
  checki "max replication agrees" 4 (Placement.max_replication p);
  checki "total replicas agree" 7
    (Array.fold_left ( + ) 0 (Placement.degrees p))

let memory_sizes_length_checked () =
  let p = Placement.full ~m:2 ~n:2 in
  Alcotest.check_raises "length"
    (Invalid_argument "Placement.memory_loads: sizes length mismatch") (fun () ->
      ignore (Placement.memory_loads p ~sizes:[| 1.0 |]))

let failure_with_replication_survives () =
  let p = Placement.full ~m:3 ~n:2 in
  (match Placement.without_machine p 1 with
  | None -> Alcotest.fail "full replication must survive"
  | Some degraded ->
      checkb "machine 1 removed" false
        (Placement.allowed degraded ~task:0 ~machine:1);
      checkb "others kept" true (Placement.allowed degraded ~task:0 ~machine:0);
      checki "m unchanged" 3 (Placement.m degraded));
  checkb "survives any failure" true (Placement.survives_any_failure p)

let failure_without_replication_fatal () =
  let p = Placement.singletons ~m:2 [| 0; 1 |] in
  checkb "losing machine 0 strands task 0" true
    (Placement.without_machine p 0 = None);
  checkb "does not survive" false (Placement.survives_any_failure p)

let failure_original_untouched () =
  let p = Placement.full ~m:2 ~n:1 in
  ignore (Placement.without_machine p 0);
  checkb "original intact" true (Placement.allowed p ~task:0 ~machine:0)

let failure_bad_machine_rejected () =
  let p = Placement.full ~m:2 ~n:1 in
  Alcotest.check_raises "machine id"
    (Invalid_argument "Placement.without_machine: machine id") (fun () ->
      ignore (Placement.without_machine p 2))

let sets_are_fresh_array () =
  let p = Placement.full ~m:2 ~n:2 in
  let sets = Placement.sets p in
  checki "two sets" 2 (Array.length sets);
  (* Mutating the returned array must not corrupt the placement. *)
  sets.(0) <- Bitset.create 2;
  checkb "placement unchanged" true (Placement.allowed p ~task:0 ~machine:0)

(* ----------------- recovery-layer static helpers ------------------- *)

let with_replica_grows_one_set () =
  let p = Placement.singletons ~m:3 [| 0; 1 |] in
  let q = Placement.with_replica p ~task:0 ~machine:2 in
  checkb "replica added" true (Placement.allowed q ~task:0 ~machine:2);
  checkb "original untouched" false (Placement.allowed p ~task:0 ~machine:2);
  checkb "other task shared" true (Placement.set q 1 == Placement.set p 1);
  checki "replication grew" 2 (Placement.replication q 0);
  (* Already a holder: the placement is returned physically unchanged. *)
  checkb "idempotent on holders" true (Placement.with_replica q ~task:0 ~machine:2 == q);
  Alcotest.check_raises "bad task"
    (Invalid_argument "Placement.with_replica: task id") (fun () ->
      ignore (Placement.with_replica p ~task:9 ~machine:0))

let under_replicated_reports_ascending () =
  let p =
    Placement.of_sets ~m:3
      [| Bitset.of_list 3 [ 0; 1 ]; Bitset.singleton 3 2; Bitset.singleton 3 0 |]
  in
  let alive = Bitset.of_list 3 [ 0; 1 ] in
  Alcotest.(check (list int))
    "tasks below r=2 among alive machines" [ 1; 2 ]
    (Placement.under_replicated p ~r:2 ~alive);
  Alcotest.(check (list int))
    "r=1 only flags the dead-data task" [ 1 ]
    (Placement.under_replicated p ~r:1 ~alive);
  Alcotest.(check (list int))
    "r=0 flags nothing" []
    (Placement.under_replicated p ~r:0 ~alive)

let machine_loads_count_replicas () =
  let p =
    Placement.of_sets ~m:3
      [| Bitset.of_list 3 [ 0; 1 ]; Bitset.singleton 3 0 |]
  in
  Alcotest.(check (array int))
    "replica count per machine" [| 2; 1; 0 |] (Placement.machine_loads p)

(* The aggregates against references that probe every (task, machine)
   position with [mem], compared bit for bit. Placements are either
   shared (a few physical sets reused by many tasks, as group
   placements build them) or unshared (one fresh set per task). *)
type topo_kind = Uniform | Two_zone | Free_edged

let topology_of kind ~m rng =
  match kind with
  | Uniform -> Topology.uniform ~m
  | Two_zone ->
      Topology.zoned
        ~latency:(Random.State.float rng 2.0)
        ~m ~zones:(min 2 m)
        ~bandwidth:(0.1 +. Random.State.float rng 10.0)
        ()
  | Free_edged ->
      (* Several zones, but every link is free: cross-zone members cost
         exactly [0 + size/inf]. *)
      let zones = min 3 m in
      Topology.make
        ~zone_of:(Array.init m (fun i -> i * zones / m))
        ~bandwidth:(Array.make_matrix zones zones infinity)
        ~latency:(Array.make_matrix zones zones 0.0)

let random_placement rng ~m ~n ~shared =
  let fresh () =
    let s = Bitset.create m in
    let density = Random.State.float rng 1.0 in
    for i = 0 to m - 1 do
      if Random.State.float rng 1.0 < density then Bitset.add s i
    done;
    if Bitset.is_empty s then Bitset.add s (Random.State.int rng m);
    s
  in
  let sets =
    if shared then begin
      let pool = Array.init (1 + Random.State.int rng 4) (fun _ -> fresh ()) in
      Array.init n (fun _ -> pool.(Random.State.int rng (Array.length pool)))
    end
    else Array.init n (fun _ -> fresh ())
  in
  Placement.of_sets ~m sets

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let arb_case =
  QCheck.(
    quad (int_range 1 130) (int_range 1 60)
      (pair bool (oneofl [ Uniform; Two_zone; Free_edged ]))
      int)

let prop_aggregates_match_reference =
  QCheck.Test.make ~name:"memory_loads/replication_costs match a mem-loop reference"
    ~count:300 arb_case (fun (m, n, (shared, kind), seed) ->
      let rng = Random.State.make [| seed |] in
      let p = random_placement rng ~m ~n ~shared in
      let topology = topology_of kind ~m rng in
      let sizes = Array.init n (fun _ -> Random.State.float rng 50.0) in
      let loads = Array.make m 0.0 in
      let costs = Array.make n 0.0 in
      for j = 0 to n - 1 do
        for i = 0 to m - 1 do
          if Bitset.mem (Placement.set p j) i then begin
            loads.(i) <- loads.(i) +. sizes.(j);
            costs.(j) <-
              costs.(j)
              +. Topology.staging_time topology ~src:(j mod m) ~dst:i
                   ~size:sizes.(j)
          end
        done
      done;
      same_bits (Placement.memory_loads p ~sizes) loads
      && same_bits (Placement.replication_costs p ~topology ~sizes) costs
      && same_bits
           [| Placement.replication_cost p ~topology ~sizes |]
           [| Array.fold_left ( +. ) 0.0 costs |])

let () =
  Alcotest.run "placement"
    [
      ( "unit",
        [
          Alcotest.test_case "singletons" `Quick singletons_basic;
          Alcotest.test_case "full" `Quick full_basic;
          Alcotest.test_case "groups" `Quick group_assignment_basic;
          Alcotest.test_case "empty rejected" `Quick empty_set_rejected;
          Alcotest.test_case "capacity rejected" `Quick capacity_mismatch_rejected;
          Alcotest.test_case "memory loads" `Quick memory_loads_count_every_replica;
          Alcotest.test_case "degrees" `Quick degrees_per_task;
          Alcotest.test_case "memory length check" `Quick memory_sizes_length_checked;
          Alcotest.test_case "sets copy" `Quick sets_are_fresh_array;
        ] );
      ( "machine failure",
        [
          Alcotest.test_case "replication survives" `Quick
            failure_with_replication_survives;
          Alcotest.test_case "no replication is fatal" `Quick
            failure_without_replication_fatal;
          Alcotest.test_case "original untouched" `Quick failure_original_untouched;
          Alcotest.test_case "bad machine id" `Quick failure_bad_machine_rejected;
        ] );
      ( "recovery helpers",
        [
          Alcotest.test_case "with_replica" `Quick with_replica_grows_one_set;
          Alcotest.test_case "under_replicated" `Quick
            under_replicated_reports_ascending;
          Alcotest.test_case "machine_loads" `Quick machine_loads_count_replicas;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_aggregates_match_reference ] );
    ]

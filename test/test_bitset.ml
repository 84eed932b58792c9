(* Unit and property tests for the Bitset substrate. *)

module Bitset = Usched_model.Bitset

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let empty_properties () =
  let s = Bitset.create 100 in
  checki "cardinal" 0 (Bitset.cardinal s);
  checkb "is_empty" true (Bitset.is_empty s);
  check_list "to_list" [] (Bitset.to_list s);
  checki "capacity" 100 (Bitset.capacity s)

let add_mem_remove () =
  let s = Bitset.create 100 in
  Bitset.add s 0;
  Bitset.add s 61;
  Bitset.add s 62;
  Bitset.add s 99;
  checkb "mem 0" true (Bitset.mem s 0);
  checkb "mem 61 (word boundary)" true (Bitset.mem s 61);
  checkb "mem 62 (next word)" true (Bitset.mem s 62);
  checkb "mem 99" true (Bitset.mem s 99);
  checkb "not mem 50" false (Bitset.mem s 50);
  checki "cardinal" 4 (Bitset.cardinal s);
  Bitset.remove s 61;
  checkb "removed" false (Bitset.mem s 61);
  checki "cardinal after remove" 3 (Bitset.cardinal s)

let add_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  Bitset.add s 3;
  checki "no double count" 1 (Bitset.cardinal s)

let out_of_range_rejected () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add 10" (Invalid_argument "Bitset: element out of range")
    (fun () -> Bitset.add s 10);
  Alcotest.check_raises "mem -1" (Invalid_argument "Bitset: element out of range")
    (fun () -> ignore (Bitset.mem s (-1)))

let full_and_singleton () =
  let f = Bitset.full 70 in
  checki "full cardinal" 70 (Bitset.cardinal f);
  checkb "full mem" true (Bitset.mem f 69);
  let s = Bitset.singleton 70 42 in
  checki "singleton cardinal" 1 (Bitset.cardinal s);
  check_list "singleton member" [ 42 ] (Bitset.to_list s);
  checki "choose" 42 (Bitset.choose s)

let choose_empty_raises () =
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (Bitset.choose (Bitset.create 5)))

let next_negative_rejected () =
  Alcotest.check_raises "next below 0"
    (Invalid_argument "Bitset.next: negative start") (fun () ->
      ignore (Bitset.next (Bitset.create 5) (-1)));
  checki "next on an empty capacity" (-1) (Bitset.next (Bitset.create 0) 0)

let iter_ascending () =
  let s = Bitset.of_list 200 [ 150; 3; 77; 0; 199 ] in
  check_list "ascending order" [ 0; 3; 77; 150; 199 ] (Bitset.to_list s)

let fold_sums () =
  let s = Bitset.of_list 10 [ 1; 2; 3 ] in
  checki "fold" 6 (Bitset.fold ( + ) 0 s)

let union_inter () =
  let a = Bitset.of_list 128 [ 1; 64; 100 ] in
  let b = Bitset.of_list 128 [ 64; 100; 2 ] in
  check_list "union" [ 1; 2; 64; 100 ] (Bitset.to_list (Bitset.union a b));
  check_list "inter" [ 64; 100 ] (Bitset.to_list (Bitset.inter a b))

let capacity_mismatch_rejected () =
  let a = Bitset.create 10 and b = Bitset.create 20 in
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.union a b))

let subset_equal () =
  let a = Bitset.of_list 64 [ 1; 2 ] in
  let b = Bitset.of_list 64 [ 1; 2; 3 ] in
  checkb "a subset b" true (Bitset.subset a b);
  checkb "b not subset a" false (Bitset.subset b a);
  checkb "equal self" true (Bitset.equal a a);
  checkb "not equal" false (Bitset.equal a b)

let copy_is_independent () =
  let a = Bitset.of_list 10 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  checkb "original untouched" false (Bitset.mem a 2);
  checkb "copy updated" true (Bitset.mem b 2)

let pp_renders () =
  let s = Bitset.of_list 10 [ 0; 3; 5 ] in
  Alcotest.(check string) "pp" "{0, 3, 5}" (Format.asprintf "%a" Bitset.pp s)

(* Property tests: Bitset behaves exactly like a reference set of ints. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"bitset matches reference model" ~count:200
    QCheck.(pair (int_bound 300) (small_list (int_bound 500)))
    (fun (capacity, raw_ops) ->
      let capacity = capacity + 1 in
      let ops = List.map (fun x -> x mod capacity) raw_ops in
      let s = Bitset.create capacity in
      let reference = Hashtbl.create 16 in
      List.iteri
        (fun i x ->
          if i mod 3 = 2 then begin
            Bitset.remove s x;
            Hashtbl.remove reference x
          end
          else begin
            Bitset.add s x;
            Hashtbl.replace reference x ()
          end)
        ops;
      let expected =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) reference [])
      in
      Bitset.to_list s = expected
      && Bitset.cardinal s = List.length expected)

let prop_union_cardinality =
  QCheck.Test.make ~name:"inclusion-exclusion for union/inter" ~count:200
    QCheck.(pair (small_list (int_bound 99)) (small_list (int_bound 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      Bitset.cardinal (Bitset.union a b) + Bitset.cardinal (Bitset.inter a b)
      = Bitset.cardinal a + Bitset.cardinal b)

(* The word-level scans against a naive reference that probes every
   position with [mem]. Capacities straddle the 62-bit word boundaries;
   densities run from empty to full, so full words and sparse words
   both occur. *)
let capacities = [ 0; 1; 61; 62; 63; 123; 124; 125; 1000 ]
let densities = [ 0.0; 0.01; 0.1; 0.5; 0.9; 0.99; 1.0 ]

let random_set rng ~capacity ~density =
  let s = Bitset.create capacity in
  for i = 0 to capacity - 1 do
    if density >= 1.0 || Random.State.float rng 1.0 < density then Bitset.add s i
  done;
  s

let naive_members s =
  let acc = ref [] in
  for i = Bitset.capacity s - 1 downto 0 do
    if Bitset.mem s i then acc := i :: !acc
  done;
  !acc

let arb_pair =
  QCheck.(
    quad (oneofl capacities) (oneofl densities) (oneofl densities) int)

let prop_kernels_match_naive =
  QCheck.Test.make ~name:"word-level scans match a mem-loop reference"
    ~count:500 arb_pair (fun (capacity, da, db, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = random_set rng ~capacity ~density:da in
      let b = random_set rng ~capacity ~density:db in
      let members = naive_members a in
      let visited = ref [] in
      Bitset.iter (fun i -> visited := i :: !visited) a;
      let common = List.filter (fun i -> Bitset.mem b i) members in
      List.rev !visited = members
      && List.rev (Bitset.fold (fun acc i -> i :: acc) [] a) = members
      && Bitset.to_list a = members
      && (match members with
         | [] -> (try ignore (Bitset.choose a); false with Not_found -> true)
         | first :: _ -> Bitset.choose a = first)
      && Bitset.cardinal a = List.length members
      && Bitset.inter_cardinal a b = List.length common)

(* [next] from every start, including past the capacity, against the
   sorted member list; and an ascending walk that removes each member it
   visits (the engine's lazy worklist) still sees every member once. *)
let prop_next_matches_naive =
  QCheck.Test.make ~name:"next matches a mem-loop reference" ~count:300
    QCheck.(triple (oneofl capacities) (oneofl densities) int)
    (fun (capacity, density, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = random_set rng ~capacity ~density in
      let members = naive_members a in
      let expected i =
        match List.find_opt (fun x -> x >= i) members with
        | Some x -> x
        | None -> -1
      in
      let starts_ok =
        List.for_all
          (fun i -> Bitset.next a i = expected i)
          (List.init (capacity + 64) Fun.id)
      in
      let rec walk acc i =
        let j = Bitset.next a i in
        if j < 0 then List.rev acc
        else begin
          Bitset.remove a j;
          walk (j :: acc) (j + 1)
        end
      in
      starts_ok && walk [] 0 = members && Bitset.is_empty a)

(* Families mix full, empty and random words, so word columns stay
   shared, split early, or split late; weights of wildly different
   magnitudes make any change of summation order visible in the bits. *)
let prop_accumulate_matches_naive =
  QCheck.Test.make ~name:"accumulate matches a mem-loop reference bit for bit"
    ~count:300
    QCheck.(pair (oneofl capacities) int)
    (fun (capacity, seed) ->
      let rng = Random.State.make [| seed |] in
      let pool =
        Array.init
          (1 + Random.State.int rng 4)
          (fun _ ->
            let density = List.nth densities (Random.State.int rng 7) in
            random_set rng ~capacity ~density)
      in
      let n = Random.State.int rng 40 in
      let sets = Array.init n (fun _ -> pool.(Random.State.int rng (Array.length pool))) in
      let weights =
        Array.init n (fun _ ->
            Random.State.float rng 1.0 *. (10.0 ** float_of_int (Random.State.int rng 30 - 15)))
      in
      let naive = Array.make capacity 0.0 in
      Array.iteri
        (fun j set ->
          for i = 0 to capacity - 1 do
            if Bitset.mem set i then naive.(i) <- naive.(i) +. weights.(j)
          done)
        sets;
      Array.for_all2
        (fun f r -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float r))
        (Bitset.accumulate ~capacity sets weights)
        naive)

let accumulate_columns () =
  (* Word 0 stays shared (full or empty in every set); word 1 splits at
     the second set, after the first set's full-word addition. *)
  let full = Bitset.full 124 and half = Bitset.of_list 124 [ 62; 100 ] in
  let sums = Bitset.accumulate ~capacity:124 [| full; half; full |] [| 1.0; 2.0; 4.0 |] in
  Alcotest.(check (float 0.0)) "shared column" 5.0 sums.(0);
  Alcotest.(check (float 0.0)) "split member" 7.0 sums.(100);
  Alcotest.(check (float 0.0)) "split non-member" 5.0 sums.(101);
  Alcotest.(check (array (float 0.0))) "no sets" [| 0.0; 0.0 |]
    (Bitset.accumulate ~capacity:2 [||] [||]);
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset.accumulate: capacity mismatch") (fun () ->
      ignore (Bitset.accumulate ~capacity:123 [| full |] [| 1.0 |]))

let () =
  Alcotest.run "bitset"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick empty_properties;
          Alcotest.test_case "add/mem/remove" `Quick add_mem_remove;
          Alcotest.test_case "add idempotent" `Quick add_idempotent;
          Alcotest.test_case "range checks" `Quick out_of_range_rejected;
          Alcotest.test_case "full and singleton" `Quick full_and_singleton;
          Alcotest.test_case "choose empty" `Quick choose_empty_raises;
          Alcotest.test_case "next range" `Quick next_negative_rejected;
          Alcotest.test_case "iteration order" `Quick iter_ascending;
          Alcotest.test_case "fold" `Quick fold_sums;
          Alcotest.test_case "union/inter" `Quick union_inter;
          Alcotest.test_case "capacity mismatch" `Quick capacity_mismatch_rejected;
          Alcotest.test_case "subset/equal" `Quick subset_equal;
          Alcotest.test_case "copy independence" `Quick copy_is_independent;
          Alcotest.test_case "pretty printing" `Quick pp_renders;
          Alcotest.test_case "accumulate columns" `Quick accumulate_columns;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_reference;
            prop_union_cardinality;
            prop_kernels_match_naive;
            prop_next_matches_naive;
            prop_accumulate_matches_naive;
          ] );
    ]

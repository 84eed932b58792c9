(* Allocation regression gates for the zero-alloc refactor, measured
   with [Gc.minor_words] directly — the same probes behind the bench
   table, but as hard test assertions.

   The load-bearing trick: every full-length array the engines and
   packers allocate per run (n tasks and beyond) exceeds the minor-heap
   young size, so it lands in the major heap and is invisible to
   [Gc.minor_words]. A minor-word count that does NOT grow with n is
   therefore exactly the claim "the hot loop allocates nothing per
   task": per-run setup (closures, the policy value, the heap record)
   may cost a bounded constant, but the per-event path must be free.

   Each measurement warms up twice (first calls grow heap capacity,
   trigger lazy setup) and takes the minimum over three runs so a GC
   hiccup cannot fail the gate spuriously. *)

module Engine = Usched_desim.Engine
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Topology = Usched_model.Topology
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Rng = Usched_prng.Rng
module Multifit = Usched_core.Multifit
module Assign = Usched_core.Assign
module Fsort = Usched_core.Fsort

let m = 32

let measure f =
  ignore (Sys.opaque_identity (f ()));
  ignore (Sys.opaque_identity (f ()));
  let best = ref infinity in
  for _ = 1 to 3 do
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    let after = Gc.minor_words () in
    if after -. before < !best then best := after -. before
  done;
  !best

let setup ~shared n =
  let rng = Rng.create ~seed:(7 * n) () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ests in
  let realization = Realization.uniform_factor instance rng in
  let placement =
    if shared then Array.make n (Bitset.full m)
      (* one physical holder set: the bucketed default policy *)
    else
      Array.init n (fun j ->
          Bitset.of_list m [ j mod m; (j + 1) mod m ])
      (* n distinct sets: overflows the bucket cap, the plain cursors *)
  in
  let order = Instance.lpt_order instance in
  (instance, realization, placement, order, rng)

(* Healthy engine, metrics and tracing off: the per-run minor-word
   count must be independent of n — zero words per task — and small in
   absolute terms, for both default-policy variants. *)
let healthy_is_allocation_free () =
  List.iter
    (fun (label, shared) ->
      let words n =
        let instance, realization, placement, order, _ = setup ~shared n in
        measure (fun () -> Engine.run instance realization ~placement ~order)
      in
      let w2 = words 2000 and w4 = words 4000 in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: minor words independent of n" label)
        w2 w4;
      Alcotest.(check bool)
        (Printf.sprintf "%s: per-run constant under 4096 words (got %.0f)"
           label w2)
        true (w2 <= 4096.0))
    [ ("bucketed list-priority", true); ("plain list-priority", false) ]

(* The same under a four-zone topology: cross-zone copies pay a staging
   pull, and the per-task record of which machines hold a task's data
   warm must not cost an allocation per task when every task starts
   once. *)
let zoned_is_allocation_free () =
  let topology = Topology.zoned ~m ~zones:4 ~bandwidth:10.0 () in
  let words n =
    let instance, realization, placement, order, _ = setup ~shared:false n in
    let instance = Instance.with_topology instance (Some topology) in
    measure (fun () -> Engine.run instance realization ~placement ~order)
  in
  let w2 = words 2000 and w4 = words 4000 in
  Alcotest.(check (float 0.0)) "zoned: minor words independent of n" w2 w4;
  Alcotest.(check bool)
    (Printf.sprintf "zoned: per-run constant under 4096 words (got %.0f)" w2)
    true (w2 <= 4096.0)

(* The faulty engine's epilogue materializes one [Finished] fate per
   task (a boxed entry), so per-run minor words grow with n — but the
   slope must stay a small constant, not the old per-event record and
   option churn. Measured slope is ~14 words/task bare and ~27 with
   recovery + speculation; the gate allows 64. *)
let faulty_slope_is_bounded () =
  let words ~recover n =
    let instance, realization, placement, order, rng = setup ~shared:true n in
    let faults =
      Trace.merge
        (Trace.random_outages rng ~m ~p:0.5 ~horizon:40.0 ~duration:(0.5, 3.0))
        (Trace.random_slowdowns rng ~m ~p:0.5 ~horizon:40.0 ~factor:(0.3, 0.9))
    in
    measure (fun () ->
        if recover then
          Engine.run_faulty ~speculation:1.5
            ~recovery:
              (Recovery.make ~detection_latency:0.5
                 ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0
                 ~checkpoint_interval:1.0 ~max_retries:2 ())
            instance realization ~faults ~placement ~order
        else Engine.run_faulty instance realization ~faults ~placement ~order)
  in
  List.iter
    (fun (label, recover) ->
      let w2 = words ~recover 2000 and w4 = words ~recover 4000 in
      let slope = (w4 -. w2) /. 2000.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: slope %.1f words/task under 64" label slope)
        true (slope <= 64.0))
    [ ("bare faults", false); ("recovery + speculation", true) ]

(* A speculating stream: tasks arrive one by one (so the run goes
   through the arrival path, not the batch start), each on two holders,
   and the straggler checks fire throughout. The per-check backup search
   and the idle machines' candidate walks must not allocate per task;
   what grows with n is the outcome's per-task fates, as in the faulty
   gate above, and each speculative race's short copy lists, under the
   same 64-word bound (measured: 35.5 words/task). *)
let stream_speculation_slope_is_bounded () =
  let run n ?metrics () =
    let instance, realization, placement, order, _ = setup ~shared:false n in
    let arrivals = Array.init n (fun j -> 0.4 *. float_of_int j) in
    fun () ->
      Engine.run_stream ~speculation:1.2 ?metrics instance realization
        ~arrivals ~placement ~order
  in
  let metrics = Metrics.create () in
  ignore (run 2000 ~metrics () ());
  let spec_starts =
    match Metrics.find (Metrics.snapshot metrics) "engine.spec_starts" with
    | Some (Metrics.Counter c) -> c
    | _ -> 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "speculation fires (%d backup copies)" spec_starts)
    true (spec_starts > 0);
  let w2 = measure (run 2000 ()) and w4 = measure (run 4000 ()) in
  let slope = (w4 -. w2) /. 2000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "stream + speculation: slope %.1f words/task under 64"
       slope)
    true (slope <= 64.0)

(* The packers: multifit's bisection must not allocate per task beyond
   its one index sort (the old version burned 21.7M minor words at
   n=10k, m=100 — the gate pins the rewrite two orders of magnitude
   below that), and the list-assignment heap loop must be constant. *)
let packers_are_allocation_free () =
  let n = 10_000 and mm = 100 in
  let rng = Rng.create ~seed:42 () in
  let p = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let mf = measure (fun () -> Multifit.schedule ~m:mm p) in
  Alcotest.(check bool)
    (Printf.sprintf "multifit n=10k under 300k minor words (got %.0f)" mf)
    true (mf <= 300_000.0);
  let order = Assign.decreasing_order p in
  let la = measure (fun () -> Assign.list_assign ~m:mm ~order ~weights:p) in
  Alcotest.(check bool)
    (Printf.sprintf "list_assign n=10k under 4096 minor words (got %.0f)" la)
    true (la <= 4096.0);
  let scratch = Array.copy p in
  let fs =
    measure (fun () ->
        Array.blit p 0 scratch 0 n;
        Fsort.descending scratch)
  in
  Alcotest.(check bool)
    (Printf.sprintf "Fsort.descending n=10k under 64 minor words (got %.0f)"
       fs)
    true (fs <= 64.0)

let () =
  Alcotest.run "zero_alloc"
    [
      ( "engine",
        [
          Alcotest.test_case "healthy loop allocates nothing per task" `Quick
            healthy_is_allocation_free;
          Alcotest.test_case "zoned run allocates nothing per task" `Quick
            zoned_is_allocation_free;
          Alcotest.test_case "faulty slope bounded" `Quick
            faulty_slope_is_bounded;
          Alcotest.test_case "speculating stream slope bounded" `Quick
            stream_speculation_slope_is_bounded;
        ] );
      ( "packers",
        [
          Alcotest.test_case "multifit and list-assign" `Quick
            packers_are_allocation_free;
        ] );
    ]

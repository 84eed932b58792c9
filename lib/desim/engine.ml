(* The phase-2 engine, as a thin composition of the desim layers:

   - [Event_core] / [Event_heap]: the typed event loop (struct-of-arrays
     4-ary heap) and the simultaneous-event ordering contract;
   - [Dispatch]: the pluggable policy deciding which eligible task an
     idle machine starts, and the re-dispatch order of machines freed
     at the same instant.

   What remains here is the per-machine state (flat lanes allocated at
   set-up) and the physics: what a crash, outage, slowdown,
   completion, transfer, checkpoint, or speculation event does to the
   shared task state, and the observability taps around it. One event
   loop ([simulate]) serves all six entry points; the healthy [run] is
   that loop on an empty trace, and each entry point only shapes its
   result.

   The loop allocates nothing on the minor heap when metrics and
   tracing are off: event payload data rides the heap's integer [aux]
   lanes instead of boxed constructor arguments, the simulation clock
   lives in a shared one-cell float array that handlers and the policy
   read instead of passing a (boxed) float across calls, trace events
   are constructed only under an [if tr] guard, and per-task /
   per-machine state is flat arrays whose full-length allocations land
   in the major heap. A per-task lane that only speculation, faults,
   recovery, arrivals or a topology can read is allocated only when
   that input is present.

   No handler walks all n tasks per event. Speculation and healing keep
   small ordered sets (bitsets walked with [Bitset.next]) that the
   handlers update as tasks change state: an idle machine's backup
   search visits only the running tasks whose straggler check fired, in
   priority order, for O(⌈n/62⌉ + candidates) per decision; the healer
   visits only its worklist, in task-id order, for
   O(⌈n/62⌉ + |worklist|·m) per pass. Only a crash and its detection
   still scan every task (aborting transfers, re-marking the worklist,
   stranding). *)

module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Topology = Usched_model.Topology
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Json = Usched_report.Json

type event =
  | Arrived of { time : float; task : int }
  | Started of { time : float; machine : int; task : int }
  | Completed of { time : float; machine : int; task : int }
  | Killed of { time : float; machine : int; task : int }
  | Cancelled of { time : float; machine : int; task : int }
  | Machine_crashed of { time : float; machine : int }
  | Machine_down of { time : float; machine : int; until : float }
  | Machine_up of { time : float; machine : int }
  | Machine_slowed of { time : float; machine : int; factor : float }
  | Failure_detected of { time : float; machine : int }
  | Rereplication_started of { time : float; task : int; src : int; dst : int }
  | Rereplication_completed of {
      time : float;
      task : int;
      src : int;
      dst : int;
    }
  | Rereplication_aborted of { time : float; task : int; src : int; dst : int }
  | Checkpoint_resumed of {
      time : float;
      machine : int;
      task : int;
      progress : float;
    }

exception Unschedulable of int list

let check_inputs ?speeds ~name instance ~placement ~order =
  let n = Instance.n instance and m = Instance.m instance in
  (match speeds with
  | None -> ()
  | Some s ->
      if Array.length s <> m then
        invalid_arg (Printf.sprintf "%s: speeds length differs from machine count" name);
      Array.iter
        (fun v ->
          if not (v > 0.0) then
            invalid_arg (Printf.sprintf "%s: speeds must be > 0" name))
        s);
  if Array.length placement <> n then
    invalid_arg (Printf.sprintf "%s: placement length differs from instance" name);
  Array.iteri
    (fun j set ->
      if Bitset.capacity set <> m then
        invalid_arg (Printf.sprintf "%s: placement of task %d has wrong capacity" name j);
      if Bitset.is_empty set then
        invalid_arg (Printf.sprintf "%s: task %d is placed nowhere" name j))
    placement;
  if Array.length order <> n then
    invalid_arg (Printf.sprintf "%s: order length differs from instance" name);
  let seen = Array.make n false in
  Array.iter
    (fun j ->
      if j < 0 || j >= n || seen.(j) then
        invalid_arg (Printf.sprintf "%s: order is not a permutation of task ids" name);
      seen.(j) <- true)
    order

let inverse_order ~n order =
  let pos_of = Array.make n 0 in
  Array.iteri (fun pos j -> pos_of.(j) <- pos) order;
  pos_of

type fate =
  | Finished of Schedule.entry
  | Stranded

type outcome = {
  fates : fate array;
  completed : int;
  stranded : int list;
  makespan : float;
  wasted : float;
  metrics : Metrics.snapshot;
}

let outcome_schedule ~m outcome =
  if outcome.stranded <> [] then None
  else
    Some
      (Schedule.make ~m
         (Array.map
            (function Finished e -> e | Stranded -> assert false)
            outcome.fates))

let utilization ~m ~actuals outcome =
  let drain = outcome.makespan in
  if drain > 0.0 then begin
    let work = ref outcome.wasted in
    Array.iteri
      (fun j fate ->
        match fate with
        | Finished _ -> work := !work +. actuals.(j)
        | Stranded -> ())
      outcome.fates;
    !work /. (float_of_int m *. drain)
  end
  else 0.0

(* Task status as unboxed small ints — comparing these never calls the
   polymorphic equality the old variant type did. *)
let st_pending = 0
let st_running = 1
let st_done = 2
let st_lost = 3

(* Simulation event payloads; [Event_core] classes rank simultaneous
   events on one machine: faults (and failure detections) strike before
   completions (and data-transfer arrivals), completions before dispatch
   decisions, speculation checks last.

   The per-event integer data rides the heap's [aux]/[aux2] lanes, so
   the hot constructors are constant (no allocation per push):
   [Sim_arrive] carries its task in [aux], [Sim_complete] its generation
   in [aux], [Sim_speculate] its task in [aux] and generation in
   [aux2]. Only the rare setup/recovery events keep boxed payloads. *)
type sim =
  | Sim_fault of Fault.kind
  | Sim_up
  | Sim_detect
  | Sim_arrive  (** task in [aux] *)
  | Sim_complete  (** machine generation in [aux] *)
  | Sim_transfer of { task : int; src : int; dst : int; id : int }
  | Sim_dispatch
  | Sim_speculate  (** task in [aux], task generation in [aux2] *)

(* Remove the first occurrence of machine [i] — machines appear at most
   once in a copies list, so this matches [List.filter ((<>) i)]
   without allocating a closure per call. *)
let rec remove_machine i = function
  | [] -> []
  | k :: rest -> if k = i then rest else k :: remove_machine i rest

(* What one simulation leaves behind, before an entry point shapes it
   into a schedule or an outcome: per-task status, the completion lanes
   as a schedule (unfinished tasks read machine 0 over [0, 0]), the run
   totals, and the registry to snapshot. *)
type result = {
  status : int array;
  schedule : Schedule.t;
  n_done : int;
  lost : int list;
  span : float;
  waste : float;
  registry : Metrics.t;
}

(* The one event loop behind every entry point. [faults = None] is the
   healthy run of {!run}: it reports errors under that name and
   registers only the healthy instruments. *)
let simulate ?speeds ?speculation ?(dispatch = Dispatch.default)
    ?(recovery = Recovery.none) ?(metrics = Metrics.disabled) ?faults
    ?arrivals ?emit instance realization ~placement ~order =
  let name =
    if Option.is_none faults then "Engine.run" else "Engine.run_faulty"
  in
  check_inputs ?speeds ~name instance ~placement ~order;
  let n = Instance.n instance and m = Instance.m instance in
  let fault_events =
    match faults with
    | None -> []
    | Some f ->
        if Trace.m f <> m then
          invalid_arg
            "Engine.run_faulty: trace machine count differs from instance";
        Trace.events f
  in
  (match arrivals with
  | None -> ()
  | Some arr ->
      if Array.length arr <> n then
        invalid_arg "Engine.run_stream: arrivals length differs from instance";
      Array.iter
        (fun t ->
          if not (Float.is_finite t && t >= 0.0) then
            invalid_arg
              "Engine.run_stream: arrival times must be finite and >= 0")
        arr);
  (match speculation with
  | Some beta when not (beta > 0.0) ->
      invalid_arg "Engine.run_faulty: speculation factor must be > 0"
  | _ -> ());
  let tr, emit = match emit with None -> (false, ignore) | Some f -> (true, f) in
  let spec_on = match speculation with Some _ -> true | None -> false in
  let spec_beta = match speculation with Some b -> b | None -> 0.0 in
  let streaming = match arrivals with Some _ -> true | None -> false in
  (* Only a fault event can kill or slow a running copy, and only
     speculation can run a task twice at once. *)
  let contended =
    spec_on || match fault_events with [] -> false | _ :: _ -> true
  in
  (* A per-task lane only some input can ever read: allocated when that
     input is present and empty otherwise, because n-length lanes a
     healthy run never reads still cost it measurable time. *)
  let lane needed x = if needed then Array.make n x else [||] in
  (* [Recovery.none] is recognized physically: the engine then runs the
     exact pre-recovery code path (same branches, same float operations,
     same event sequence numbers), which the golden qcheck property in
     test_recovery checks bit-for-bit against a structurally-neutral
     active policy. *)
  let rec_active = Recovery.is_active recovery in
  let det_latency = recovery.Recovery.detection_latency in
  (* The live-replica target is per task: [Fixed r] heals everything
     toward the same count (constant function — bit-for-bit the old
     fixed-degree arithmetic), [Degree] toward the replication degree
     phase 1 originally gave each task, captured here before any fault
     or transfer mutates the working sets. *)
  let heals = Recovery.heals recovery in
  let target_of =
    match recovery.Recovery.rereplication_target with
    | Recovery.Fixed r -> fun _ -> r
    | Recovery.Degree ->
        let degree = Array.map Bitset.cardinal placement in
        fun j -> degree.(j)
  in
  let ckpt_interval = recovery.Recovery.checkpoint_interval in
  (* Observability. Every update is guarded (a disabled registry hands
     out no-op instruments), and nothing below reads a metric back, so
     the run is bit-for-bit identical with metrics on or off. Handles
     register on creation, so an instrument its entry point can never
     move comes from the disabled registry and stays out of the
     snapshot: fault counters only when a trace was given, streaming
     ones only in streaming runs. *)
  let live = Metrics.is_enabled metrics in
  let mc_events = Metrics.counter metrics "engine.events" in
  let mc_dispatches = Metrics.counter metrics "engine.dispatches" in
  let mg_queue = Metrics.gauge metrics "engine.queue_depth_max" in
  let mg_makespan = Metrics.gauge metrics "engine.makespan" in
  let mh_idle = Metrics.histogram metrics "engine.machine_idle" in
  let fault_metrics =
    if Option.is_some faults then metrics else Metrics.disabled
  in
  let mc_redispatches = Metrics.counter fault_metrics "engine.redispatches" in
  let mc_spec_starts = Metrics.counter fault_metrics "engine.spec_starts" in
  let mc_spec_cancelled =
    Metrics.counter fault_metrics "engine.spec_cancelled"
  in
  let mc_kills = Metrics.counter fault_metrics "engine.kills" in
  let mc_crashes = Metrics.counter fault_metrics "engine.crashes" in
  let mc_outages = Metrics.counter fault_metrics "engine.outages" in
  let mc_slowdowns = Metrics.counter fault_metrics "engine.slowdowns" in
  let mc_completed = Metrics.counter fault_metrics "engine.completed" in
  let mc_stranded = Metrics.counter fault_metrics "engine.stranded" in
  let mg_wasted = Metrics.gauge fault_metrics "engine.wasted_work" in
  let arr = match arrivals with Some a -> a | None -> [||] in
  let stream_metrics = if streaming then metrics else Metrics.disabled in
  let mc_arrivals = Metrics.counter stream_metrics "engine.arrivals" in
  let mh_latency = Metrics.histogram stream_metrics "engine.latency" in
  let busy = if live then Array.make m 0.0 else [||] in
  (* Bulk copies land in the major heap; per-element [Array.init]
     through a closure would box every returned float. The [est] fill
     inlines to unboxed loads. *)
  let actuals = Realization.actuals realization in
  let ests = Array.make n 0.0 in
  for j = 0 to n - 1 do
    ests.(j) <- Instance.est instance j
  done;
  let topo = Instance.topology instance in
  (* Sizes price staging and transfers; nothing else reads them. *)
  let sizes =
    if Option.is_some topo || rec_active then Instance.sizes instance else [||]
  in
  (* Staging: with a topology, the first copy of task j on each machine
     pulls j's data from its home machine [j mod m] before processing
     starts. The pull is charged as extra work on the copy (staging
     time converted to work units at the machine's current speed), so
     all the slowdown-resync and checkpoint arithmetic below stays
     consistent without special cases. A machine that already holds j's
     data warm — a checkpoint resume, a landed re-replication transfer —
     never pays twice: [warm.(j)] is the first such machine (-1: none)
     and [warm_more] holds every further (task, machine) pair, so a run
     that starts every task once allocates nothing per task. Without a
     topology every float operation below is exactly the pre-topology
     engine's, and a single-zone topology charges identically zero —
     the golden qcheck pins both. [stage] receives the staging time from
     {!Topology.staging_into}: a float returned across a module boundary
     would be boxed. *)
  let stage = Array.make 1 0.0 in
  let warm = lane (Option.is_some topo) (-1) in
  let warm_more = Hashtbl.create 16 in
  let is_warm j i =
    warm.(j) = i || (warm.(j) >= 0 && Hashtbl.mem warm_more ((j * m) + i))
  in
  let mark_warm j i =
    if warm.(j) < 0 then warm.(j) <- i
    else if warm.(j) <> i then Hashtbl.replace warm_more ((j * m) + i) ()
  in
  (* Struct-of-arrays machine state: flat int/float lanes of length m
     (major heap for any non-toy instance, so mutating them never
     touches the minor allocator), indexed directly by every handler.
     Options are sentinel values: [cur_task = -1] is an idle machine,
     [orphan = -1] / [ckpt_task = -1] nothing, [undetected = nan] no
     pending failure. Recovery lanes keep their initial values
     throughout under [Recovery.none]. *)
  let base =
    match speeds with None -> Array.make m 1.0 | Some s -> Array.copy s
  in
  let alive = Array.make m true in
  let down_until = Array.make m 0.0 (* unavailable while now < this *) in
  let factor = Array.make m 1.0 (* straggler speed multiplier *) in
  let gen = Array.make m 0 (* invalidates queued completion events *) in
  (* The in-flight copy. *)
  let cur_task = Array.make m (-1) in
  let cur_started = Array.make m 0.0 in
  let cur_remaining = Array.make m 0.0 (* actual-time work left *) in
  let cur_last = Array.make m 0.0 (* when cur_remaining was synced *) in
  let cur_base = Array.make m 0.0 (* work resumed from a checkpoint *) in
  (* Recovery bookkeeping. *)
  let orphan = Array.make m (-1) (* killed, undetected copy's task *) in
  let undetected = Array.make m Float.nan (* earliest undetected failure *) in
  let blinks = Array.make m 0 (* outages so far, drives backoff *) in
  let trust_after = Array.make m 0.0 (* no dispatches before this *) in
  let ckpt_task = Array.make m (-1) (* checkpointed task on local disk *) in
  let ckpt_work = Array.make m 0.0 (* work banked by that checkpoint *) in
  let alive_set = Bitset.full m in
  (* The simulation clock: a one-cell float array the loop stores the
     current event time into. Handlers and the dispatch policy read it
     from here, so no float crosses a call boundary (boxed) per event. *)
  let now = Array.make 1 0.0 in
  let available i = alive.(i) && down_until.(i) <= now.(0) in
  let idle i = available i && cur_task.(i) < 0 in
  (* Lowest-numbered available / idle member of a holder set from [i]
     on (-1: none), walked with [Bitset.next] so the search allocates
     nothing. *)
  let rec available_holder set i =
    let i = Bitset.next set i in
    if i < 0 || available i then i else available_holder set (i + 1)
  in
  let rec idle_holder set i =
    let i = Bitset.next set i in
    if i < 0 || idle i then i else idle_holder set (i + 1)
  in
  let status = Array.make n st_pending in
  (* In a streaming run a task is invisible to the scheduler until its
     arrival fires; batch runs behave as if everything arrived at t=0. *)
  let arrived = lane streaming false in
  let dispatchable = Array.make n (not streaming) in
  let set_status j s =
    status.(j) <- s;
    dispatchable.(j) <- s = st_pending && ((not streaming) || arrived.(j))
  in
  (* The machines running a copy of each task, newest first, split into
     an unboxed head lane ([-1] = no copies) plus a spill list that is
     only ever non-empty under speculation. The single-copy common case
     therefore never conses. Only a contended run reads any of this. *)
  let copies_head = lane contended (-1) in
  let copies_tail = lane contended ([] : int list) in
  let task_gen = lane contended 0 in
  (* Speculation candidates: the priority positions of the tasks whose
     straggler check has fired on their current run — added by
     [on_speculate], removed when the task returns to the pool or
     completes. An idle machine's backup search walks these members
     only, in priority order, instead of every task. *)
  let pos_of = inverse_order ~n order in
  let spec_cand = Bitset.create (if contended then n else 0) in
  (* Who holds each task's data *now*. Under an active policy transfers
     grow these sets mid-run, so they are private copies; under
     [Recovery.none] they are the placement arrays themselves and never
     change. All holder-semantics reads below go through [data]. *)
  let data =
    if rec_active then Array.map Bitset.copy placement else placement
  in
  (* In-flight re-replication per task: (src, dst, id). The id guards
     against stale [Sim_transfer] deliveries after an abort. *)
  let transfer = lane rec_active (None : (int * int * int) option) in
  let transfer_none j =
    (not rec_active) || match transfer.(j) with None -> true | Some _ -> false
  in
  let transfer_id = ref 0 in
  (* Replicas stored on (or reserved for) each machine: the healer's
     least-loaded destination choice. *)
  let replica_load = Array.make m 0 in
  if rec_active then
    Array.iter
      (Bitset.iter (fun i -> replica_load.(i) <- replica_load.(i) + 1))
      data;
  let e_machine = Array.make n 0 in
  let e_start = Array.make n 0.0 in
  let e_finish = Array.make n 0.0 in
  (* One-cell float arrays, not [float ref]s: storing into a float array
     is unboxed, [:=] on a float ref allocates the new box per store.
     Completions fire in time order, so the latest is the makespan. *)
  let wasted = Array.make 1 0.0 in
  let makespan = Array.make 1 0.0 in
  let completed = ref 0 in
  let loads = Array.make m 0.0 in
  let policy =
    Dispatch.make dispatch
      {
        Dispatch.n;
        m;
        order;
        pos_of;
        dispatchable;
        holders = data;
        est = ests;
        speed = base;
        load = loads;
        now;
        available;
        holders_stable = not rec_active;
        topology = topo;
        size = sizes;
      }
  in
  (* [dummy] only fills empty heap slots; every push overwrites it. *)
  let queue = Event_core.create ~dummy:Sim_complete () in
  let record_depth () =
    if live then
      Metrics.record_max mg_queue (float_of_int (Event_core.length queue))
  in
  let push ~time ~machine ~cls sim =
    Event_core.push queue ~time ~machine ~cls sim;
    record_depth ()
  in
  (* The hot pushes whose time is computed here reserve a heap slot,
     store the time (and aux data) straight into its lanes, then
     [commit] it: a float passed to [push] is boxed per call. *)
  let reserve ~machine ~cls sim =
    let s = Event_heap.alloc queue in
    queue.Event_heap.machines.(s) <- machine;
    queue.Event_heap.classes.(s) <- cls;
    queue.Event_heap.payloads.(s) <- sim;
    s
  in
  let commit s =
    Event_heap.sift_up queue s;
    record_depth ()
  in
  (* The completion of machine [i]'s copy at its current speed. *)
  let push_completion i =
    let s = reserve ~machine:i ~cls:Event_core.cls_arrival Sim_complete in
    queue.Event_heap.times.(s) <-
      now.(0) +. (cur_remaining.(i) /. (base.(i) *. factor.(i)));
    queue.Event_heap.aux.(s) <- gen.(i);
    commit s
  in
  for i = 0 to m - 1 do
    push ~time:0.0 ~machine:i ~cls:Event_core.cls_decision Sim_dispatch
  done;
  List.iter
    (fun (e : Fault.event) ->
      push ~time:e.Fault.time ~machine:e.Fault.machine ~cls:Event_core.cls_fault
        (Sim_fault e.Fault.kind))
    fault_events;
  (* Arrivals ride the virtual source "machine" -1: at an equal instant
     they strike before every per-machine event, so a stream whose
     arrivals all land at t=0 sees the whole workload before the first
     dispatch decision — exactly the batch engine's starting state. *)
  for j = 0 to Array.length arr - 1 do
    let s = reserve ~machine:(-1) ~cls:Event_core.cls_arrival Sim_arrive in
    queue.Event_heap.times.(s) <- arr.(j);
    queue.Event_heap.aux.(s) <- j;
    commit s
  done;
  let wake_idle () =
    for i = 0 to m - 1 do
      if idle i then begin
        let s = reserve ~machine:i ~cls:Event_core.cls_decision Sim_dispatch in
        queue.Event_heap.times.(s) <- now.(0);
        commit s
      end
    done
  in
  (* A task arrives: it becomes visible to the scheduler and, if still
     alive (early faults may have stranded it before it even showed up),
     joins the dispatch pool. *)
  let on_arrive j =
    arrived.(j) <- true;
    Metrics.incr mc_arrivals;
    if tr then emit (Arrived { time = now.(0); task = j });
    if status.(j) = st_pending then begin
      dispatchable.(j) <- true;
      Dispatch.notify_available policy ~task:j;
      wake_idle ()
    end
  in
  (* Online re-replication: copy every under-replicated task's data from
     its lowest-numbered available holder to the least-loaded available
     non-holder, one transfer per task at a time. Transfers survive
     outages of either endpoint (the stream is buffered; the data lands
     on the destination disk) but abort when an endpoint crashes. The
     transfer time is path-dependent: cross-zone copies add the zone
     link's latency and are capped by its bandwidth ([None]/single-zone
     reduce to the scalar [size / bandwidth], bit-for-bit). *)
  let transfer_duration ~src ~dst j =
    Recovery.transfer_time ?topology:topo recovery ~src ~dst ~size:sizes.(j)
  in
  (* The heal worklist: every task the healer could still act on, in
     task-id order. It starts full; a task re-enters when a crash leaves
     it under target, or its transfer aborts or lands, and leaves inside
     [heal] once it is done or lost, has a transfer in flight, or has
     [target] live holders — none of which changes back without one of
     the re-entering events. *)
  let worklist = if heals then Bitset.full n else Bitset.create 0 in
  let heal_task j =
    if status.(j) > st_running || not (transfer_none j) then
      Bitset.remove worklist j
    else
      let nlive = Bitset.inter_cardinal alive_set data.(j) in
      if nlive >= target_of j then Bitset.remove worklist j
      else if nlive >= 1 then begin
        let src = available_holder data.(j) 0 in
        if src >= 0 then begin
          let dst = ref (-1) and best = ref max_int in
          for i = 0 to m - 1 do
            if
              available i
              && (not (Bitset.mem data.(j) i))
              && replica_load.(i) < !best
            then begin
              dst := i;
              best := replica_load.(i)
            end
          done;
          if !dst >= 0 then begin
            let time = now.(0) in
            incr transfer_id;
            transfer.(j) <- Some (src, !dst, !transfer_id);
            replica_load.(!dst) <- replica_load.(!dst) + 1;
            Bitset.remove worklist j;
            if tr then
              emit (Rereplication_started { time; task = j; src; dst = !dst });
            push
              ~time:(time +. transfer_duration ~src ~dst:!dst j)
              ~machine:!dst ~cls:Event_core.cls_arrival
              (Sim_transfer { task = j; src; dst = !dst; id = !transfer_id })
          end
        end
      end
  in
  let rec heal_from j =
    let j = Bitset.next worklist j in
    if j >= 0 then begin
      heal_task j;
      heal_from (j + 1)
    end
  in
  let heal () = if heals then heal_from 0 in
  (* Machine [x]'s disk is gone: every transfer touching it aborts, and
     every live task it held that is now under target goes back on the
     worklist. The marking happens here, at the crash, not in
     [strand_scan]: under a detection latency the healer may act on the
     lost holder before the failure is known. Testing the target here
     rather than in [heal] keeps a well-replicated task off the
     worklist when one of its many holders dies. *)
  let disk_lost x =
    for j = 0 to n - 1 do
      if
        heals
        && status.(j) <= st_running
        && Bitset.mem data.(j) x
        && Bitset.inter_cardinal alive_set data.(j) < target_of j
      then Bitset.add worklist j;
      match transfer.(j) with
      | Some (src, dst, _) when src = x || dst = x ->
          transfer.(j) <- None;
          replica_load.(dst) <- replica_load.(dst) - 1;
          Bitset.add worklist j;
          if tr then
            emit (Rereplication_aborted { time = now.(0); task = j; src; dst });
          Metrics.incr (Metrics.counter fault_metrics "engine.transfer_aborts")
      | _ -> ()
    done
  in
  (* Start a copy of task [j] on machine [i] — from scratch, or from the
     checkpoint of [j] on [i]'s disk when [resume]. *)
  let start_copy ~resume i j =
    let time = now.(0) in
    let banked = if resume then ckpt_work.(i) else 0.0 in
    cur_task.(i) <- j;
    cur_started.(i) <- time;
    cur_remaining.(i) <- (if resume then actuals.(j) -. banked else actuals.(j));
    (match topo with
    | None -> ()
    | Some tp ->
        if not (is_warm j i) then begin
          mark_warm j i;
          Topology.staging_into tp ~src:(j mod m) ~dst:i ~size:sizes j stage;
          (* Charged as work at the current speed so a later slowdown
             resync rescales the in-flight pull along with the copy. *)
          if stage.(0) > 0.0 then
            cur_remaining.(i) <-
              cur_remaining.(i) +. (stage.(0) *. (base.(i) *. factor.(i)))
        end);
    cur_last.(i) <- time;
    cur_base.(i) <- banked;
    gen.(i) <- gen.(i) + 1;
    let was_primary = (not contended) || copies_head.(j) < 0 in
    if contended then begin
      if not was_primary then
        copies_tail.(j) <- copies_head.(j) :: copies_tail.(j);
      copies_head.(j) <- i
    end;
    set_status j st_running;
    loads.(i) <- loads.(i) +. ests.(j);
    Metrics.incr mc_dispatches;
    if was_primary then begin
      if contended && task_gen.(j) > 0 then Metrics.incr mc_redispatches
    end
    else Metrics.incr mc_spec_starts;
    if tr then emit (Started { time; machine = i; task = j });
    if resume then begin
      ckpt_task.(i) <- -1;
      if tr then
        emit
          (Checkpoint_resumed { time; machine = i; task = j; progress = banked });
      Metrics.incr (Metrics.counter fault_metrics "engine.checkpoint_resumes")
    end;
    push_completion i;
    if spec_on && was_primary then begin
      (* Arm the straggler check from estimates only: the scheduler is
         semi-clairvoyant and must not peek at actual times. *)
      let expected = ests.(j) /. base.(i) in
      let s = reserve ~machine:i ~cls:Event_core.cls_audit Sim_speculate in
      queue.Event_heap.times.(s) <- time +. (spec_beta *. expected);
      queue.Event_heap.aux.(s) <- j;
      queue.Event_heap.aux2.(s) <- task_gen.(j);
      commit s
    end
  in
  (* Return a copy-less task to the scheduler's pool — or declare it
     [Lost] when no live machine holds its data and no transfer is
     carrying it out. Under a detection latency this is what gets
     deferred until the failure becomes known. *)
  let release_task j =
    task_gen.(j) <- task_gen.(j) + 1;
    Bitset.remove spec_cand pos_of.(j);
    if Bitset.inter_is_empty alive_set data.(j) && transfer_none j then
      set_status j st_lost
    else begin
      set_status j st_pending;
      Dispatch.notify_available policy ~task:j;
      wake_idle ()
    end
  in
  (* Kill the in-flight copy of machine [i] (crash or outage): the work
     is lost — except what a checkpoint salvages on an outage — and the
     task returns to the pool (immediately, or at failure detection when
     the policy models a latency). *)
  let kill_current ~salvage i =
    let j = cur_task.(i) in
    if j >= 0 then begin
      let time = now.(0) in
      let wall = time -. cur_started.(i) in
      let waste =
        if salvage && ckpt_interval > 0.0 then begin
          (* Work processed this attempt, synced exactly as a slowdown
             resync would do it. *)
          let remaining_now =
            Float.max 0.0
              (cur_remaining.(i)
              -. ((time -. cur_last.(i)) *. (base.(i) *. factor.(i))))
          in
          let attempt_total = actuals.(j) -. cur_base.(i) in
          let done_attempt = attempt_total -. remaining_now in
          let total_done = cur_base.(i) +. done_attempt in
          let preserved =
            Float.min total_done
              (Float.floor (total_done /. ckpt_interval) *. ckpt_interval)
          in
          if preserved > 0.0 then begin
            ckpt_task.(i) <- j;
            ckpt_work.(i) <- preserved;
            if done_attempt > 0.0 then begin
              (* Credit the preserved share of this attempt against the
                 waste, pro-rated by wall time so mid-attempt speed
                 changes cannot make the waste negative. *)
              let credit =
                Float.max 0.0
                  (Float.min done_attempt (preserved -. cur_base.(i)))
              in
              wall *. (1.0 -. (credit /. done_attempt))
            end
            else wall
          end
          else wall
        end
        else wall
      in
      wasted.(0) <- wasted.(0) +. waste;
      Metrics.incr mc_kills;
      if live then busy.(i) <- busy.(i) +. wall;
      cur_task.(i) <- -1;
      gen.(i) <- gen.(i) + 1;
      if tr then emit (Killed { time; machine = i; task = j });
      (if copies_head.(j) = i then
         match copies_tail.(j) with
         | [] -> copies_head.(j) <- -1
         | k :: rest ->
             copies_head.(j) <- k;
             copies_tail.(j) <- rest
       else copies_tail.(j) <- remove_machine i copies_tail.(j));
      if copies_head.(j) < 0 then
        if rec_active && det_latency > 0.0 then orphan.(i) <- j
        else release_task j
    end
  in
  (* The disk of a dead machine [i] is gone: strand every waiting task
     whose last replica it held (unless a transfer is carrying a copy
     out, which keeps the task alive until the transfer resolves). *)
  let strand_scan i =
    for j = 0 to n - 1 do
      if
        status.(j) = st_pending
        && Bitset.mem data.(j) i
        && Bitset.inter_is_empty alive_set data.(j)
        && transfer_none j
      then set_status j st_lost
    done
  in
  (* The moment the scheduler learns of machine [i]'s failure — either
     the detector fires [det_latency] after the fault, or the machine
     truthfully reports its own outage when it rejoins, whichever comes
     first. Only then is the orphaned copy released for re-dispatch. *)
  let acknowledge i =
    let t0 = undetected.(i) in
    if not (Float.is_nan t0) then begin
      let time = now.(0) in
      undetected.(i) <- Float.nan;
      if tr then emit (Failure_detected { time; machine = i });
      Metrics.observe
        (Metrics.histogram fault_metrics "engine.detection_lag")
        (time -. t0);
      let oj = orphan.(i) in
      if oj >= 0 then begin
        orphan.(i) <- -1;
        if status.(oj) = st_running && copies_head.(oj) < 0 then release_task oj
      end;
      if not alive.(i) then strand_scan i
    end
  in
  let on_transfer ~task ~src ~dst ~id =
    match transfer.(task) with
    | Some (_, _, id') when id' = id ->
        transfer.(task) <- None;
        Bitset.add data.(task) dst;
        Bitset.add worklist task;
        (* The landed replica is warm: a copy started here later must
           not pay the staging pull again. *)
        (match topo with None -> () | Some _ -> mark_warm task dst);
        if tr then
          emit (Rereplication_completed { time = now.(0); task; src; dst });
        Metrics.incr (Metrics.counter fault_metrics "engine.rereplications");
        Metrics.observe
          (Metrics.histogram fault_metrics "engine.transfer_time")
          (transfer_duration ~src ~dst task);
        if status.(task) = st_pending then begin
          Dispatch.notify_available policy ~task;
          wake_idle ()
        end;
        heal ()
    | _ -> () (* aborted (and possibly re-issued): stale delivery *)
  in
  (* First candidate in priority order that is running a single overdue
     copy whose data machine [i] also holds. Speculation is a safety
     mechanism, not a placement decision, so it stays with the engine
     rather than the dispatch policy. (Defined once — a per-call
     [let rec] closure would allocate on every idle scan.) *)
  let rec spec_scan i pos =
    let pos = Bitset.next spec_cand pos in
    if pos < 0 then -1
    else
      let j = order.(pos) in
      if
        status.(j) = st_running
        && copies_head.(j) >= 0
        && copies_head.(j) <> i
        && (match copies_tail.(j) with [] -> true | _ -> false)
        && Bitset.mem data.(j) i
      then j
      else spec_scan i (pos + 1)
  in
  (* The paper's phase-2 rule: an idle machine starts the
     highest-priority task whose data it holds (as ranked by the
     dispatch policy). *)
  let dispatch_machine i =
    let time = now.(0) in
    if
      cur_task.(i) < 0
      && alive.(i)
      && down_until.(i) <= time
      && time >= trust_after.(i)
    then begin
      (* A machine holding a checkpoint of a waiting task resumes it in
         preference to fresh work: the banked progress makes it the
         cheapest copy anyone can start. *)
      let cj = ckpt_task.(i) in
      if cj >= 0 && status.(cj) = st_pending && Bitset.mem data.(cj) i then
        start_copy ~resume:true i cj
      else begin
        let j = Dispatch.select_machine policy ~machine:i in
        if j >= 0 then start_copy ~resume:false i j
        else if spec_on then begin
          let sj = spec_scan i 0 in
          if sj >= 0 then start_copy ~resume:false i sj
          (* else idle; woken again if work returns to the pool *)
        end
      end
    end
  in
  let complete i g =
    (* Stale completions (the copy was killed or cancelled) fail the
       generation check. *)
    if cur_task.(i) >= 0 && g = gen.(i) then begin
      let time = now.(0) in
      let j = cur_task.(i) in
      let started = cur_started.(i) in
      e_machine.(j) <- i;
      e_start.(j) <- started;
      e_finish.(j) <- time;
      (* A running task is already out of the pool. *)
      status.(j) <- st_done;
      if spec_on then Bitset.remove spec_cand pos_of.(j);
      incr completed;
      makespan.(0) <- time;
      cur_task.(i) <- -1;
      gen.(i) <- gen.(i) + 1;
      if live then busy.(i) <- busy.(i) +. (time -. started);
      if tr then emit (Completed { time; machine = i; task = j });
      if streaming then Metrics.observe mh_latency (time -. arr.(j));
      if (not spec_on) || match copies_tail.(j) with [] -> true | _ -> false
      then begin
        (* No speculative copies in flight: the freed machine is the only
           one to re-dispatch, so skip the list plumbing entirely. *)
        if contended then copies_head.(j) <- -1;
        dispatch_machine i
      end
      else begin
        (* Speculative losers: first copy to finish wins, the rest abort. *)
        let losers =
          List.filter (fun k -> k <> i) (copies_head.(j) :: copies_tail.(j))
        in
        copies_head.(j) <- -1;
        copies_tail.(j) <- [];
        List.iter
          (fun k ->
            assert (cur_task.(k) >= 0);
            wasted.(0) <- wasted.(0) +. (time -. cur_started.(k));
            if live then busy.(k) <- busy.(k) +. (time -. cur_started.(k));
            cur_task.(k) <- -1;
            gen.(k) <- gen.(k) + 1;
            Metrics.incr mc_spec_cancelled;
            if tr then emit (Cancelled { time; machine = k; task = j }))
          losers;
        List.iter dispatch_machine
          (Dispatch.redispatch_order policy (i :: losers))
      end
    end
  in
  let on_fault i kind =
    let time = now.(0) in
    match kind with
    | Fault.Crash ->
        if alive.(i) then begin
          Metrics.incr mc_crashes;
          alive.(i) <- false;
          Bitset.remove alive_set i;
          if tr then emit (Machine_crashed { time; machine = i });
          (* Physical consequences are immediate: the disk (and any
             checkpoint on it) is gone, in-flight transfers touching the
             machine die, the running copy dies. *)
          ckpt_task.(i) <- -1;
          if rec_active then disk_lost i;
          kill_current ~salvage:false i;
          if rec_active && det_latency > 0.0 then begin
            (* The scheduler only reacts once the detector fires. *)
            if Float.is_nan undetected.(i) then undetected.(i) <- time;
            push ~time:(time +. det_latency) ~machine:i
              ~cls:Event_core.cls_fault Sim_detect
          end
          else begin
            (* Strand every waiting task whose last replica the dead disk
               held, then re-replicate whatever it left under target. *)
            strand_scan i;
            if rec_active then heal ()
          end
        end
    | Fault.Outage until ->
        if alive.(i) then begin
          Metrics.incr mc_outages;
          down_until.(i) <- Float.max down_until.(i) until;
          if tr then
            emit (Machine_down { time; machine = i; until = down_until.(i) });
          kill_current ~salvage:true i;
          if rec_active then begin
            blinks.(i) <- blinks.(i) + 1;
            let b = Recovery.backoff recovery ~blinks:(blinks.(i)) in
            if b > 0.0 then
              trust_after.(i) <- Float.max trust_after.(i) (down_until.(i) +. b);
            (* Detection only matters when a copy was orphaned: the
               outage's other effects wait for the rejoin anyway. *)
            if det_latency > 0.0 && orphan.(i) >= 0 then begin
              if Float.is_nan undetected.(i) then undetected.(i) <- time;
              push ~time:(time +. det_latency) ~machine:i
                ~cls:Event_core.cls_fault Sim_detect
            end
          end;
          push ~time:(down_until.(i)) ~machine:i ~cls:Event_core.cls_fault
            Sim_up
        end
    | Fault.Slowdown f ->
        Metrics.incr mc_slowdowns;
        let old_speed = base.(i) *. factor.(i) in
        factor.(i) <- f;
        if tr then emit (Machine_slowed { time; machine = i; factor = f });
        if cur_task.(i) >= 0 then begin
          cur_remaining.(i) <-
            cur_remaining.(i) -. ((time -. cur_last.(i)) *. old_speed);
          cur_last.(i) <- time;
          gen.(i) <- gen.(i) + 1;
          push_completion i
        end
  in
  let on_up i =
    let time = now.(0) in
    if alive.(i) && time >= down_until.(i) then begin
      if tr then emit (Machine_up { time; machine = i });
      if rec_active then begin
        (* The machine reports its own fate truthfully on rejoin, which
           may beat the detector; its return may also unblock healing
           (as a transfer source or destination). *)
        acknowledge i;
        heal ()
      end;
      if time >= trust_after.(i) then dispatch_machine i
      else
        (* Backoff: the machine blinked recently, so it only receives
           new work once its distrust window expires. *)
        push ~time:(trust_after.(i)) ~machine:i ~cls:Event_core.cls_decision
          Sim_dispatch
    end
  in
  let on_detect i =
    acknowledge i;
    heal ()
  in
  let on_speculate task g =
    if
      task_gen.(task) = g
      && status.(task) = st_running
      && copies_head.(task) >= 0
      && (match copies_tail.(task) with [] -> true | _ -> false)
    then begin
      Bitset.add spec_cand pos_of.(task);
      (* Grab an idle surviving holder right now if one exists (the
         runner is busy, so never it); otherwise the next machine to go
         idle picks the task up in [dispatch_machine]. *)
      let i = idle_holder data.(task) 0 in
      if i >= 0 then start_copy ~resume:false i task
    end
  in
  (* An active healer starts working before the first dispatch: a
     placement below the replication target (k = 1, say) is brought up
     to its per-task target from time zero. (Under [Degree] the initial
     placement already meets the target, so this is a no-op there.) *)
  if rec_active then heal ();
  while not (Event_heap.is_empty queue) do
    let machine = queue.Event_heap.machines.(0) in
    let a1 = queue.Event_heap.aux.(0) in
    let a2 = queue.Event_heap.aux2.(0) in
    let sim = queue.Event_heap.payloads.(0) in
    now.(0) <- queue.Event_heap.times.(0);
    Event_heap.remove_min queue;
    Metrics.incr mc_events;
    match sim with
    | Sim_fault kind -> on_fault machine kind
    | Sim_up -> on_up machine
    | Sim_detect -> on_detect machine
    | Sim_arrive -> on_arrive a1
    | Sim_complete -> complete machine a1
    | Sim_transfer { task; src; dst; id } -> on_transfer ~task ~src ~dst ~id
    | Sim_dispatch -> dispatch_machine machine
    | Sim_speculate -> on_speculate a1 a2
  done;
  let stranded = ref [] in
  if !completed < n then
    for j = n - 1 downto 0 do
      if status.(j) <> st_done then stranded := j :: !stranded
    done;
  if live then begin
    Metrics.add mc_completed !completed;
    Metrics.add mc_stranded (n - !completed);
    Metrics.set mg_makespan makespan.(0);
    Metrics.set mg_wasted wasted.(0);
    for i = 0 to m - 1 do
      (* Everything a machine did not spend processing (including
         downtime and its post-crash tail) counts as idle. *)
      Metrics.observe mh_idle (makespan.(0) -. busy.(i))
    done
  end;
  {
    status;
    schedule =
      Schedule.of_soa ~m ~machines:e_machine ~starts:e_start
        ~finishes:e_finish;
    n_done = !completed;
    lost = !stranded;
    span = makespan.(0);
    waste = wasted.(0);
    registry = metrics;
  }

(* ------------------------------------------------------------------ *)
(* Entry points: one simulation, shaped per caller.                    *)
(* ------------------------------------------------------------------ *)

let schedule_of r =
  if r.lost <> [] then raise (Unschedulable r.lost);
  r.schedule

let outcome_of r =
  {
    fates =
      Array.mapi
        (fun j s ->
          if s = st_done then Finished (Schedule.entry r.schedule j)
          else Stranded)
        r.status;
    completed = r.n_done;
    stranded = r.lost;
    makespan = r.span;
    wasted = r.waste;
    metrics = Metrics.snapshot r.registry;
  }

(* Every event is emitted at the current clock, so the log is
   chronological as collected. *)
let traced f =
  let events = ref [] in
  let x = f (fun e -> events := e :: !events) in
  (x, List.rev !events)

let run ?speeds ?dispatch ?metrics ?emit instance realization ~placement
    ~order =
  schedule_of
    (simulate ?speeds ?dispatch ?metrics ?emit instance realization ~placement
       ~order)

let run_traced ?speeds ?dispatch ?metrics instance realization ~placement
    ~order =
  traced (fun emit ->
      schedule_of
        (simulate ?speeds ?dispatch ?metrics ~emit instance realization
           ~placement ~order))

let run_faulty ?speeds ?speculation ?dispatch ?recovery ?metrics ?emit
    instance realization ~faults ~placement ~order =
  outcome_of
    (simulate ?speeds ?speculation ?dispatch ?recovery ?metrics ~faults ?emit
       instance realization ~placement ~order)

let run_faulty_traced ?speeds ?speculation ?dispatch ?recovery ?metrics
    instance realization ~faults ~placement ~order =
  traced (fun emit ->
      outcome_of
        (simulate ?speeds ?speculation ?dispatch ?recovery ?metrics ~faults
           ~emit instance realization ~placement ~order))

(* ------------------------------------------------------------------ *)
(* Open-system streaming service mode.                                 *)
(* ------------------------------------------------------------------ *)

type stream_outcome = { outcome : outcome; latencies : float array }

(* Response time of every finished task, in task-id (= admission) order.
   Stranded tasks contribute nothing: their latency is unbounded, and
   averaging an arbitrary sentinel in would poison the quantiles. *)
let stream_of ~arrivals r =
  let outcome = outcome_of r in
  let latencies = Array.make r.n_done 0.0 in
  let k = ref 0 in
  Array.iteri
    (fun j -> function
      | Finished e ->
          latencies.(!k) <- e.Schedule.finish -. arrivals.(j);
          incr k
      | Stranded -> ())
    outcome.fates;
  { outcome; latencies }

(* A stream always runs under a trace (empty by default), so it reports
   the fault instruments like {!run_faulty}. *)
let stream_faults instance faults =
  Option.value faults ~default:(Trace.empty ~m:(Instance.m instance))

let run_stream ?speeds ?speculation ?dispatch ?recovery ?metrics ?emit
    ?faults instance realization ~arrivals ~placement ~order =
  stream_of ~arrivals
    (simulate ?speeds ?speculation ?dispatch ?recovery ?metrics ?emit
       ~faults:(stream_faults instance faults) ~arrivals instance realization
       ~placement ~order)

let run_stream_traced ?speeds ?speculation ?dispatch ?recovery ?metrics
    ?faults instance realization ~arrivals ~placement ~order =
  traced (fun emit ->
      stream_of ~arrivals
        (simulate ?speeds ?speculation ?dispatch ?recovery ?metrics
           ~faults:(stream_faults instance faults) ~arrivals ~emit instance
           realization ~placement ~order))

(* ------------------------------------------------------------------ *)
(* JSON serialization of events and outcomes (the trace sink's view).  *)
(* ------------------------------------------------------------------ *)

let event_json e =
  let base kind time fields =
    Json.Obj
      (("type", Json.String "event")
      :: ("kind", Json.String kind)
      :: ("t", Json.float time)
      :: fields)
  in
  match e with
  | Arrived { time; task } -> base "arrived" time [ ("task", Json.Int task) ]
  | Started { time; machine; task } ->
      base "started" time [ ("machine", Json.Int machine); ("task", Json.Int task) ]
  | Completed { time; machine; task } ->
      base "completed" time
        [ ("machine", Json.Int machine); ("task", Json.Int task) ]
  | Killed { time; machine; task } ->
      base "killed" time [ ("machine", Json.Int machine); ("task", Json.Int task) ]
  | Cancelled { time; machine; task } ->
      base "cancelled" time
        [ ("machine", Json.Int machine); ("task", Json.Int task) ]
  | Machine_crashed { time; machine } ->
      base "machine_crashed" time [ ("machine", Json.Int machine) ]
  | Machine_down { time; machine; until } ->
      base "machine_down" time
        [ ("machine", Json.Int machine); ("until", Json.float until) ]
  | Machine_up { time; machine } ->
      base "machine_up" time [ ("machine", Json.Int machine) ]
  | Machine_slowed { time; machine; factor } ->
      base "machine_slowed" time
        [ ("machine", Json.Int machine); ("factor", Json.float factor) ]
  | Failure_detected { time; machine } ->
      base "failure_detected" time [ ("machine", Json.Int machine) ]
  | Rereplication_started { time; task; src; dst } ->
      base "rereplication_started" time
        [ ("task", Json.Int task); ("src", Json.Int src); ("dst", Json.Int dst) ]
  | Rereplication_completed { time; task; src; dst } ->
      base "rereplication_completed" time
        [ ("task", Json.Int task); ("src", Json.Int src); ("dst", Json.Int dst) ]
  | Rereplication_aborted { time; task; src; dst } ->
      base "rereplication_aborted" time
        [ ("task", Json.Int task); ("src", Json.Int src); ("dst", Json.Int dst) ]
  | Checkpoint_resumed { time; machine; task; progress } ->
      base "checkpoint_resumed" time
        [
          ("machine", Json.Int machine);
          ("task", Json.Int task);
          ("progress", Json.float progress);
        ]

(* The bytes of [Json.to_string (event_json e) ^ "\n"], written without
   building the tree: constant prefixes and keys as literals, numbers
   through the [Json] writers. One helper per record shape; [prefix] is
   the literal up to the clock, {|{"type":"event","kind":"…","t":|}. *)
let add_m buf prefix time machine =
  Buffer.add_string buf prefix;
  Json.add_float buf time;
  Buffer.add_string buf {|,"machine":|};
  Json.add_int buf machine

let add_mt buf prefix time machine task =
  add_m buf prefix time machine;
  Buffer.add_string buf {|,"task":|};
  Json.add_int buf task

let add_tsd buf prefix time task src dst =
  Buffer.add_string buf prefix;
  Json.add_float buf time;
  Buffer.add_string buf {|,"task":|};
  Json.add_int buf task;
  Buffer.add_string buf {|,"src":|};
  Json.add_int buf src;
  Buffer.add_string buf {|,"dst":|};
  Json.add_int buf dst

let add_float_field buf key v =
  Buffer.add_string buf key;
  Json.add_float buf v

let add_event_jsonl buf e =
  (match e with
  | Arrived { time; task } ->
      Buffer.add_string buf {|{"type":"event","kind":"arrived","t":|};
      Json.add_float buf time;
      Buffer.add_string buf {|,"task":|};
      Json.add_int buf task
  | Started { time; machine; task } ->
      add_mt buf {|{"type":"event","kind":"started","t":|} time machine task
  | Completed { time; machine; task } ->
      add_mt buf {|{"type":"event","kind":"completed","t":|} time machine task
  | Killed { time; machine; task } ->
      add_mt buf {|{"type":"event","kind":"killed","t":|} time machine task
  | Cancelled { time; machine; task } ->
      add_mt buf {|{"type":"event","kind":"cancelled","t":|} time machine task
  | Machine_crashed { time; machine } ->
      add_m buf {|{"type":"event","kind":"machine_crashed","t":|} time machine
  | Machine_down { time; machine; until } ->
      add_m buf {|{"type":"event","kind":"machine_down","t":|} time machine;
      add_float_field buf {|,"until":|} until
  | Machine_up { time; machine } ->
      add_m buf {|{"type":"event","kind":"machine_up","t":|} time machine
  | Machine_slowed { time; machine; factor } ->
      add_m buf {|{"type":"event","kind":"machine_slowed","t":|} time machine;
      add_float_field buf {|,"factor":|} factor
  | Failure_detected { time; machine } ->
      add_m buf {|{"type":"event","kind":"failure_detected","t":|} time machine
  | Rereplication_started { time; task; src; dst } ->
      add_tsd buf {|{"type":"event","kind":"rereplication_started","t":|} time
        task src dst
  | Rereplication_completed { time; task; src; dst } ->
      add_tsd buf {|{"type":"event","kind":"rereplication_completed","t":|}
        time task src dst
  | Rereplication_aborted { time; task; src; dst } ->
      add_tsd buf {|{"type":"event","kind":"rereplication_aborted","t":|} time
        task src dst
  | Checkpoint_resumed { time; machine; task; progress } ->
      add_mt buf {|{"type":"event","kind":"checkpoint_resumed","t":|} time
        machine task;
      add_float_field buf {|,"progress":|} progress);
  Buffer.add_string buf "}\n"

let outcome_json outcome =
  Json.Obj
    [
      ("type", Json.String "outcome");
      ("completed", Json.Int outcome.completed);
      ("stranded", Json.List (List.map (fun j -> Json.Int j) outcome.stranded));
      ("makespan", Json.float outcome.makespan);
      ("wasted", Json.float outcome.wasted);
      ("metrics", Metrics.to_json outcome.metrics);
    ]

(** Shared machinery for the experiment harness.

    Ratio measurement with a sound optimum estimate (exact branch and
    bound below a size threshold, lower bounds above), randomized sweeps
    over workloads and realization models, and worst-case searches that
    combine all adversaries. *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Core = Usched_core

type config = {
  seed : int;  (** Master seed; every sub-experiment derives from it. *)
  reps : int;  (** Repetitions per sampled point. *)
  domains : int;  (** Domains for parallel sweeps. *)
  exact_n : int;  (** Use exact B&B optimum up to this many tasks. *)
  csv_dir : string option;
      (** When set, experiments also dump their raw series as CSV files
          into this directory (created recursively if missing), each
          accompanied by a [<id>.manifest.json] run manifest. *)
  metrics : Usched_obs.Metrics.t;
      (** Per-run instrument registry: sweeps and adversary searches
          record phase timings ([phase.sweep], [phase.adversary]), CSV
          output records [runner.csv_write]/[runner.csv_files]. The
          registry lands in the run manifest. Single-domain — never
          updated from inside parallel workers. *)
  algo_specs : string list ref;
      (** Strategy spec strings the experiment built via {!strategy}, in
          first-use order and deduplicated. Recorded in the run manifest
          ([algo_specs]) so every run is replayable by name. *)
}

val default_config : config
(** [seed = 42], [reps = 50], one domain per core (capped, overridable
    via [USCHED_DOMAINS]), exact optimum up to 16 tasks, no CSV output, a
    fresh live metrics registry. *)

val fresh_metrics : config -> config
(** Same config with a new empty metrics registry and spec record — used
    by the experiment registry so each manifest reports its own timings
    and algorithms. *)

val strategy : config -> m:int -> Core.Strategy.t -> Core.Two_phase.t
(** [Strategy.build spec ~m], with the spec string recorded for the run
    manifest. Experiments construct every algorithm through this (or
    {!record_spec} + [Strategy.build] when they build for several [m]). *)

val record_spec : config -> Core.Strategy.t -> unit
(** Record a spec in [config.algo_specs] without building it (dedup,
    first-use order). *)

val maybe_csv :
  config -> name:string -> header:string list -> string list list -> unit
(** Write [<csv_dir>/<name>.csv] when [csv_dir] is set; otherwise do
    nothing. Creates the directory (and any missing ancestors) on first
    use. *)

val maybe_manifest :
  config -> id:string -> title:string -> wall_time_s:float -> unit
(** Write [<csv_dir>/<id>.manifest.json] when [csv_dir] is set: seed,
    reps, domains, exact_n, wall time, the strategy spec strings the run
    built ([algo_specs]), and the metrics snapshot (phase timings, CSV
    accounting) as one JSON object. *)

val quick : config -> config
(** Same config with [reps] reduced for smoke tests. *)

val opt_estimate : config -> m:int -> float array -> float * bool
(** A lower bound on (or exact value of) the optimal makespan of the
    realized times, and whether it is exact. Measured ratios divide by
    this, so they upper-bound the true competitive ratio. *)

val ratio :
  config -> Core.Two_phase.t -> Instance.t -> Realization.t -> float
(** [C_max / opt_estimate] for one run. *)

val paired :
  config -> seed:int -> reps:int -> (Usched_prng.Rng.t -> 'a) -> ('a -> unit) -> unit
(** [paired config ~seed ~reps run fold]: the paired-replication loop
    every randomized experiment runs on. Splits [reps] streams off one
    master generator seeded with [seed], maps [run] over them on
    [config.domains] domains, then calls [fold] on each result in
    repetition order on the calling domain. Repetition [r] sees the
    [r]-th split at any domain count, so output does not depend on
    [--domains].

    [run] executes on worker domains and must touch no shared state:
    not [config.metrics], not {!strategy} (build algorithms before the
    loop), no printing. Recording into summaries, tables and gauges
    belongs in [fold]. *)

type sweep_result = {
  summary : Usched_stats.Summary.t;  (** Distribution of measured ratios. *)
  worst : float;  (** Largest ratio seen. *)
  exact_opt : bool;  (** Whether every optimum was exact. *)
}

val random_sweep :
  config ->
  algo:Core.Two_phase.t ->
  spec:Usched_model.Workload.spec ->
  realize:(Instance.t -> Usched_prng.Rng.t -> Realization.t) ->
  n:int ->
  m:int ->
  alpha:float ->
  sweep_result
(** [reps] independent (instance, realization) draws on {!paired},
    seeded with [config.seed], ratios summarized. *)

val adversarial_ratio :
  config -> Core.Two_phase.t -> Instance.t -> float
(** Worst ratio over the implemented adversaries (Theorem-1 inflation,
    per-machine inflation, greedy flips; exhaustive when [n] is small
    enough). The phase-1 placement is computed once; every adversary then
    chooses a realization against it, as in the paper's model. *)

val print_section : string -> unit
(** Banner printed before each experiment block. *)

(** The fixtures the fault experiments share: one workload generator,
    the nested ring placement, and the per-cell summary of faulty runs
    with the table/CSV columns that report it. *)

val m : int
(** 6 machines: the fault, recovery and policy sweeps' platform. *)

val n : int
(** 36 tasks. *)

val alpha : float
(** 1.5, the uncertainty of every generated workload. *)

val generate :
  ?spec:Usched_model.Workload.spec ->
  n:int ->
  m:int ->
  Usched_prng.Rng.t ->
  Usched_model.Instance.t * Usched_model.Realization.t
(** An instance of [spec] (default [uniform:1:10]) at {!alpha}, and a
    realization whose actuals are log-uniform within a factor [alpha]
    of the estimates, both drawn from one stream. *)

val ring : k:int -> Usched_model.Bitset.t array
(** The nested ring placement of {!n} tasks on {!m} machines with [k]
    replicas: task [j] lives on machines [j mod m .. (j+k-1) mod m]. The
    rings nest in [k], so under one crash trace a task stranded at
    [k+1] replicas is also stranded at [k]. *)

type cell
(** Summary of the faulty runs of one table cell. *)

val cell : unit -> cell

val runs_of : cell -> int
val stranded_runs_of : cell -> int
(** Runs recorded, and those that stranded at least one task. *)

val record :
  cell -> healthy:float -> total_work:float -> Usched_desim.Engine.outcome -> unit
(** Add one run: completion, stranded tasks, wasted work over
    [total_work], re-replication and checkpoint-resume counters from the
    outcome's metrics, and the makespan over [healthy] when no task was
    stranded. *)

(** {2 Columns}

    Each takes the row's cell. Table title, then the CSV columns. *)

val full_runs : ('r -> cell) -> 'r Sheet.column
(** "full runs" as [a/b]; CSV [full_runs], [runs]. *)

val stranded_runs : ('r -> cell) -> 'r Sheet.column
(** "stranded runs" as [a/b]; CSV [stranded_runs], [runs]. *)

val mean_lost : ('r -> cell) -> 'r Sheet.column
(** "mean lost" stranded tasks per run; CSV [mean_stranded]. *)

val tasks_done : ('r -> cell) -> 'r Sheet.column
(** "tasks done" percentage; CSV [task_completion]. *)

val mean_degr : ('r -> cell) -> 'r Sheet.column
(** "mean degr", [-] without a full run; CSV [mean_degradation]. *)

val worst_degr : ?csv:string -> ('r -> cell) -> 'r Sheet.column
(** "worst degr", [-] without a full run. *)

val wasted : ('r -> cell) -> 'r Sheet.column
(** "wasted" percentage of the total work; CSV [wasted_fraction]. *)

val transfers : ('r -> cell) -> 'r Sheet.column
(** "transfers" (re-replications per run); CSV [rereplications]. *)

val resumes : ('r -> cell) -> 'r Sheet.column
(** "resumes" (checkpoint resumes per run); CSV [checkpoint_resumes]. *)

(** A results table declared once, as a list of columns, and rendered
    twice from one row list: the aligned {!Usched_report.Table} on
    stdout and the CSV file of {!Runner.maybe_csv}.

    Each column gives its table cell and zero or more CSV cells. The two
    renderings may format the same value differently: a table shows
    ["12.5%"], ["-"] or ["3/10"] where the CSV holds the raw fraction,
    [nan] or two integer columns. *)

module Table = Usched_report.Table

type 'row column

val column :
  ?align:Table.align ->
  string ->
  ('row -> string) ->
  csv:(string * ('row -> string)) list ->
  'row column
(** [column title cell ~csv]: a table column (right-aligned by default)
    and the CSV columns [csv], in order; [~csv:[]] keeps the column out
    of the CSV. *)

val csv_only : string -> ('row -> string) -> 'row column
(** A CSV column with no table twin. *)

val text :
  ?align:Table.align -> ?csv:string -> string -> ('row -> string) -> 'row column
(** The same string in both renderings (left-aligned by default); no
    CSV column without [?csv]. *)

val num : ?csv:string -> string -> ('row -> float) -> 'row column
(** {!Table.cell_float} in the table, ["%.6f"] in the CSV. *)

val num_opt : ?csv:string -> string -> ('row -> float option) -> 'row column
(** {!num}, with [None] shown as ["-"] in the table and [nan] in the
    CSV. *)

val pct : ?csv:string -> string -> ('row -> float) -> 'row column
(** A fraction shown as a percentage (["%.1f%%"]) in the table, raw
    (["%.6f"]) in the CSV. *)

val emit :
  Runner.config -> ?csv:string -> 'row column list -> 'row list -> unit
(** Print the table of [rows], then, when [?csv] names a file, write
    the CSV rows through {!Runner.maybe_csv} under that name. *)

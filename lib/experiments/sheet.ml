module Table = Usched_report.Table

type 'row column = {
  head : (string * Table.align) option;
  cell : 'row -> string;
  csv : (string * ('row -> string)) list;
}

let column ?(align = Table.Right) title cell ~csv =
  { head = Some (title, align); cell; csv }

let csv_only name cell = { head = None; cell; csv = [ (name, cell) ] }
let csv_col f = function None -> [] | Some c -> [ (c, f) ]
let f6 = Printf.sprintf "%.6f"

let text ?(align = Table.Left) ?csv title f =
  column ~align title f ~csv:(csv_col f csv)

let num ?csv title f =
  column title
    (fun r -> Table.cell_float (f r))
    ~csv:(csv_col (fun r -> f6 (f r)) csv)

let num_opt ?csv title f =
  column title
    (fun r -> match f r with None -> "-" | Some v -> Table.cell_float v)
    ~csv:
      (csv_col (fun r -> match f r with None -> "nan" | Some v -> f6 v) csv)

let pct ?csv title f =
  column title
    (fun r -> Printf.sprintf "%.1f%%" (100.0 *. f r))
    ~csv:(csv_col (fun r -> f6 (f r)) csv)

let emit config ?csv columns rows =
  let table = Table.create ~columns:(List.filter_map (fun c -> c.head) columns) in
  List.iter
    (fun r ->
      Table.add_row table
        (List.filter_map
           (fun c -> Option.map (fun _ -> c.cell r) c.head)
           columns))
    rows;
  print_string (Table.render table);
  match csv with
  | None -> ()
  | Some name ->
      Runner.maybe_csv config ~name
        ~header:(List.concat_map (fun c -> List.map fst c.csv) columns)
        (List.map
           (fun r ->
             List.concat_map (fun c -> List.map (fun (_, f) -> f r) c.csv) columns)
           rows)

let parse_error line_number message =
  failwith (Printf.sprintf "Io: line %d: %s" line_number message)

let header_line ~kind instance =
  let failp =
    match Instance.failure instance with
    | None -> ""
    | Some f -> " failp=" ^ Failure.to_string f
  in
  let speedband =
    match Instance.speed_band instance with
    | None -> ""
    | Some b -> " speedband=" ^ Speed_band.to_string b
  in
  let topology =
    match Instance.topology instance with
    | None -> ""
    | Some tp -> " topology=" ^ Topology.to_string tp
  in
  Printf.sprintf "# usched-%s m=%d alpha=%.17g%s%s%s" kind (Instance.m instance)
    (Instance.alpha_value instance) failp speedband topology

let parse_header ~kind line =
  let prefix = Printf.sprintf "# usched-%s " kind in
  let plen = String.length prefix in
  if String.length line < plen || String.sub line 0 plen <> prefix then
    parse_error 1 (Printf.sprintf "expected a '%s' header" prefix);
  let fields =
    String.split_on_char ' ' (String.sub line plen (String.length line - plen))
  in
  let lookup_opt key =
    let key_eq = key ^ "=" in
    match
      List.find_opt
        (fun f ->
          String.length f > String.length key_eq
          && String.sub f 0 (String.length key_eq) = key_eq)
        fields
    with
    | Some f ->
        Some
          (String.sub f (String.length key_eq)
             (String.length f - String.length key_eq))
    | None -> None
  in
  let lookup key =
    match lookup_opt key with
    | Some v -> v
    | None -> parse_error 1 (Printf.sprintf "missing %s= in header" key)
  in
  let m = int_of_string (lookup "m") in
  let alpha = float_of_string (lookup "alpha") in
  let failure =
    match lookup_opt "failp" with
    | None -> None
    | Some raw -> (
        match Failure.of_string raw with
        | Ok f -> Some f
        | Error msg -> parse_error 1 (Printf.sprintf "bad failp=: %s" msg))
  in
  let speed_band =
    match lookup_opt "speedband" with
    | None -> None
    | Some raw -> (
        match Speed_band.of_string raw with
        | Ok b -> Some b
        | Error msg -> parse_error 1 (Printf.sprintf "bad speedband=: %s" msg))
  in
  let topology =
    match lookup_opt "topology" with
    | None -> None
    | Some raw -> (
        match Topology.of_string raw with
        | Ok tp -> Some tp
        | Error msg -> parse_error 1 (Printf.sprintf "bad topology=: %s" msg))
  in
  (m, Uncertainty.alpha alpha, failure, speed_band, topology)

let body_lines text =
  String.split_on_char '\n' text
  |> List.filteri (fun i _ -> i >= 2) (* header + column line *)
  |> List.filter (fun l -> String.trim l <> "")

let instance_to_string instance =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (header_line ~kind:"instance" instance);
  Buffer.add_string buffer "\nid,est,size\n";
  Array.iter
    (fun task ->
      Buffer.add_string buffer
        (Printf.sprintf "%d,%.17g,%.17g\n" (Task.id task) (Task.est task)
           (Task.size task)))
    (Instance.tasks instance);
  Buffer.contents buffer

let split3 line_number line =
  match String.split_on_char ',' line with
  | [ a; b; c ] -> (a, b, c)
  | _ -> parse_error line_number "expected 3 comma-separated fields"

let split4 line_number line =
  match String.split_on_char ',' line with
  | [ a; b; c; d ] -> (a, b, c, d)
  | _ -> parse_error line_number "expected 4 comma-separated fields"

(* A row's constructor checks (positive estimate, ...) name the row. *)
let task_row line_number ~id ~est ~size =
  match Task.make ~id ~est ~size () with
  | task -> task
  | exception Invalid_argument message -> parse_error line_number message

let float_field line_number name raw =
  match float_of_string_opt raw with
  | Some v -> v
  | None -> parse_error line_number (Printf.sprintf "bad %s %S" name raw)

let instance_of_string text =
  match String.split_on_char '\n' text with
  | [] -> parse_error 1 "empty input"
  | header :: _ ->
      let m, alpha, failure, speed_band, topology =
        parse_header ~kind:"instance" header
      in
      let tasks =
        List.mapi
          (fun i line ->
            let line_number = i + 3 in
            let id_raw, est_raw, size_raw = split3 line_number line in
            let id =
              match int_of_string_opt id_raw with
              | Some v -> v
              | None -> parse_error line_number (Printf.sprintf "bad id %S" id_raw)
            in
            task_row line_number ~id
              ~est:(float_field line_number "estimate" est_raw)
              ~size:(float_field line_number "size" size_raw))
          (body_lines text)
      in
      Instance.make ?failure ?speed_band ?topology ~m ~alpha
        (Array.of_list tasks)

let realization_to_string realization =
  let instance = Realization.instance realization in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (header_line ~kind:"realization" instance);
  Buffer.add_string buffer "\nid,est,size,actual\n";
  Array.iter
    (fun task ->
      Buffer.add_string buffer
        (Printf.sprintf "%d,%.17g,%.17g,%.17g\n" (Task.id task) (Task.est task)
           (Task.size task)
           (Realization.actual realization (Task.id task))))
    (Instance.tasks instance);
  Buffer.contents buffer

let realization_of_string text =
  match String.split_on_char '\n' text with
  | [] -> parse_error 1 "empty input"
  | header :: _ ->
      let m, alpha, failure, speed_band, topology =
        parse_header ~kind:"realization" header
      in
      let rows =
        List.mapi
          (fun i line ->
            let line_number = i + 3 in
            let id_raw, est_raw, size_raw, actual_raw = split4 line_number line in
            let id =
              match int_of_string_opt id_raw with
              | Some v -> v
              | None -> parse_error line_number (Printf.sprintf "bad id %S" id_raw)
            in
            ( task_row line_number ~id
                ~est:(float_field line_number "estimate" est_raw)
                ~size:(float_field line_number "size" size_raw),
              float_field line_number "actual" actual_raw ))
          (body_lines text)
      in
      let instance =
        Instance.make ?failure ?speed_band ?topology ~m ~alpha
          (Array.of_list (List.map fst rows))
      in
      Realization.of_actuals instance (Array.of_list (List.map snd rows))

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save_instance ~path instance = write_file path (instance_to_string instance)
let load_instance ~path = instance_of_string (read_file path)

let save_realization ~path realization =
  write_file path (realization_to_string realization)

let load_realization ~path = realization_of_string (read_file path)

(* A fixed mix of the work the usched commands do: text parsing and
   formatting, float and int array scans, sorting, short-lived allocation
   and hashing. With an argument D, D domains each do the whole mix at
   once, sharing one heap as a D-domain command does. Prints one checksum
   line, the same on every run. *)

let n = 100_000
let machines = 40

let work () =
  let state = ref 0x2545F491 in
  let next () =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x40000000
  in
  (* Format and re-parse, as instance files and reports are. *)
  let buf = Buffer.create (n * 24) in
  for i = 0 to n - 1 do
    Printf.bprintf buf "%d,%.17g,%d\n" i (1. +. (9. *. next ())) (1 + (i mod 3))
  done;
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let est =
    Array.of_list
      (List.filter_map
         (fun l ->
           match String.split_on_char ',' l with
           | [ _; e; _ ] -> Some (float_of_string e)
           | _ -> None)
         lines)
  in
  (* Greedy list scheduling onto the least-loaded machine. *)
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare est.(b) est.(a)) order;
  let load = Array.make machines 0. in
  let owner = Array.make n 0 in
  Array.iter
    (fun t ->
      let best = ref 0 in
      for j = 1 to machines - 1 do
        if load.(j) < load.(!best) then best := j
      done;
      load.(!best) <- load.(!best) +. est.(t);
      owner.(t) <- !best)
    order;
  (* Per-machine rescans and a hash table of small records. *)
  let table = Hashtbl.create 1024 in
  let checksum = ref 0. in
  for j = 0 to machines - 1 do
    let tasks = ref [] in
    for t = 0 to n - 1 do
      if owner.(t) = j then tasks := (t, est.(t)) :: !tasks
    done;
    let total = List.fold_left (fun acc (_, e) -> acc +. e) 0. !tasks in
    Hashtbl.replace table j (List.length !tasks, total);
    checksum := !checksum +. (total /. float_of_int (j + 1))
  done;
  let out = Buffer.create 4096 in
  Hashtbl.iter (fun j (k, total) -> Printf.bprintf out "%d %d %.4f\n" j k total) table;
  Printf.sprintf "calib %.6f %d" !checksum (Buffer.length out)

let () =
  let domains = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  let mine = work () in
  let results = List.map Domain.join others in
  if List.exists (( <> ) mine) results then failwith "domains disagree";
  print_endline mine

type entry = {
  classes : string list;
  combined_freq : float;
  per_benchmark : (string * float) list;
}

(* All class lists appearing anywhere, first-appearance order. *)
let gather per_bench =
  let seen = Hashtbl.create 256 in
  List.concat_map
    (fun (_, ds) ->
      List.filter_map
        (fun (d : Detect.detected) ->
          if Hashtbl.mem seen d.classes then None
          else begin
            Hashtbl.add seen d.classes ();
            Some d.classes
          end)
        ds)
    per_bench

(* A benchmark's frequency per class list: the first detection of each
   list, as a scan from the front would find it. *)
let freq_table ds =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (d : Detect.detected) ->
      if not (Hashtbl.mem t d.classes) then Hashtbl.add t d.classes d.freq)
    ds;
  t

let build per_bench ~weight_of =
  let names = gather per_bench in
  let total_weight =
    Asipfb_util.Listx.sum_by (fun b -> weight_of b) per_bench
  in
  let tables =
    List.map (fun ((name, ds) as b) -> (name, weight_of b, freq_table ds)) per_bench
  in
  let freq_in t classes =
    Option.value (Hashtbl.find_opt t classes) ~default:0.0
  in
  let entries =
    List.map
      (fun classes ->
        let per_benchmark =
          List.filter_map
            (fun (name, _, t) ->
              let f = freq_in t classes in
              if f > 0.0 then Some (name, f) else None)
            tables
        in
        let combined_freq =
          if total_weight = 0.0 then 0.0
          else
            Asipfb_util.Listx.sum_by
              (fun (_, w, t) -> w *. freq_in t classes)
              tables
            /. total_weight
        in
        { classes; combined_freq; per_benchmark })
      names
  in
  List.sort (fun a b -> Float.compare b.combined_freq a.combined_freq) entries

let equal_weight per_bench = build per_bench ~weight_of:(fun _ -> 1.0)

let weighted per_bench =
  let stripped = List.map (fun (n, _, ds) -> (n, ds)) per_bench in
  let weight_table =
    List.map (fun (n, w, _) -> (n, float_of_int w)) per_bench
  in
  build stripped ~weight_of:(fun (n, _) ->
      Option.value ~default:0.0 (List.assoc_opt n weight_table))

let find entries classes =
  List.find_opt (fun e -> e.classes = classes) entries

let merge_families (ds : Detect.detected list) : Detect.detected list =
  let grouped =
    Asipfb_util.Listx.group_by
      (fun (d : Detect.detected) -> List.map Chainop.family d.classes)
      ds
  in
  List.map
    (fun (classes, members) ->
      {
        Detect.classes;
        freq =
          Asipfb_util.Listx.sum_by
            (fun (d : Detect.detected) -> d.freq)
            members;
        occurrences =
          List.concat_map
            (fun (d : Detect.detected) -> d.occurrences)
            members;
      })
    grouped
  |> List.sort (fun (a : Detect.detected) b -> Float.compare b.freq a.freq)

type t = {
  name : string;
  description : string;
  data_input : string;
  source : string;
  inputs : unit -> (string * Asipfb_exec.Value.t array) list;
  output_regions : string list;
}

let compile t = Asipfb_frontend.Lower.compile t.source ~entry:"main"
let run t = Asipfb_sim.Interp.run (compile t) ~inputs:(t.inputs ())

let run_with_faults t ~faults =
  Asipfb_sim.Interp.run (compile t) ~inputs:(t.inputs ()) ~faults

(* Expected-output self-check: the clean run is deterministic (LCG inputs),
   so its output regions are the golden reference.  Kept per benchmark
   name; the first self-check pays for one extra clean run, which racing
   self-checks (the engine's parallel fault-injected tasks) share. *)
let golden :
    (string, (string * Asipfb_exec.Value.t array) list) Asipfb_util.Memo.t =
  Asipfb_util.Memo.create ()

let expected_outputs t =
  Asipfb_util.Memo.get golden ~key:t.name (fun () ->
      let o = run t in
      List.map
        (fun region -> (region, Asipfb_exec.Memory.dump o.memory region))
        t.output_regions)

let self_check t (outcome : Asipfb_sim.Interp.outcome) : (unit, string) result =
  let mismatch =
    List.find_map
      (fun (region, want) ->
        let got = Asipfb_exec.Memory.dump outcome.memory region in
        if Array.length want <> Array.length got then
          Some (Printf.sprintf "%s: length %d <> %d" region
                  (Array.length got) (Array.length want))
        else
          let bad = ref None in
          Array.iteri
            (fun i w ->
              if !bad = None && not (Asipfb_exec.Value.close w got.(i)) then
                bad :=
                  Some
                    (Printf.sprintf "%s[%d]: got %s, expected %s" region i
                       (Asipfb_exec.Value.to_string got.(i))
                       (Asipfb_exec.Value.to_string w)))
            want;
          !bad)
      (expected_outputs t)
  in
  match mismatch with
  | None -> Ok ()
  | Some msg -> Result.error ("output self-check failed: " ^ msg)

let source_lines t =
  String.split_on_char '\n' t.source
  |> List.filter (fun line -> String.trim line <> "")
  |> List.length

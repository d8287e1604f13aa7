let default_jobs () = Domain.recommended_domain_count ()

type 'a slot =
  | Ok_slot of 'a
  | Exn_slot of exn * Printexc.raw_backtrace

let run_seq tasks = Array.map (fun task -> task ()) tasks

(* Workers claim contiguous batches of task indices instead of single
   tasks: one atomic RMW per batch rather than per task.  For the
   12-benchmark suite (36 sched tasks) the per-task fetch_and_add was a
   measurable share of the parallel overhead; for corpus-scale runs
   (thousands of tasks) batching also keeps the claimed ranges
   cache-friendly.  Batches are kept small enough ([4 × jobs] claims
   minimum) that the tail imbalance stays bounded by one batch. *)
let batch_size ~jobs n = max 1 (n / (jobs * 4))

let run ?on_spawn_failure ?batch ~jobs tasks =
  let n = Array.length tasks in
  if jobs <= 1 || n <= 1 then run_seq tasks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let batch =
      match batch with Some b -> max 1 b | None -> batch_size ~jobs n
    in
    (* Each worker claims the next unstarted batch; a slot is written by
       exactly one domain, and Domain.join publishes all writes before the
       collection loop reads them. *)
    let rec worker () =
      let start = Atomic.fetch_and_add next batch in
      if start < n then begin
        let stop = min n (start + batch) in
        for i = start to stop - 1 do
          let slot =
            try Ok_slot (tasks.(i) ())
            with exn -> Exn_slot (exn, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some slot
        done;
        worker ()
      end
    in
    let domains =
      (* The calling domain is worker 0, so [jobs] counts it.  A failed
         spawn (resource exhaustion) degrades to fewer workers — in the
         limit the calling domain alone, i.e. the sequential path —
         rather than aborting the run. *)
      List.filter_map
        (fun _ ->
          match Domain.spawn worker with
          | d -> Some d
          | exception exn ->
              (match on_spawn_failure with Some f -> f exn | None -> ());
              None)
        (List.init (min jobs n - 1) Fun.id)
    in
    worker ();
    List.iter Domain.join domains;
    Array.map
      (function
        | Some (Ok_slot v) -> v
        | Some (Exn_slot (exn, bt)) -> Printexc.raise_with_backtrace exn bt
        | None -> assert false (* every index below [n] was claimed *))
      results
  end

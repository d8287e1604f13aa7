module Chaos = Asipfb_supervise.Chaos

type stats = {
  disk_hits : int;
  misses : int;
  stores : int;
  corrupt : int;
  io_errors : int;
}

type event =
  | Corrupt_entry of { key : string; reason : string }
  | Io_error of { op : string; message : string }

type 'a t = {
  mutex : Mutex.t;
  (* [dir] is cleared (persistence disabled) on the first I/O error. *)
  mutable dir : string option;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable corrupt : int;
  mutable io_errors : int;
  enabled : bool;
  chaos : Chaos.t option;
  on_event : (event -> unit) option;
}

let create ?dir ?(enabled = true) ?chaos ?on_event () =
  {
    mutex = Mutex.create ();
    dir;
    disk_hits = 0;
    misses = 0;
    stores = 0;
    corrupt = 0;
    io_errors = 0;
    enabled;
    chaos;
    on_event;
  }

let locked t f = Mutex.protect t.mutex f

let emit t ev = match t.on_event with Some f -> f ev | None -> ()

(* Disk layout: DIR/<first two key chars>/<key>.cache — the engine's
   keys are hex digests, so the prefix spreads entries uniformly over at
   most 256 subdirectories, and a corpus-scale run does not pile
   thousands of files into one directory. *)
let subdir ~key dir =
  let prefix = if String.length key >= 2 then String.sub key 0 2 else key in
  Filename.concat dir prefix

let path ~key dir = Filename.concat (subdir ~key dir) (key ^ ".cache")

(* ---- Entry envelope: magic, content digest, Marshal payload ---------

   The digest covers the payload bytes exactly as written, so truncation,
   interleaving, bit rot, or chaos-injected mangling is detected before
   [Marshal.from_string] ever sees the bytes (unmarshalling arbitrary
   bytes is unsafe; a digest match proves they are bytes we produced). *)

let magic = "ASFBC1\n"
let digest_len = 16
let header_len = String.length magic + digest_len

let encode v =
  let payload = Marshal.to_string v [] in
  magic ^ Digest.string payload ^ payload

type 'a decoded = Value of 'a | Corrupt of string

let decode data =
  let n = String.length data in
  if n < header_len then Corrupt "short entry (truncated header)"
  else if String.sub data 0 (String.length magic) <> magic then
    Corrupt "bad magic"
  else
    let stored = String.sub data (String.length magic) digest_len in
    let payload = String.sub data header_len (n - header_len) in
    if Digest.string payload <> stored then Corrupt "checksum mismatch"
    else
      (* Digest verified: the payload is bytes we marshalled.  A Failure
         here means a different compiler version wrote them. *)
      match Marshal.from_string payload 0 with
      | v -> Value v
      | exception _ -> Corrupt "unmarshallable payload (compiler change?)"

let mangle t ~site ~key data =
  match t.chaos with
  | Some c -> Chaos.mangle c ~site ~key data
  | None -> data

let note_corrupt t ~key reason =
  locked t (fun () -> t.corrupt <- t.corrupt + 1);
  emit t (Corrupt_entry { key; reason })

(* An I/O error on the cache directory disables persistence for the rest
   of the run — the pipeline must degrade to compute-only, not crash. *)
let note_io_error t ~op message =
  locked t (fun () ->
      t.io_errors <- t.io_errors + 1;
      t.dir <- None);
  emit t (Io_error { op; message })

let current_dir t = locked t (fun () -> t.dir)

(* A verified-corrupt entry is deleted so it cannot poison later runs;
   the caller recomputes and rewrites it (self-healing). *)
let load_disk t ~key =
  match current_dir t with
  | None -> None
  | Some dir -> (
      let file = path ~key dir in
      if not (Sys.file_exists file) then None
      else
        match In_channel.with_open_bin file In_channel.input_all with
        | exception Sys_error msg ->
            note_io_error t ~op:"read" msg;
            None
        | data -> (
            match decode (mangle t ~site:"cache-read" ~key data) with
            | Value v -> Some v
            | Corrupt reason ->
                (try Sys.remove file with Sys_error _ -> ());
                note_corrupt t ~key reason;
                None))

(* A concurrent domain may create the same directory between the check
   and the mkdir; that is success, not an error. *)
let mkdir_one dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()

let mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_one parent;
    mkdir_one dir
  end

(* Atomic publish: write a temp file, then rename, so a concurrent or
   interrupted writer can never leave a half-written entry behind. *)
let store_disk t ~key v =
  match current_dir t with
  | None -> false
  | Some dir -> (
      try
        let entry_dir = subdir ~key dir in
        mkdir_p entry_dir;
        let tmp = Filename.temp_file ~temp_dir:entry_dir ("." ^ key) ".tmp" in
        let data = mangle t ~site:"cache-write" ~key (encode v) in
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc data);
        Sys.rename tmp (path ~key dir);
        true
      with Sys_error msg ->
        note_io_error t ~op:"store" msg;
        false)

let find_or_compute t ~key f =
  if not t.enabled then f ()
  else
    match load_disk t ~key with
    | Some v ->
        locked t (fun () -> t.disk_hits <- t.disk_hits + 1);
        v
    | None ->
        let v = f () in
        let stored = store_disk t ~key v in
        locked t (fun () ->
            t.misses <- t.misses + 1;
            if stored then t.stores <- t.stores + 1);
        v

let persistent t = current_dir t <> None

let stats t =
  locked t (fun () ->
      {
        disk_hits = t.disk_hits;
        misses = t.misses;
        stores = t.stores;
        corrupt = t.corrupt;
        io_errors = t.io_errors;
      })

let reset_stats t =
  locked t (fun () ->
      t.disk_hits <- 0;
      t.misses <- 0;
      t.stores <- 0;
      t.corrupt <- 0;
      t.io_errors <- 0)

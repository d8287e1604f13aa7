type status = Hit | Joined | Led

type 'a flight = {
  mutable result : ('a, exn * Printexc.raw_backtrace) result option;
}

type 'a entry = Running of 'a flight | Done of { value : 'a; mutable used : int }

type stats = { hits : int; joined : int; led : int }

type ('k, 'a) t = {
  mu : Mutex.t;
  settled : Condition.t;  (* broadcast whenever a flight ends *)
  table : ('k, 'a entry) Hashtbl.t;
  capacity : int option;
  mutable size : int;  (* [Done] entries *)
  mutable tick : int;  (* recency clock *)
  mutable hits : int;
  mutable joined : int;
  mutable led : int;
}

let create ?capacity () =
  {
    mu = Mutex.create ();
    settled = Condition.create ();
    table = Hashtbl.create 16;
    capacity;
    size = 0;
    tick = 0;
    hits = 0;
    joined = 0;
    led = 0;
  }

let tick t =
  t.tick <- t.tick + 1;
  t.tick

(* Inserting past the capacity evicts the least recently used done
   value: a linear scan, paid once per computed value, never on a hit. *)
let evict t =
  let oldest =
    Hashtbl.fold
      (fun k e acc ->
        match (e, acc) with
        | Running _, _ -> acc
        | Done { used; _ }, Some (_, u) when u <= used -> acc
        | Done { used; _ }, _ -> Some (k, used))
      t.table None
  in
  Option.iter
    (fun (k, _) ->
      Hashtbl.remove t.table k;
      t.size <- t.size - 1)
    oldest

(* Under the lock: a successful value becomes done (if the capacity
   keeps any), a raise drops the entry; either way waiters wake. *)
let settle t ~key flight result =
  flight.result <- Some result;
  (match result with
  | Ok value when t.capacity <> Some 0 ->
      Hashtbl.replace t.table key (Done { value; used = tick t });
      t.size <- t.size + 1;
      (match t.capacity with Some n when t.size > n -> evict t | _ -> ())
  | _ -> Hashtbl.remove t.table key);
  Condition.broadcast t.settled

let unwrap status = function
  | Ok v -> (v, status)
  | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt

let find_or_run t ~key f =
  let claim () =
    match Hashtbl.find_opt t.table key with
    | Some (Done d) ->
        d.used <- tick t;
        t.hits <- t.hits + 1;
        `Hit d.value
    | Some (Running flight) ->
        t.joined <- t.joined + 1;
        let rec wait () =
          match flight.result with
          | Some r -> r
          | None ->
              Condition.wait t.settled t.mu;
              wait ()
        in
        `Joined (wait ())
    | None ->
        let flight = { result = None } in
        Hashtbl.replace t.table key (Running flight);
        t.led <- t.led + 1;
        `Lead flight
  in
  match Mutex.protect t.mu claim with
  | `Hit v -> (v, Hit)
  | `Joined r -> unwrap Joined r
  | `Lead flight ->
      let result =
        match f () with
        | v -> Ok v
        | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
      in
      Mutex.protect t.mu (fun () -> settle t ~key flight result);
      unwrap Led result

let get t ~key f = fst (find_or_run t ~key f)

let size t = Mutex.protect t.mu (fun () -> t.size)

let clear t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.filter_map_inplace
        (fun _ e -> match e with Running _ -> Some e | Done _ -> None)
        t.table;
      t.size <- 0)

let stats t =
  Mutex.protect t.mu (fun () ->
      { hits = t.hits; joined = t.joined; led = t.led })

let reset_stats t =
  Mutex.protect t.mu (fun () ->
      t.hits <- 0;
      t.joined <- 0;
      t.led <- 0)

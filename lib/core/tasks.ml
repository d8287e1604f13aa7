module Engine = Asipfb_engine.Engine
module Metrics = Asipfb_engine.Metrics
module Opt_level = Asipfb_sched.Opt_level
module Schedule = Asipfb_sched.Schedule
module Detect = Asipfb_chain.Detect
module Tsim = Asipfb_asip.Tsim
module Uarch = Asipfb_asip.Uarch
module Memo = Asipfb_util.Memo

type transform = Cleanup | Unroll

let transform_name = function Cleanup -> "cleanup" | Unroll -> "unroll"

let apply = function
  | Cleanup -> Asipfb_sched.Cleanup.run
  | Unroll -> Asipfb_sched.Unroll.loop_once

type variant = {
  v_prog : Asipfb_ir.Prog.t;
  v_profile : Asipfb_exec.Profile.t;
  v_sched : Schedule.t;
}

(* [profile] restricted to the opids of [prog]'s ops, in program order. *)
let restrict profile (prog : Asipfb_ir.Prog.t) =
  let module Profile = Asipfb_exec.Profile in
  let kept = Profile.create () in
  List.iter
    (fun (f : Asipfb_ir.Func.t) ->
      List.iter
        (fun i ->
          let opid = Asipfb_ir.Instr.opid i in
          let n = Profile.count profile ~opid in
          if n > 0 && Profile.count kept ~opid = 0 then
            Profile.add kept ~opid ~count:n)
        f.body)
    prog.funcs;
  kept

(* Cleanup keeps the opid of every op it keeps and removes only ops
   without side effects, so on the same inputs each op it keeps runs as
   often as in the base run: its profile is the base profile restricted
   to the cleaned program, with no run of its own.  Unroll duplicates
   ops, so its program is run. *)
let compute_variant transform (a : Pipeline.analysis) =
  let prog = apply transform a.prog in
  let profile =
    match transform with
    | Cleanup -> restrict a.profile prog
    | Unroll ->
        (Asipfb_sim.Interp.run prog ~inputs:(a.benchmark.inputs ())).profile
  in
  {
    v_prog = prog;
    v_profile = profile;
    v_sched = Schedule.optimize ~level:Opt_level.O1 prog;
  }

type product = {
  design : Timing.design Engine.cell;
  measured : Tsim.outcome Engine.cell;
}

type t = {
  engine : Engine.t;
  on_skip : (Pipeline.failure -> unit) option;
  variant_kind : variant Engine.kind;
  design_kind : Timing.design Engine.kind;
  measured_kind : Tsim.outcome Engine.kind;
  query_kind : Detect.report Engine.kind;
  variants : (string, variant Engine.cell) Memo.t;
  products : (string, product) Memo.t;
  queries : (string, Detect.report Engine.cell) Memo.t;
  extra_suite : (unit, Pipeline.analysis list Engine.cell) Memo.t;
}

(* The extra mix, analysed on the store's engine.  With [on_skip] a
   failed benchmark is left out and reported; without it the first
   failing benchmark, in mix order, fails the whole mix. *)
let analyse_extras engine on_skip =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | (_, Ok a) :: rest -> collect (a :: acc) rest
    | (b, Error exn) :: rest -> (
        match on_skip with
        | Some skip ->
            skip (Pipeline.failure_of_exn b exn);
            collect acc rest
        | None -> Error (exn, Printexc.get_callstack 0))
  in
  collect [] (Engine.analyze_all engine Asipfb_bench_suite.Extra.all)

let create ?on_skip engine =
  {
    engine;
    on_skip;
    variant_kind = Engine.kind engine "variant";
    design_kind = Engine.kind engine "product";
    measured_kind = Engine.kind engine "product";
    query_kind = Engine.kind engine "query";
    variants = Memo.create ();
    products = Memo.create ();
    queries = Memo.create ();
    extra_suite = Memo.create ();
  }

(* A structural digest: equal values give equal keys. *)
let identity v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let sched_key t (a : Pipeline.analysis) level =
  Engine.sched_key ~uarch:(Engine.uarch t.engine) a.benchmark level

let variant_key t transform (a : Pipeline.analysis) =
  Engine.content_key
    [ "variant"; Engine.source_key ~uarch:(Engine.uarch t.engine) a.benchmark;
      transform_name transform ]

let product_key t uarch a =
  Engine.content_key
    [ "product"; sched_key t a Opt_level.O1;
      identity (Timing.select_config ~uarch ()); Asipfb_exec.Code.version ]

let query_key t a level config =
  Engine.content_key [ "query"; sched_key t a level; identity config ]

let variant_cell t transform (a : Pipeline.analysis) =
  let key = variant_key t transform a in
  Memo.get t.variants ~key (fun () ->
      Metrics.timed Metrics.global "variant" (fun () ->
          Engine.run_task t.engine t.variant_kind ~key
            ~name:
              (Printf.sprintf "variant:%s@%s" a.benchmark.name
                 (transform_name transform))
            (fun _ -> compute_variant transform a)))

let product t uarch (a : Pipeline.analysis) =
  let key = product_key t uarch a in
  Memo.get t.products ~key (fun () ->
      Metrics.timed Metrics.global "product" (fun () ->
          let name =
            Printf.sprintf "product:%s@%s" a.benchmark.name (Uarch.key uarch)
          in
          let design =
            Engine.run_task t.engine t.design_kind ~key ~name (fun _ ->
                Timing.design ~uarch a Opt_level.O1)
          in
          let measured =
            Result.bind design (fun d ->
                Engine.run_task t.engine t.measured_kind
                  ~key:(Engine.content_key [ key; "measured" ])
                  ~name:(name ^ ":measured")
                  (fun _ -> Timing.measure a d))
          in
          { design; measured }))

let query_cell t (a : Pipeline.analysis) level config =
  let key = query_key t a level config in
  Memo.get t.queries ~key (fun () ->
      Metrics.timed Metrics.global "query" (fun () ->
          Engine.run_task t.engine t.query_kind ~key
            ~name:
              (Printf.sprintf "query:%s@%s/%d#%s" a.benchmark.name
                 (Opt_level.to_string level) config.Detect.length
                 (String.sub key 0 8))
            (fun _ -> Pipeline.run_detect a level config)))

let variant t transform a = Engine.value (variant_cell t transform a)
let design t uarch a = Engine.value (product t uarch a).design
let measured t uarch a = Engine.value (product t uarch a).measured
let query t a level config = Engine.value (query_cell t a level config)
(* Analysed once, so each skipped benchmark is reported once. *)
let extras t =
  Engine.value
    (Memo.get t.extra_suite ~key:() (fun () ->
         analyse_extras t.engine t.on_skip))

(* --- needs --------------------------------------------------------------- *)

type need = { key : string; weight : int; run : unit -> unit }

let need_variant t transform a =
  { key = variant_key t transform a;
    weight = 2;
    run = (fun () -> ignore (variant_cell t transform a)) }

let need_product t uarch a =
  { key = product_key t uarch a;
    weight = 1;
    run = (fun () -> ignore (product t uarch a)) }

let need_query t a level config =
  { key = query_key t a level config;
    weight = 0;
    run = (fun () -> ignore (query_cell t a level config)) }

let settle ~jobs needs =
  let seen = Hashtbl.create 256 in
  let distinct =
    List.filter
      (fun n ->
        (not (Hashtbl.mem seen n.key))
        && (Hashtbl.add seen n.key ();
            true))
      needs
  in
  let heaviest_first =
    List.stable_sort (fun x y -> compare y.weight x.weight) distinct
  in
  ignore
    (Asipfb_engine.Pool.run ~batch:1 ~jobs
       (Array.of_list (List.map (fun n () -> n.run ()) heaviest_first)))

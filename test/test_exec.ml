(* Differential tests for the execution core against the reference
   semantics.

   Interp executes through the pre-compiled core (Asipfb_exec);
   Verify.Semantics is the one reference TAC semantics, sharing no code
   with it.  These tests pin the contract: both are observationally
   identical — return value, final memory, profile, instruction count,
   trap messages, and (under equal seeds) the fault-injection stream — on
   the whole benchmark suite at every opt level and on random programs.
   Tsim rides the same core, so its cycle counts are checked against
   Interp's dynamic count on chain-free target programs. *)

module Lower = Asipfb_frontend.Lower
module Interp = Asipfb_sim.Interp
module Fallback = Asipfb_engine.Fallback
module Value = Asipfb_exec.Value
module Memory = Asipfb_exec.Memory
module Profile = Asipfb_exec.Profile
module Fault = Asipfb_exec.Fault
module Schedule = Asipfb_sched.Schedule
module Opt_level = Asipfb_sched.Opt_level
module Target = Asipfb_asip.Target
module Tsim = Asipfb_asip.Tsim
module Benchmark = Asipfb_bench_suite.Benchmark
module Registry = Asipfb_bench_suite.Registry
module Pipeline = Asipfb.Pipeline
module Diag = Asipfb_diag.Diag
module Code = Asipfb_exec.Code
module Core = Asipfb_exec.Core
module Prng = Asipfb_util.Prng
module Uarch = Asipfb_asip.Uarch
module Timing = Asipfb.Timing

(* Structural comparison (so identically-computed NaNs still agree). *)
let same a b = Stdlib.compare a b = 0

let profile_alist (o : Interp.outcome) =
  List.sort compare (Profile.to_alist o.profile)

let check_agree what (a : Interp.outcome) (b : Interp.outcome) =
  Alcotest.(check bool)
    (what ^ ": return value agrees") true
    (same a.return_value b.return_value);
  Alcotest.(check int) (what ^ ": instrs executed") b.instrs_executed
    a.instrs_executed;
  Alcotest.(check (list (pair int int)))
    (what ^ ": profile alist") (profile_alist b) (profile_alist a);
  Alcotest.(check (list string))
    (what ^ ": region list") (Memory.regions b.memory)
    (Memory.regions a.memory);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (what ^ ": region " ^ r) true
        (same (Memory.dump a.memory r) (Memory.dump b.memory r)))
    (Memory.regions a.memory)

(* --- whole suite x every opt level, with and without faults ------------- *)

let heavy = { Fault.seed = 7; reg_corrupt_rate = 0.01; mem_fault_rate = 0.01;
              fuel_cap = None }

let test_suite_differential () =
  List.iter
    (fun (b : Benchmark.t) ->
      let p = Benchmark.compile b in
      let inputs = b.inputs () in
      List.iter
        (fun level ->
          let prog = (Schedule.optimize ~level p).prog in
          let what =
            Printf.sprintf "%s/%s" b.name (Opt_level.to_string level)
          in
          check_agree what (Interp.run ~inputs prog)
            (Fallback.reference ~inputs prog);
          (* Equal seeds must give bit-identical fault streams: the core
             preserves the reference's PRNG draw order.  A corrupted index
             can legitimately crash the run (e.g. a load out of bounds) —
             then both interpreters must crash with the same message. *)
          let fa = Fault.create heavy and fb = Fault.create heavy in
          let outcome_of run faults =
            try Ok (run ~inputs ~faults prog)
            with Interp.Runtime_error m -> Error m
          in
          (match
             ( outcome_of (fun ~inputs ~faults p ->
                   Interp.run ~inputs ~faults p)
                 fa,
               outcome_of (fun ~inputs ~faults p ->
                   Fallback.reference ~inputs ~faults p)
                 fb )
           with
          | Ok a, Ok b -> check_agree (what ^ "+faults") a b
          | Error a, Error b ->
              Alcotest.(check string)
                (what ^ "+faults: both crash identically") b a
          | Ok _, Error m ->
              Alcotest.fail
                (what ^ "+faults: only the reference crashed: " ^ m)
          | Error m, Ok _ ->
              Alcotest.fail (what ^ "+faults: only the core crashed: " ^ m));
          Alcotest.(check int)
            (what ^ "+faults: injections agree")
            (Fault.injected_total fb) (Fault.injected_total fa))
        Opt_level.all)
    Registry.all

(* --- random programs (QCheck) ------------------------------------------- *)

let prop_core_matches_reference =
  QCheck2.Test.make ~name:"core agrees with reference on random programs"
    ~count:40 Gen_minic.gen_program (fun src ->
      let p = Lower.compile src ~entry:"main" in
      List.for_all
        (fun level ->
          let prog = (Schedule.optimize ~level p).prog in
          Fallback.outcomes_agree (Interp.run prog) (Fallback.reference prog))
        Opt_level.all)

(* --- trap messages ------------------------------------------------------ *)

(* One program per trap kind, built directly in IR so each traps at a
   known instruction; the core and the reference semantics must word every
   trap identically. *)
let trap_cases =
  let module B = Asipfb_ir.Builder in
  let module I = Asipfb_ir.Instr in
  let module T = Asipfb_ir.Types in
  let b = B.create () in
  let int name = B.fresh_reg b ~ty:T.Int ~name
  and float name = B.fresh_reg b ~ty:T.Float ~name in
  let binop op ty a c =
    let x = (if ty = T.Int then int else float) "x" in
    [ B.binop b op x a c ]
  in
  let cases =
    [
      ("integer division by zero",
       binop T.Div T.Int (I.Imm_int 1) (I.Imm_int 0));
      ("integer remainder by zero",
       binop T.Rem T.Int (I.Imm_int 1) (I.Imm_int 0));
      ("float division by zero",
       binop T.Fdiv T.Float (I.Imm_float 1.) (I.Imm_float 0.));
      ("shift out of range", binop T.Shl T.Int (I.Imm_int 1) (I.Imm_int 63));
      ("sqrt of a negative",
       [ B.unop b T.Sqrt (float "x") (I.Imm_float (-1.)) ]);
      ("out-of-bounds load", [ B.load b T.Int (int "x") "m" (I.Imm_int 4) ]);
      ("out-of-bounds store",
       [ B.store b T.Int "m" (I.Imm_int (-1)) (I.Imm_int 0) ]);
      ("uninitialized register", [ B.mov b (int "x") (I.Reg (int "y")) ]);
      ("both operands uninitialized",
       binop T.Add T.Int (I.Reg (int "u")) (I.Reg (int "v")));
      ("uninitialized operand beside a float",
       binop T.Fadd T.Float (I.Reg (float "u")) (I.Imm_float 1.));
    ]
  in
  let prog ?(ret = true) body =
    Asipfb_ir.Prog.make ~entry:"main"
      ~regions:[ { region_name = "m"; elt_ty = T.Int; size = 4 } ]
      ~funcs:
        [ Asipfb_ir.Func.make ~name:"main" ~params:[] ~ret_ty:None
            ~body:(if ret then body @ [ B.ret b None ] else body) ]
  in
  List.map (fun (kind, body) -> (kind, prog body)) cases
  @ [ ("fell off the end",
        prog ~ret:false [ B.mov b (int "x") (I.Imm_int 0) ]) ]

let test_trap_messages_agree () =
  List.iter
    (fun (kind, prog) ->
      let core =
        match Interp.run prog with
        | _ -> Alcotest.failf "%s: the core did not trap" kind
        | exception Interp.Runtime_error m -> m
      in
      match (Asipfb_verify.Semantics.run prog).result with
      | Trapped m -> Alcotest.(check string) kind core m
      | Returned _ | Out_of_fuel ->
          Alcotest.failf "%s: the semantics did not trap" kind)
    trap_cases

(* --- Tsim rides the same core ------------------------------------------- *)

let test_tsim_matches_interp () =
  List.iter
    (fun (b : Benchmark.t) ->
      let p = Benchmark.compile b in
      let inputs = b.inputs () in
      let o = Interp.run ~inputs p in
      let t = Tsim.run ~inputs (Target.of_prog p) in
      Alcotest.(check int)
        (b.name ^ ": chain-free cycles equal base dynamic count")
        o.instrs_executed t.cycles;
      Alcotest.(check int) (b.name ^ ": ops equal cycles") t.cycles
        t.ops_executed;
      Alcotest.(check int) (b.name ^ ": nothing chained") 0 t.chained_executed;
      Alcotest.(check bool) (b.name ^ ": return value agrees") true
        (same o.return_value t.return_value);
      List.iter
        (fun r ->
          Alcotest.(check bool) (b.name ^ ": region " ^ r) true
            (same (Memory.dump o.memory r) (Memory.dump t.memory r)))
        (Memory.regions o.memory))
    Registry.all

(* --- exact fuel and watchdog accounting ----------------------------------- *)

(* The core may charge fuel for a whole straight run of slots at once;
   these pin that it still stops at exactly the slot per-slot stepping
   would.  fir has three functions, so runs end at call slots too. *)
let fir_run ?fuel ?watchdog () =
  let b = Registry.find "fir" in
  Interp.run ?fuel ?watchdog ~inputs:(b.inputs ()) (Benchmark.compile b)

let test_fuel_exact () =
  let rng = Prng.create ~seed:20 in
  let random = List.init 30 (fun _ -> 1 + Prng.next_int rng ~bound:40738) in
  List.iter
    (fun f ->
      match fir_run ~fuel:f () with
      | _ -> Alcotest.failf "fuel %d: fir completed" f
      | exception Interp.Fuel_exhausted { instrs_executed; fuel } ->
          Alcotest.(check int) (Printf.sprintf "fuel %d: budget" f) f fuel;
          Alcotest.(check int)
            (Printf.sprintf "fuel %d: executed" f)
            f instrs_executed)
    ([ 1; 2; 7; 8191; 8192; 8193; 40738 ] @ random);
  Alcotest.(check int) "fuel 40739 completes" 40739
    (fir_run ~fuel:40739 ()).instrs_executed

let test_watchdog_exact () =
  List.iter
    (fun k ->
      let polls = ref 0 in
      let watchdog () =
        incr polls;
        !polls >= k
      in
      match fir_run ~watchdog () with
      | _ -> Alcotest.failf "poll %d: fir completed" k
      | exception Interp.Watchdog_timeout { instrs_executed } ->
          Alcotest.(check int)
            (Printf.sprintf "fires on poll %d" k)
            (k * Core.watchdog_interval) instrs_executed)
    [ 1; 2; 4 ]

(* --- the chained target rides the same core ----------------------------- *)

(* Per kernel: the O1 chained target's dynamic op count equals the base
   run's, and how many chained slots it executed under flat and risc5. *)
let chained_pins =
  [ ("fir", 6405, 6405); ("iir", 200, 200); ("pse", 5120, 6144);
    ("intfft", 7360, 8832); ("compress", 295488, 295488);
    ("flatten", 1407, 1407); ("smooth", 5808, 7260); ("edge", 4840, 4840);
    ("sewha", 744, 744); ("dft", 65536, 65536); ("bspline", 504, 2520);
    ("feowf", 768, 768) ]

let test_chained_target_counts () =
  List.iter
    (fun (name, flat, risc5) ->
      let a = Pipeline.analyze (Registry.find name) in
      List.iter
        (fun (uarch, chained) ->
          let what = name ^ "/" ^ Uarch.name uarch in
          let t = Timing.measure a (Timing.design ~uarch a Opt_level.O1) in
          Alcotest.(check int) (what ^ ": ops equal base instrs")
            a.outcome.instrs_executed t.ops_executed;
          Alcotest.(check int) (what ^ ": chained executed") chained
            t.chained_executed)
        [ (Uarch.flat, flat); (Uarch.risc5, risc5) ])
    chained_pins

(* --- sorted region listing (deterministic reports) ----------------------- *)

let test_regions_sorted () =
  let src =
    "int zz[2]; int aa[2]; int mm[2]; void main() { aa[0] = 1; zz[0] = 2; \
     mm[0] = 3; }"
  in
  let o = Interp.run (Lower.compile src ~entry:"main") in
  Alcotest.(check (list string))
    "regions listed in sorted order, not hash order" [ "aa"; "mm"; "zz" ]
    (Memory.regions o.memory)

(* --- timeout classification through the suite runner --------------------- *)

let test_timeout_classification () =
  let faults = { Fault.none with fuel_cap = Some 100 } in
  let r =
    Pipeline.run_suite ~faults
      ~benchmarks:[ Registry.find "fir" ]
      ~on_error:`Isolate ()
  in
  (match r.failures with
  | [ f ] ->
      Alcotest.(check bool) "fuel cap classified as timeout" true
        (Pipeline.classify_failure f = `Timeout)
  | _ -> Alcotest.fail "fuel cap of 100 must isolate fir");
  let crash =
    { Pipeline.failed_benchmark = "x";
      diag = Diag.make ~stage:Diag.Simulation "boom" }
  in
  Alcotest.(check bool) "plain diagnostic classified as crash" true
    (Pipeline.classify_failure crash = `Crash)

(* --- pre-compiled form sanity -------------------------------------------- *)

let test_code_shape () =
  let p =
    Lower.compile
      "int out[1]; void main() { int i; int s = 0; for (i = 0; i < 3; i++) \
       { s = s + i; } out[0] = s; }"
      ~entry:"main"
  in
  let c = Code.of_prog p in
  Alcotest.(check bool) "version tag non-empty" true
    (String.length Code.version > 0);
  Alcotest.(check bool) "labels occupy no slots" true
    (Code.slot_count c
    < List.fold_left
        (fun acc (f : Asipfb_ir.Func.t) -> acc + List.length f.body)
        0 p.funcs);
  (* Executing the compiled form must count exactly the slots the
     profile says ran: dense counters and slot model are consistent. *)
  let o = Interp.run p in
  Alcotest.(check int) "profile total equals instrs executed"
    o.instrs_executed
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (profile_alist o))

let suite =
  [
    ( "exec",
      [
        Alcotest.test_case "suite differential vs reference" `Quick
          test_suite_differential;
        Alcotest.test_case "tsim matches interp on chain-free code" `Quick
          test_tsim_matches_interp;
        Alcotest.test_case "trap messages agree" `Quick
          test_trap_messages_agree;
        Alcotest.test_case "fuel exhaustion is exact" `Quick test_fuel_exact;
        Alcotest.test_case "watchdog poll is exact" `Quick test_watchdog_exact;
        Alcotest.test_case "chained target op counts" `Quick
          test_chained_target_counts;
        Alcotest.test_case "regions sorted" `Quick test_regions_sorted;
        Alcotest.test_case "timeout classification" `Quick
          test_timeout_classification;
        Alcotest.test_case "pre-compiled form sanity" `Quick test_code_shape;
        QCheck_alcotest.to_alcotest prop_core_matches_reference;
      ] );
  ]

(** The report's keyed results beyond the base analysis, as engine tasks.

    Three kinds, each keyed like the engine's base and sched payloads and
    run through {!Asipfb_engine.Engine.run_task} (supervised,
    single-flight, cached):

    - a {e variant}: a transformed program, its profile and its O1
      schedule; key = (source key, transform name).  An unrolled program
      is profiled by one core run on the benchmark's inputs; a cleaned
      one takes the base profile restricted to the ops it kept;
    - a {e product}: the ASIP designed at O1 ({!Timing.design}) and its
      measured target run ({!Timing.measure}), kept apart so a failed
      measurement leaves the design usable; key = (O1 sched key, the
      selection config with its full uarch, {!Asipfb_exec.Code.version});
    - a {e query}: a detection report; key = (sched key, the full
      {!Asipfb_chain.Detect.config}).

    A store {!t} settles each result once per report: later asks return
    the same value, and a failure is kept with its backtrace and
    re-raised by every consumer.  Settling is charged to the
    {!Asipfb_engine.Metrics.global} stages ["variant"], ["product"] and
    ["query"]; the detections a query computes are also charged to
    ["detect"]. *)

type transform =
  | Cleanup  (** {!Asipfb_sched.Cleanup.run}. *)
  | Unroll  (** {!Asipfb_sched.Unroll.loop_once}. *)

val transform_name : transform -> string

type variant = {
  v_prog : Asipfb_ir.Prog.t;  (** The transformed program. *)
  v_profile : Asipfb_exec.Profile.t;
      (** Its profile on the benchmark's inputs. *)
  v_sched : Asipfb_sched.Schedule.t;  (** Its O1 schedule. *)
}

val compute_variant : transform -> Pipeline.analysis -> variant
(** Transform, profile and schedule one analysis's program, uncached. *)

type t

val create : ?on_skip:(Pipeline.failure -> unit) -> Asipfb_engine.Engine.t -> t
(** An empty store whose tasks run on (and are cached by) the engine.
    [on_skip] makes the extra mix keep going past a failed benchmark
    (see {!extras}). *)

val variant : t -> transform -> Pipeline.analysis -> variant

val design : t -> Asipfb_asip.Uarch.t -> Pipeline.analysis -> Timing.design
(** The product's design under [uarch] at O1 and the default area. *)

val measured :
  t -> Asipfb_asip.Uarch.t -> Pipeline.analysis -> Asipfb_asip.Tsim.outcome
(** The product's measured run; raises what {!Timing.measure} raised. *)

val query :
  t -> Pipeline.analysis -> Asipfb_sched.Opt_level.t ->
  Asipfb_chain.Detect.config -> Asipfb_chain.Detect.report

val extras : t -> Pipeline.analysis list
(** {!Asipfb_bench_suite.Extra.all}, analysed once on the store's
    engine.  With [on_skip], a benchmark whose analysis fails is left out
    and reported to [on_skip] once; without it, raises the first failing
    benchmark's exception (in mix order). *)

(** {1 Needs} *)

type need
(** One result a consumer will ask for. *)

val need_variant : t -> transform -> Pipeline.analysis -> need
val need_product : t -> Asipfb_asip.Uarch.t -> Pipeline.analysis -> need

val need_query :
  t -> Pipeline.analysis -> Asipfb_sched.Opt_level.t ->
  Asipfb_chain.Detect.config -> need

val settle : jobs:int -> need list -> unit
(** Settle every distinct need as one {!Asipfb_engine.Pool.run} phase on
    up to [jobs] domains, heaviest kind first (variants, products,
    queries).  Never raises: failures are kept for their consumers. *)

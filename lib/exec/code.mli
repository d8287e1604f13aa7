(** Pre-compiled executable form of a program.

    The paper's hot path — step-2 dynamic profiling — repeatedly walks
    3-address code.  This module compiles a program {e once} into a dense
    form the execution core ({!Core}) interprets with flat arrays only:

    - registers are renumbered into a compact per-function frame
      ([0..nregs-1], parameters first), so a register access is an array
      index instead of a hashtable probe;
    - memory regions are resolved to integer ids into a flat region table
      shared with the {!Memory} map;
    - labels disappear — jumps carry the target slot index directly — and
      call targets are resolved to function indices;
    - operands are pre-decoded ([Oconst] values are allocated at compile
      time, never per execution);
    - every op carries a dense profile-counter index ([pidx]); distinct
      ops sharing an opid (schedule copies) share one counter.

    Unresolvable references (unknown label / function / region) compile to
    trapping ops so a broken program fails exactly when the bad
    instruction executes, preserving the lazy failure of the reference
    semantics ([Asipfb_verify.Semantics]).

    The same form expresses target programs: a {!slot} is either a single
    op (one cycle) or a [Fused] group — a chained instruction whose
    members execute in order within one cycle — which is how
    [Asipfb_asip.Tsim] shares the base-op semantics.

    This form is plain data.  How the core runs it — unboxed int/float
    frames, one closure per slot built at the start of each run, no
    allocation per executed op, fuel charged per straight run of slots —
    is the core's business and changes neither the form nor its
    {!version}, as long as the observable semantics stay the same. *)

val version : string
(** Revision of the compilation scheme and core semantics; a component of
    the engine's content cache keys. *)

type operand = Oreg of int | Oconst of Value.t
    (** A frame slot or a pre-allocated immediate. *)

type okind =
  | Obinop of Asipfb_ir.Types.binop * int * operand * operand
  | Ounop of Asipfb_ir.Types.unop * int * operand
  | Ocmp_int of Asipfb_ir.Types.relop * int * operand * operand
  | Ocmp_float of Asipfb_ir.Types.relop * int * operand * operand
  | Omov of int * operand
  | Oload of int * int * operand  (** dst slot, region id, index. *)
  | Ostore of int * operand * operand  (** region id, index, value. *)
  | Ojump of int  (** Target slot index. *)
  | Ocond_jump of operand * int
  | Ocond_trap of operand * string
      (** Conditional jump that cannot be taken legally (to an unknown
          label, or from inside a fused group): traps only when taken. *)
  | Ocall of int * int * operand array
      (** dst slot (-1 for void), callee function index, args. *)
  | Oret of operand
  | Oret_void
  | Onop  (** A label mark inside a fused group. *)
  | Otrap of string  (** Traps with the message when executed. *)
  | Obad_region of string
      (** Access to an undeclared region: raises [Invalid_argument] when
          executed, like the {!Memory} lookup it replaces. *)

type op = {
  pidx : int;  (** Dense profile-counter index. *)
  orig : Asipfb_ir.Instr.t;  (** Source instruction, for trace hooks. *)
  body : okind;
}

type slot = Single of op | Fused of op array

type cfunc = {
  fname : string;
  fparams : int array;  (** Frame slots of the parameters, in order. *)
  nregs : int;  (** Frame size. *)
  reg_names : string array;  (** Slot -> source name, for diagnostics. *)
  code : slot array;  (** Label-free executable slots. *)
}

type region_info = { rname : string; rty : Asipfb_ir.Types.ty; rsize : int }

type t = {
  funcs : cfunc array;
  entry : int;  (** Index of the entry function. *)
  regions : region_info array;  (** Region id -> metadata. *)
  prog_regions : Asipfb_ir.Prog.region list;
      (** Original declarations, for {!Memory.of_regions}. *)
  prof_opids : int array;  (** Dense profile index -> opid. *)
}

type src_item =
  | Ione of Asipfb_ir.Instr.t  (** One slot (labels: no slot). *)
  | Igroup of Asipfb_ir.Instr.t list
      (** One fused slot — a chained instruction's members. *)

type src_func = {
  src_name : string;
  src_params : Asipfb_ir.Reg.t list;
  src_body : src_item list;
}

val compile :
  funcs:src_func list ->
  regions:Asipfb_ir.Prog.region list ->
  entry:string ->
  t
(** Compile a generic instruction stream — the entry point shared by base
    programs ({!of_prog}) and chained target programs.
    @raise Ops.Trap when [entry] names no function. *)

val of_prog : Asipfb_ir.Prog.t -> t
(** Compile a base program: every instruction its own slot. *)

val slot_count : t -> int
(** Total executable slots across all functions (labels excluded). *)

(* Language conformance matrix.

   Each case is a mini-C program with a hand-computed expected output.
   Every case is executed by six independent executors — the base
   interpreter, the O1- and O2-transformed programs, the cleaned-up
   program, the fused ASIP target, and the unrolled program — and all six
   must produce the expected values.  A final check is a QCheck property
   comparing compiled integer expressions against a direct OCaml
   evaluator. *)

module Lower = Asipfb_frontend.Lower
module Interp = Asipfb_sim.Interp
module Value = Asipfb_exec.Value
module Opt_level = Asipfb_sched.Opt_level

type case = {
  label : string;
  src : string;
  region : string;
  expect : Value.t list;  (** Prefix of the region to compare. *)
}

let vi n = Value.Vint n
let vf x = Value.Vfloat x

let cases =
  [
    { label = "operator precedence mix";
      src = "int out[4]; void main() { out[0] = 2 + 3 * 4 - 1; out[1] = (2 + 3) * (4 - 1); out[2] = 1 << 2 + 1; out[3] = 7 & 3 | 8; }";
      region = "out"; expect = [ vi 13; vi 15; vi 8; vi 11 ] };
    { label = "division and remainder signs";
      src = "int out[4]; void main() { out[0] = 7 / 2; out[1] = -7 / 2; out[2] = 7 % 2; out[3] = -7 % 2; }";
      region = "out"; expect = [ vi 3; vi (-3); vi 1; vi (-1) ] };
    { label = "comparison chain results";
      src = "int out[6]; void main() { out[0] = 1 < 2; out[1] = 2 < 1; out[2] = 2 <= 2; out[3] = 2 != 3; out[4] = 2 == 3; out[5] = 3 >= 4; }";
      region = "out"; expect = [ vi 1; vi 0; vi 1; vi 1; vi 0; vi 0 ] };
    { label = "short circuit avoids traps";
      src = "int a[1]; int out[2]; void main() { int z = 0; out[0] = z != 0 && 1 / z > 0; out[1] = z == 0 || 1 / z > 0; }";
      region = "out"; expect = [ vi 0; vi 1 ] };
    { label = "ternary nesting";
      src = "int out[3]; void main() { int x = 5; out[0] = x > 3 ? 1 : 2; out[1] = x > 9 ? 1 : x > 4 ? 7 : 8; out[2] = (x > 0 ? x : -x) * 2; }";
      region = "out"; expect = [ vi 1; vi 7; vi 10 ] };
    { label = "while with break-like guard";
      src = "int out[1]; void main() { int i = 0; int s = 0; while (i < 100 && s < 20) { s = s + i; i++; } out[0] = s; }";
      region = "out"; expect = [ vi 21 ] };
    { label = "for with stride";
      src = "int out[1]; void main() { int i; int s = 0; for (i = 0; i < 20; i += 3) s += i; out[0] = s; }";
      region = "out"; expect = [ vi 63 ] };
    { label = "countdown loop";
      src = "int out[1]; void main() { int i; int s = 0; for (i = 10; i > 0; i--) s += i; out[0] = s; }";
      region = "out"; expect = [ vi 55 ] };
    { label = "nested loop with dependent bound";
      src = "int out[1]; void main() { int i; int j; int s = 0; for (i = 0; i < 5; i++) for (j = 0; j < i; j++) s++; out[0] = s; }";
      region = "out"; expect = [ vi 10 ] };
    { label = "scoping and shadowing";
      src = "int out[3]; void main() { int x = 1; { int x = 2; out[0] = x; } out[1] = x; if (x == 1) { int x = 9; out[2] = x; } }";
      region = "out"; expect = [ vi 2; vi 1; vi 9 ] };
    { label = "casts round toward zero";
      src = "int out[4]; void main() { out[0] = (int)2.9; out[1] = (int)-2.9; out[2] = (int)((float)7 / 2.0); out[3] = (int)0.4; }";
      region = "out"; expect = [ vi 2; vi (-2); vi 3; vi 0 ] };
    { label = "float accumulate";
      src = "float out[1]; void main() { int i; float s = 0.0; for (i = 0; i < 4; i++) s = s + 0.25; out[0] = s; }";
      region = "out"; expect = [ vf 1.0 ] };
    { label = "mixed int float promotion";
      src = "float out[2]; void main() { int i = 3; out[0] = i + 0.5; out[1] = i / 2 + 0.0; }";
      region = "out"; expect = [ vf 3.5; vf 1.0 ] };
    { label = "function composition";
      src = "int out[1]; int sq(int x) { return x * x; } int inc(int x) { return x + 1; } void main() { out[0] = sq(inc(3)) - inc(sq(3)); }";
      region = "out"; expect = [ vi 6 ] };
    { label = "function changes globals";
      src = "int g[2]; int out[1]; void touch(int v) { g[0] = v; g[1] = g[0] + 1; } void main() { touch(5); out[0] = g[0] * 10 + g[1]; }";
      region = "out"; expect = [ vi 56 ] };
    { label = "argument evaluation uses values";
      src = "int out[1]; int f(int a, int b) { return a * 10 + b; } void main() { int x = 3; out[0] = f(x, x + 1); }";
      region = "out"; expect = [ vi 34 ] };
    { label = "array aliasing through indices";
      src = "int a[4]; int out[2]; void main() { int i = 1; a[i] = 5; a[i + 1] = a[i] * 2; out[0] = a[1]; out[1] = a[2]; }";
      region = "out"; expect = [ vi 5; vi 10 ] };
    { label = "compound assignment on array";
      src = "int a[2]; int out[1]; void main() { a[0] = 3; a[0] *= 4; a[0] += 2; a[0] -= 1; a[0] /= 2; out[0] = a[0]; }";
      region = "out"; expect = [ vi 6 ] };
    { label = "bitwise complement and masks";
      src = "int out[3]; void main() { out[0] = ~0; out[1] = ~5 & 15; out[2] = (255 >> 4) << 2; }";
      region = "out"; expect = [ vi (-1); vi 10; vi 60 ] };
    { label = "logical not chains";
      src = "int out[3]; void main() { out[0] = !5; out[1] = !!5; out[2] = !(3 < 2); }";
      region = "out"; expect = [ vi 0; vi 1; vi 1 ] };
    { label = "empty loop body";
      src = "int out[1]; void main() { int i; for (i = 0; i < 5; i++) { } out[0] = i; }";
      region = "out"; expect = [ vi 5 ] };
    { label = "loop never entered";
      src = "int out[1]; void main() { int i; int s = 99; for (i = 9; i < 3; i++) s = 0; out[0] = s; }";
      region = "out"; expect = [ vi 99 ] };
    { label = "if without else";
      src = "int out[2]; void main() { out[0] = 1; if (out[0] > 0) out[1] = 7; if (out[0] < 0) out[1] = 8; }";
      region = "out"; expect = [ vi 1; vi 7 ] };
    { label = "intrinsic math";
      src = "float out[3]; void main() { out[0] = sqrt(25.0); out[1] = fabs(-1.5); out[2] = sin(0.0) + cos(0.0); }";
      region = "out"; expect = [ vf 5.0; vf 1.5; vf 1.0 ] };
    { label = "float comparisons drive branches";
      src = "int out[2]; void main() { float x = 0.1; float y = 0.2; if (x + y > 0.25) out[0] = 1; else out[0] = 0; out[1] = x < y; }";
      region = "out"; expect = [ vi 1; vi 1 ] };
    { label = "deeply nested expressions";
      src = "int out[1]; void main() { out[0] = ((((1 + 2) * (3 + 4)) - ((5 - 6) * (7 - 8))) << 1) / 2; }";
      region = "out"; expect = [ vi 20 ] };
    { label = "accumulator through calls";
      src = "int out[1]; int add3(int a, int b, int c) { return a + b + c; } void main() { int s = 0; int i; for (i = 0; i < 3; i++) s = add3(s, i, 1); out[0] = s; }";
      region = "out"; expect = [ vi 6 ] };
    { label = "global array as scratch across functions";
      src = "int buf[8]; int out[1]; void fill() { int i; for (i = 0; i < 8; i++) buf[i] = i; } int total() { int i; int s = 0; for (i = 0; i < 8; i++) s += buf[i]; return s; } void main() { fill(); out[0] = total(); }";
      region = "out"; expect = [ vi 28 ] };
    { label = "comma declarations";
      src = "int out[1]; void main() { int a = 1, b = 2, c; c = a + b; out[0] = c; }";
      region = "out"; expect = [ vi 3 ] };
    { label = "break exits innermost loop";
      src = "int out[2]; void main() { int i; int s = 0; for (i = 0; i < 100; i++) { if (i == 5) break; s += i; } out[0] = s; out[1] = i; }";
      region = "out"; expect = [ vi 10; vi 5 ] };
    { label = "continue skips to step";
      src = "int out[1]; void main() { int i; int s = 0; for (i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; } out[0] = s; }";
      region = "out"; expect = [ vi 25 ] };
    { label = "continue in while re-tests";
      src = "int out[1]; void main() { int i = 0; int s = 0; while (i < 10) { i++; if (i > 5) continue; s += i; } out[0] = s; }";
      region = "out"; expect = [ vi 15 ] };
    { label = "break in nested loop only exits inner";
      src = "int out[1]; void main() { int i; int j; int s = 0; for (i = 0; i < 3; i++) { for (j = 0; j < 10; j++) { if (j == 2) break; s++; } } out[0] = s; }";
      region = "out"; expect = [ vi 6 ] };
    { label = "continue in nested loop binds inner";
      src = "int out[1]; void main() { int i; int j; int s = 0; for (i = 0; i < 3; i++) { for (j = 0; j < 4; j++) { if (j == 1) continue; s++; } s = s + 100; } out[0] = s; }";
      region = "out"; expect = [ vi 309 ] };
    { label = "unary minus on expressions";
      src = "int out[2]; void main() { int x = 4; out[0] = -x * 2; out[1] = -(x * 2); }";
      region = "out"; expect = [ vi (-8); vi (-8) ] };
  ]

(* The five executors; each returns the final contents of the region. *)
let executors :
    (string * (Asipfb_ir.Prog.t -> string -> Value.t array)) list =
  let via_interp p region =
    Asipfb_exec.Memory.dump (Interp.run p).memory region
  in
  let via_level level p region =
    let s = Asipfb_sched.Schedule.optimize ~level p in
    Asipfb_exec.Memory.dump (Interp.run s.prog).memory region
  in
  let via_cleanup p region =
    Asipfb_exec.Memory.dump (Interp.run (Asipfb_sched.Cleanup.run p)).memory
      region
  in
  let via_target p region =
    let sched = Asipfb_sched.Schedule.optimize ~level:Opt_level.O1 p in
    let profile = (Interp.run p).profile in
    let choices =
      Asipfb_asip.Select.choose Asipfb_asip.Select.default_config sched
        ~profile
    in
    let tp = Asipfb_asip.Codegen.generate_for_choices ~choices p in
    Asipfb_exec.Memory.dump (Asipfb_asip.Tsim.run tp).memory region
  in
  let via_unroll p region =
    Asipfb_exec.Memory.dump
      (Interp.run (Asipfb_sched.Unroll.loop_once p)).memory region
  in
  [ ("interp", via_interp); ("O1", via_level Opt_level.O1);
    ("O2", via_level Opt_level.O2); ("cleanup", via_cleanup);
    ("target", via_target); ("unrolled", via_unroll) ]

let run_case case () =
  let p = Lower.compile case.src ~entry:"main" in
  List.iter
    (fun (exec_name, exec) ->
      let got = exec p case.region in
      List.iteri
        (fun idx want ->
          Alcotest.(check bool)
            (Printf.sprintf "%s via %s [%d]" case.label exec_name idx)
            true
            (idx < Array.length got && Value.close want got.(idx)))
        case.expect)
    executors

(* --- differential expression property ------------------------------------ *)

(* Direct OCaml evaluation of the generator's expression grammar: variables
   a..d, the array m, and the operators gen_minic emits. *)
let eval_expr_src = Gen_minic.gen_expr 2

let prop_expr_matches_ocaml =
  QCheck2.Test.make ~name:"compiled expressions match OCaml evaluation"
    ~count:150 eval_expr_src (fun expr_src ->
      (* Environment fixed by the harness program below. *)
      let src =
        Printf.sprintf
          {|
int m[8];
int out[1];
void main() {
  int a = 1;
  int b = 2;
  int c = 3;
  int d = 4;
  int k;
  for (k = 0; k < 8; k++) { m[k] = k * 5 - 7; }
  out[0] = %s;
}
|}
          expr_src
      in
      (* OCaml-side evaluation by parsing the expression and interpreting
         the AST directly. *)
      let env = function
        | "a" -> 1 | "b" -> 2 | "c" -> 3 | "d" -> 4
        | v -> failwith ("unknown var " ^ v)
      in
      let m k = (k * 5) - 7 in
      let rec eval (e : Asipfb_frontend.Ast.expr) =
        match e.edesc with
        | Asipfb_frontend.Ast.Int_lit n -> n
        | Asipfb_frontend.Ast.Var v -> env v
        | Asipfb_frontend.Ast.Index ("m", i) -> m (eval i land 7)
        | Asipfb_frontend.Ast.Index _ -> failwith "unknown array"
        | Asipfb_frontend.Ast.Unary (Asipfb_frontend.Ast.Neg, a) -> -eval a
        | Asipfb_frontend.Ast.Binary (op, a, b) -> (
            let x = eval a and y = eval b in
            match op with
            | Asipfb_frontend.Ast.Add -> x + y
            | Asipfb_frontend.Ast.Sub -> x - y
            | Asipfb_frontend.Ast.Mul -> x * y
            | Asipfb_frontend.Ast.Band -> x land y
            | Asipfb_frontend.Ast.Bxor -> x lxor y
            | Asipfb_frontend.Ast.Shl -> x lsl y
            | Asipfb_frontend.Ast.Shr -> x asr y
            | _ -> failwith "operator outside the generator grammar")
        | _ -> failwith "node outside the generator grammar"
      in
      (* The generator writes m[<e> & 7], which parses as Binary(Band, e, 7)
         inside Index — handled by the [land 7] above composing with Band. *)
      let expected =
        eval (Asipfb_frontend.Parser.parse_expr expr_src)
      in
      let p = Lower.compile src ~entry:"main" in
      let o = Interp.run p in
      Value.as_int (Asipfb_exec.Memory.load o.memory "out" 0) = expected)

let suite =
  [
    ( "conformance",
      List.map
        (fun case -> Alcotest.test_case case.label `Quick (run_case case))
        cases
      @ [ QCheck_alcotest.to_alcotest prop_expr_matches_ocaml ] );
  ]

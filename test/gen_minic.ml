(* Random mini-C program generator for differential-testing properties.

   Programs are straight-line code, conditionals, and bounded loops over
   int scalars and one array; every array index is masked to stay in
   bounds and division is never generated, so any generated program runs
   without traps.  Used to check that the optimizing transformations
   preserve observable behaviour on inputs far messier than the curated
   benchmark suite. *)

open QCheck2.Gen

let var_names = [ "a"; "b"; "c"; "d" ]

(* Integer expressions over the declared scalars; depth-bounded. *)
let rec gen_expr depth =
  if depth <= 0 then
    oneof
      [ map string_of_int (int_range 0 9); oneofl var_names ]
  else
    let sub = gen_expr (depth - 1) in
    oneof
      [
        map string_of_int (int_range 0 9);
        oneofl var_names;
        map2 (Printf.sprintf "(%s + %s)") sub sub;
        map2 (Printf.sprintf "(%s - %s)") sub sub;
        map2 (Printf.sprintf "(%s * %s)") sub sub;
        map2 (Printf.sprintf "(%s & %s)") sub sub;
        map2 (Printf.sprintf "(%s ^ %s)") sub sub;
        map (Printf.sprintf "(%s << 1)") sub;
        map (Printf.sprintf "(%s >> 1)") sub;
        map (Printf.sprintf "(-%s)") sub;
        map2 (Printf.sprintf "(m[%s & 7] + %s)") sub sub;
      ]

let gen_assign =
  let* v = oneofl var_names in
  let* e = gen_expr 2 in
  return (Printf.sprintf "%s = %s;" v e)

let gen_array_store =
  let* i = gen_expr 1 in
  let* e = gen_expr 2 in
  return (Printf.sprintf "m[%s & 7] = %s;" i e)

let gen_if =
  let* c = gen_expr 1 in
  let* t = gen_assign in
  let* e = gen_assign in
  return (Printf.sprintf "if (%s > 0) { %s } else { %s }" c t e)

let gen_loop =
  let* bound = int_range 1 6 in
  let* body1 = oneof [ gen_assign; gen_array_store ] in
  let* body2 = gen_assign in
  return
    (Printf.sprintf "for (k = 0; k < %d; k++) { %s %s }" bound body1 body2)

let gen_stmt = frequency [ (4, gen_assign); (2, gen_array_store); (1, gen_if); (2, gen_loop) ]

let gen_program : string t =
  let* stmts = list_size (int_range 3 12) gen_stmt in
  let body = String.concat "\n  " stmts in
  return
    (Printf.sprintf
       {|
int m[8];
int out[8];
void main() {
  int a = 1;
  int b = 2;
  int c = 3;
  int d = 4;
  int k;
  %s
  out[0] = a; out[1] = b; out[2] = c; out[3] = d;
  for (k = 0; k < 8; k++) { out[4] = out[4] + m[k]; }
}
|}
       body)

(* Observable behaviour: the out region after execution. *)
let observe prog =
  let o = Asipfb_sim.Interp.run prog in
  Array.to_list (Asipfb_exec.Memory.dump o.memory "out")
  |> List.map Asipfb_exec.Value.to_string

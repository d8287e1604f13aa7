(* Structured-diagnostic tests: rendering, JSON, exception conversion. *)

module Diag = Asipfb_diag.Diag
module Json = Asipfb_service.Json
module Api = Asipfb_service.Api
module Frontend_diag = Asipfb_frontend.Frontend_diag
module Sim_diag = Asipfb_sim.Sim_diag
module Interp = Asipfb_sim.Interp
module Memory = Asipfb_exec.Memory

let test_to_string () =
  let d =
    Diag.make ~stage:Diag.Frontend ~file:"foo.c" ~pos:{ line = 3; col = 7 }
      ~context:[ ("phase", "parse") ]
      "syntax error: expected ')'"
  in
  Alcotest.(check string) "full rendering"
    "error[frontend] foo.c:3:7: syntax error: expected ')' (phase=parse)"
    (Diag.to_string d);
  let bare = Diag.make ~stage:Diag.Driver "plain message" in
  Alcotest.(check string) "bare rendering" "error[driver] plain message"
    (Diag.to_string bare);
  let warn = Diag.make ~severity:Diag.Warning ~stage:Diag.Detection "w" in
  Alcotest.(check string) "warning rendering" "warning[detection] w"
    (Diag.to_string warn);
  Alcotest.(check bool) "is_error" false (Diag.is_error warn)

(* The one JSON form of a diagnostic is the service's encoder. *)
let test_to_json () =
  let json d = Json.to_string (Api.diag_to_json d) in
  let d =
    Diag.make ~stage:Diag.Simulation ~context:[ ("region", "a") ]
      "bad \"quote\"\nnewline"
  in
  Alcotest.(check string) "json escaping"
    "{\"severity\":\"error\",\"stage\":\"simulation\",\"message\":\"bad \
     \\\"quote\\\"\\nnewline\",\"context\":{\"region\":\"a\"}}"
    (json d);
  let positioned =
    Diag.make ~severity:Diag.Warning ~stage:Diag.Frontend ~file:"dir\\a.c"
      ~pos:{ line = 3; col = 7 } "tab\there\001"
  in
  Alcotest.(check string) "file and position"
    "{\"severity\":\"warning\",\"stage\":\"frontend\",\"file\":\"dir\\\\a.c\",\
     \"line\":3,\"col\":7,\"message\":\"tab\\there\\u0001\"}"
    (json positioned)

let test_frontend_conversion () =
  (* Parser error carries its source position into the diagnostic. *)
  (match Frontend_diag.compile_result "int main( {" ~entry:"main" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error d ->
      Alcotest.(check bool) "stage" true (d.stage = Diag.Frontend);
      (match d.pos with
      | Some p ->
          Alcotest.(check int) "line" 1 p.line;
          Alcotest.(check bool) "col positive" true (p.col > 0)
      | None -> Alcotest.fail "expected a position");
      Alcotest.(check bool) "syntax prefix" true
        (String.length d.message > 13
        && String.sub d.message 0 13 = "syntax error:"));
  (* Semantic error likewise. *)
  (match
     Frontend_diag.compile_result "void main() { x = 1; }" ~entry:"main"
   with
  | Ok _ -> Alcotest.fail "expected sema error"
  | Error d ->
      Alcotest.(check bool) "sema stage" true (d.stage = Diag.Frontend);
      Alcotest.(check bool) "sema context" true
        (List.mem_assoc "phase" d.context));
  (* Valid source compiles. *)
  match Frontend_diag.compile_result "void main() { }" ~entry:"main" with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Diag.to_string d)

let test_sim_conversion () =
  (match Sim_diag.to_diag (Interp.Runtime_error "integer division by zero") with
  | Some d ->
      Alcotest.(check string) "runtime message"
        "runtime error: integer division by zero" d.message;
      Alcotest.(check bool) "sim stage" true (d.stage = Diag.Simulation)
  | None -> Alcotest.fail "Runtime_error must convert");
  (match Sim_diag.to_diag (Memory.Bounds ("a", 5)) with
  | Some d ->
      Alcotest.(check string) "bounds message"
        "memory access out of bounds: a[5]" d.message;
      Alcotest.(check bool) "bounds context" true
        (List.assoc_opt "region" d.context = Some "a"
        && List.assoc_opt "index" d.context = Some "5")
  | None -> Alcotest.fail "Bounds must convert");
  Alcotest.(check bool) "unrelated exception passes through" true
    (Sim_diag.to_diag Exit = None)

let test_pipeline_conversion () =
  let d = Asipfb.Pipeline.diag_of_exn (Failure "boom") in
  Alcotest.(check string) "failure message" "boom" d.message;
  Alcotest.(check bool) "failure stage" true (d.stage = Diag.Driver);
  let d =
    Asipfb.Pipeline.diag_of_exn (Asipfb_asip.Tsim.Runtime_error "tsim oops")
  in
  Alcotest.(check string) "tsim message" "runtime error: tsim oops" d.message;
  let unknown = Asipfb.Pipeline.diag_of_exn Exit in
  Alcotest.(check bool) "unknown becomes driver diag" true
    (unknown.stage = Diag.Driver);
  Alcotest.(check bool) "unknown tagged" true
    (List.assoc_opt "kind" unknown.context = Some "uncaught-exception")

let suite =
  [
    ( "diag",
      [
        Alcotest.test_case "to_string" `Quick test_to_string;
        Alcotest.test_case "to_json" `Quick test_to_json;
        Alcotest.test_case "frontend conversion" `Quick
          test_frontend_conversion;
        Alcotest.test_case "sim conversion" `Quick test_sim_conversion;
        Alcotest.test_case "pipeline conversion" `Quick
          test_pipeline_conversion;
      ] );
  ]

module Frontend = Asipfb_frontend
module Diag = Asipfb_diag.Diag

type mode = [ `Off | `Ir | `Full | `Tv ]

let mode_to_string = function
  | `Off -> "off"
  | `Ir -> "ir"
  | `Full -> "full"
  | `Tv -> "tv"

let lint_source source =
  match Frontend.Sema.check (Frontend.Parser.parse source) with
  | tast -> Lint.check tast
  | exception exn -> (
      match Frontend.Frontend_diag.to_diag exn with
      | Some d -> [ d ]
      | None -> raise exn)

let check_ir prog = Asipfb_ir.Validate.check_diags prog @ Ircheck.check prog

let check_schedule ~original:_ (sched : Asipfb_sched.Schedule.t) =
  Ircheck.check sched.prog

let check_refinement ~original (sched : Asipfb_sched.Schedule.t) =
  Equiv.to_diags
    ~context:[ ("level", Asipfb_sched.Opt_level.to_string sched.level) ]
    (Equiv.check ~original ~transformed:sched.prog ())

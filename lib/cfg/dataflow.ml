(* Generic iterative dataflow: one round-robin worklist solver
   parameterized over direction and a join semilattice of facts.
   Liveness and definite assignment (Defined) are instances; see
   dataflow.mli for the quadrant mapping. *)

module type DOMAIN = sig
  type fact

  val direction : [ `Forward | `Backward ]
  val init : fact
  val merge : Cfg.block -> fact list -> fact
  val transfer : Cfg.block -> fact -> fact
  val equal : fact -> fact -> bool
end

module Make (D : DOMAIN) = struct
  type result = { input : D.fact array; output : D.fact array }

  let solve (cfg : Cfg.t) : result =
    let n = Array.length cfg.blocks in
    let input = Array.make n D.init in
    let output = Array.make n D.init in
    (* Round-robin sweeps in an order that follows the flow direction
       (index order forward, reverse backward) so typical reducible
       graphs converge in a couple of passes; the fixpoint itself is
       order-independent. *)
    let order =
      match D.direction with
      | `Forward -> Array.init n (fun i -> i)
      | `Backward -> Array.init n (fun i -> n - 1 - i)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun idx ->
          let b = cfg.blocks.(idx) in
          match D.direction with
          | `Forward ->
              let inn = D.merge b (List.map (fun p -> output.(p)) b.preds) in
              let out = D.transfer b inn in
              if
                (not (D.equal inn input.(idx)))
                || not (D.equal out output.(idx))
              then begin
                input.(idx) <- inn;
                output.(idx) <- out;
                changed := true
              end
          | `Backward ->
              let out = D.merge b (List.map (fun s -> input.(s)) b.succs) in
              let inn = D.transfer b out in
              if
                (not (D.equal inn input.(idx)))
                || not (D.equal out output.(idx))
              then begin
                input.(idx) <- inn;
                output.(idx) <- out;
                changed := true
              end)
        order
    done;
    { input; output }
end

module Bv = Lr_bitvec.Bv
module N = Lr_netlist.Netlist
module Aig = Lr_aig.Aig
module Equiv = Lr_aig.Equiv
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module Instr = Lr_instr.Instr
module Soa = Lr_kernel.Soa

exception
  Check_failed of {
    stage : string;
    output : int;
    cex : Bv.t;
    detail : string;
  }

let message ~stage ~output ~cex ~detail =
  Printf.sprintf "check failed in %s: output %d differs on input %s (%s)" stage
    output (Bv.to_string cex) detail

let () =
  Printexc.register_printer (function
    | Check_failed { stage; output; cex; detail } ->
        Some (message ~stage ~output ~cex ~detail)
    | _ -> None)

let failed ~stage ~output ~cex ~detail =
  Instr.count "check.failed" 1;
  raise (Check_failed { stage; output; cex; detail })

(* each verification runs under a span named after the pipeline pass it
   re-checks ("check:aig-opt", "check:cover-min", ...) so the profiler can
   attribute check-phase time per pass; the prefix keeps the span name
   distinct from the phase names used for query attribution *)
let staged ~stage f = Instr.span ~name:("check:" ^ stage) f

(* a verdict counted, or raised with the output it names *)
let conclude ~stage ~detail = function
  | Equiv.Equivalent -> Instr.count "check.verified" 1
  | Equiv.Counterexample { output; cex } -> failed ~stage ~output ~cex ~detail

let verify_netlists ~stage ?rng before after =
  staged ~stage @@ fun () ->
  Instr.span ~name:"check.cec" (fun () ->
      conclude ~stage ~detail:"result differs from the step's input circuit"
        (Equiv.check ?rng before after))

let verify_aigs ~stage ?rng before after =
  staged ~stage @@ fun () ->
  Instr.span ~name:"check.cec-aig" (fun () ->
      conclude ~stage ~detail:"result differs from the step's input AIG"
        (Equiv.check_aig ?rng before after))

let verify_table ~stage ~circuit ~output ~bits ~to_full ~expected () =
  staged ~stage @@ fun () ->
  Instr.span ~name:"check.table" (fun () ->
      let ni = N.num_inputs circuit in
      let soa = Soa.of_netlist circuit in
      let size = 1 lsl bits in
      let words = Array.make ni 0L in
      let block = ref 0 in
      while !block * 64 < size do
        let base = !block * 64 in
        let lanes = min 64 (size - base) in
        Array.fill words 0 ni 0L;
        for j = 0 to lanes - 1 do
          let a = to_full (base + j) in
          for i = 0 to ni - 1 do
            if Bv.get a i then
              words.(i) <- Int64.logor words.(i) (Int64.shift_left 1L j)
          done
        done;
        let out = Soa.eval_words soa words in
        let w = out.(output) in
        for j = 0 to lanes - 1 do
          let got = Int64.logand (Int64.shift_right_logical w j) 1L = 1L in
          if got <> expected (base + j) then
            failed ~stage ~output ~cex:(to_full (base + j))
              ~detail:
                (Printf.sprintf "truth-table mismatch at index %d" (base + j))
        done;
        incr block
      done;
      Instr.count "check.verified" 1)

let verify_cover ~stage ?rng ~circuit ~output ~vars ~cover ~complemented () =
  staged ~stage @@ fun () ->
  Instr.span ~name:"check.cover" (fun () ->
      let aig = Aig.create ~num_inputs:(N.num_inputs circuit) ~num_outputs:1 in
      (* PI-level import: builder folding (e.g. NOT(Not y) = y) can make
         cone leaves bypass any internal cut, so both sides are expressed
         over the primary inputs *)
      let lit = Aig.import_netlist aig circuit in
      let cover_lit =
        List.fold_left
          (fun acc cube ->
            let cube_lit =
              List.fold_left
                (fun acc (v, ph) ->
                  let l = lit.(vars.(v)) in
                  Aig.and_lit aig acc (if ph then l else Aig.not_lit l))
                Aig.lit_true (Cube.literals cube)
            in
            Aig.or_lit aig acc cube_lit)
          Aig.lit_false (Cover.cubes cover)
      in
      let expected = if complemented then Aig.not_lit cover_lit else cover_lit in
      match
        Equiv.decide ?rng aig [| lit.(N.output circuit output) |] [| expected |]
      with
      | Equiv.Equivalent -> Instr.count "check.verified" 1
      | Equiv.Counterexample { cex; _ } ->
          failed ~stage ~output ~cex
            ~detail:"minimized cover differs from the built cone")

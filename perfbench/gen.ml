(* Seeded generator of scheduled data-flow graphs.

   A kernel is a random expression DAG over a few primary inputs built with
   [Hls.Kernel.Build] (add, sub and constant or variable multiplications;
   every result nobody consumes becomes a primary output), scheduled onto
   a fixed module allocation by [Hls.Schedule.list_schedule].  The same
   seed always gives the same problem. *)

type size = {
  ops : int;
  inputs : int;
  regs : int;  (** accepted minimum register count *)
  modules : Dfg.Fu_kind.t list;
}

(* Enum_engine-certifiable instances for the proof workloads. *)
let tiny =
  { ops = 5; inputs = 3; regs = 3; modules = [ Dfg.Fu_kind.multiplier; Dfg.Fu_kind.alu ] }

(* Paper-sized instances (fir6/iir3 scale) for the budgeted workloads. *)
let medium =
  {
    ops = 11;
    inputs = 4;
    regs = 4;
    modules = [ Dfg.Fu_kind.multiplier; Dfg.Fu_kind.alu; Dfg.Fu_kind.alu ];
  }

let kernel rng ~name size =
  let b = Hls.Kernel.Build.create name in
  let pool =
    ref
      (List.init size.inputs (fun i ->
           Hls.Kernel.Build.input b (Printf.sprintf "in%d" i)))
  in
  let results = ref [] and consumed = ref [] in
  let pick () =
    (* favour recent values so the DAG gets depth, not just width *)
    let n = List.length !pool in
    List.nth !pool (Random.State.int rng (min n 4))
  in
  let attempts = ref 0 in
  while List.length !results < size.ops && !attempts < 100 * size.ops do
    incr attempts;
    let x = pick () and y = pick () in
    let r =
      match Random.State.int rng 5 with
      | 0 | 1 -> Hls.Kernel.Build.add b x y
      | 2 -> Hls.Kernel.Build.sub b x y
      | 3 ->
          Hls.Kernel.Build.mul b x
            (Hls.Kernel.Build.const b (2 + Random.State.int rng 6))
      | _ -> Hls.Kernel.Build.mul b x y
    in
    consumed := x :: y :: !consumed;
    if not (List.mem r !results) then begin
      results := r :: !results;
      pool := r :: !pool
    end
  done;
  List.iteri
    (fun i r ->
      if not (List.mem r !consumed) then
        Hls.Kernel.Build.output b (Printf.sprintf "out%d" i) r)
    !results;
  Hls.Kernel.Build.finish b

(* [count] problems of [size] drawn from [seed]; a draw the scheduler
   rejects, with another register count, or that [accept] rejects is
   redrawn from the same stream. *)
let problems ?(accept = fun _ -> true) ~seed ~tag ~count size =
  let rng = Random.State.make [| seed; Hashtbl.hash tag |] in
  let rec draw i acc =
    if List.length acc = count then List.rev acc
    else
      let name = Printf.sprintf "%s%d" tag i in
      let k = kernel rng ~name size in
      match Hls.Schedule.list_schedule k ~modules:size.modules with
      | Ok p when Dfg.Problem.min_registers p = size.regs && accept p -> draw (i + 1) ((name, p) :: acc)
      | Ok _ | Error _ -> draw (i + 1) acc
  in
  draw 0 []

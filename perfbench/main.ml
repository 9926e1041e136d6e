(* The repository benchmark: four workloads over the public entry points of
   the synthesis flow and the ILP solver, each at a fixed amount of work
   (node budgets or proofs, never wall-clock limits).

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run prepares its instances (timed as [setup_s], several times before
   and between the passes), then repeats the workload's pass for about [S] seconds with statistics off
   and reports medians.  With [--trace 1] it repeats the pass for only
   about [S / 2] seconds, then runs two traced passes (solver statistics
   on, spans recorded around every public call) and reports the per-layer
   metrics instead.  The first pass's results are
   checked (design audits, pinned optima, Enum_engine and baseline
   cross-checks, warm-start dominance, LP round-trip audits) and every
   other pass must repeat them.  [--workload all] runs the four workloads
   in one process.  The last line of standard output is one JSON object;
   a human-readable summary goes to standard error, and the spans, the
   summary and a determinism fingerprint go to perfbench/out/. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---------------------------------------------------------------- *)
(* Instances *)

(* A synthesis job: the reference circuit plus the BIST rows [ks]
   ([None] = every k, through [Synth.sweep]). *)
type job = { jname : string; problem : Dfg.Problem.t; ks : int list option }

(* A model solved from its LP-format text, as [ilp_cli solve] does. *)
type lp_model = {
  lname : string;
  original : Ilp.Model.t;  (** the model as built, before export *)
  text : string;
  base_area : int;  (** plain-register area the model objective omits *)
  circuit : string;
  lk : int;
  lproblem : Dfg.Problem.t;
  certify : bool;  (** cross-check a proven optimum with Enum_engine *)
}

type workload = {
  wname : string;
  jobs : int;
  node_limit : int option;
  synth : job list;
  lp : lp_model list;
  certified : ((string * int) * int) list;
      (** (job, k) optima Enum_engine cross-checks, with its leaf budget *)
}

let find_circuit name = Option.get (Circuits.Suite.find name)
let all_ks p = List.init (Dfg.Problem.n_modules p) (fun i -> i + 1)

let job_ks j =
  0 :: (match j.ks with None -> all_ks j.problem | Some ks -> ks)

(* Areas proven optimal, pinned: (circuit, k) -> area; k = 0 is the
   reference circuit. *)
let pinned =
  [
    (("tseng", 0), 1440);
    (("tseng", 1), 2144);
    (("tseng", 2), 2016);
    (("tseng", 3), 1936);
    (("paulin", 0), 1680);
    (("iir3", 0), 2240);
  ]

let bist_feasible p =
  List.for_all
    (fun k -> Result.is_ok (Advbist.Heuristic.synthesize p ~k))
    (all_ks p)

(* Small enough for Enum_engine: the reference enumeration visits the
   same data paths as the BIST one, at a fraction of the cost per leaf. *)
let tiny_leaves = 400

let enum_certifiable p =
  Result.is_ok (Advbist.Enum_engine.reference ~max_leaves:tiny_leaves p)
  && bist_feasible p

let generated_medium ~seed ~tag ~count =
  Gen.problems ~accept:bist_feasible ~seed ~tag ~count Gen.medium

let generated_tiny ~seed ~count =
  Gen.problems ~accept:enum_certifiable ~seed ~tag:"tiny" ~count Gen.tiny

let lp_model ?(certify = false) circuit p k =
  let n_regs = Dfg.Problem.min_registers p in
  let e =
    if k = 0 then Advbist.Encoding.build_reference p ~n_regs
    else Advbist.Encoding.build p ~n_regs ~k
  in
  let original = e.Advbist.Encoding.model in
  {
    lname = Printf.sprintf "%s/%s" circuit (if k = 0 then "ref" else Printf.sprintf "k%d" k);
    original;
    text = Ilp.Lp_format.to_string original;
    base_area = e.Advbist.Encoding.base_area;
    circuit;
    lk = k;
    lproblem = p;
    certify;
  }

let tiny_jobs ~seed =
  List.map
    (fun (jname, problem) -> { jname; problem; ks = None })
    (generated_tiny ~seed ~count:2)

(* Enum_engine certifies the reference and k = 1 of each tiny instance, and
   the tseng reference (1440, its one paper optimum it finishes quickly). *)
let certified_optima jobs =
  ((("tseng", 0), 200_000))
  :: List.concat_map
       (fun j -> [ ((j.jname, 0), tiny_leaves); ((j.jname, 1), tiny_leaves) ])
       jobs

let workload name ~seed =
  match name with
  | "sweep-budget" ->
      let paper =
        List.map
          (fun (jname, problem) -> { jname; problem; ks = None })
          (Circuits.Suite.all @ Circuits.Suite.extras)
      in
      let gen =
        List.map
          (fun (jname, problem) -> { jname; problem; ks = None })
          (generated_medium ~seed ~tag:"sweep" ~count:1)
      in
      Some
        {
          wname = name;
          jobs = 1;
          node_limit = Some 2000;
          synth = paper @ gen;
          lp = [];
          certified = [];
        }
  | "prove" ->
      let tiny = tiny_jobs ~seed in
      Some
        {
          wname = name;
          jobs = 1;
          node_limit = None;
          synth =
            [
              { jname = "tseng"; problem = Dfg.Benchmarks.tseng; ks = None };
              { jname = "paulin"; problem = Dfg.Benchmarks.paulin; ks = Some [] };
              { jname = "iir3"; problem = find_circuit "iir3"; ks = Some [] };
            ]
            @ tiny;
          lp = [];
          certified = certified_optima tiny;
        }
  (* Left out of BENCHMARK.json: solve_parallel's node counts change from
     run to run on some seeds, and the determinism check fails the run. *)
  | "prove-j2" ->
      let tiny = tiny_jobs ~seed in
      let synth =
        { jname = "tseng"; problem = Dfg.Benchmarks.tseng; ks = Some [ 1; 2 ] }
        :: tiny
      in
      Some
        {
          wname = name;
          jobs = 2;
          node_limit = None;
          synth;
          lp = [];
          certified = certified_optima tiny;
        }
  | "lp-file" ->
      let tseng = Dfg.Benchmarks.tseng in
      let paper =
        [
          lp_model "tseng" tseng 0;
          lp_model "tseng" tseng 1;
          lp_model "paulin" Dfg.Benchmarks.paulin 0;
          lp_model "iir3" (find_circuit "iir3") 0;
        ]
      in
      let gen =
        List.map
          (fun (n, p) -> lp_model ~certify:true n p 0)
          (generated_tiny ~seed ~count:1)
      in
      Some
        {
          wname = name;
          jobs = 1;
          node_limit = Some 10_000;
          synth = [];
          lp = paper @ gen;
          certified = [];
        }
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Set-up: everything an instance needs before the solver runs *)

type prep = {
  rows : int;  (** encoding rows *)
  rows_after : int;  (** rows after presolve *)
  warm_area : int;  (** the heuristic warm start's area *)
  warm_cost : int;  (** ... and its objective cost *)
}

let setup_job j =
  let p = j.problem in
  let n_regs = Dfg.Problem.min_registers p in
  let d0 =
    Span.run_ ~layer:"Advbist.Heuristic" "Heuristic.netlist" (fun () ->
        Advbist.Heuristic.netlist p)
  in
  List.map
    (fun k ->
      let e =
        Span.run_ ~layer:"Advbist.Encoding" "Encoding.build" (fun () ->
            if k = 0 then Advbist.Encoding.build_reference p ~n_regs
            else Advbist.Encoding.build p ~n_regs ~k)
      in
      let model = e.Advbist.Encoding.model in
      let presolved, _ =
        Span.run_ ~layer:"Ilp.Presolve" "Presolve.strengthen" (fun () ->
            Ilp.Presolve.strengthen model)
      in
      let warm_area, warm_cost =
        match d0 with
        | Error _ -> (max_int, max_int)
        | Ok d when k = 0 ->
            let a = Datapath.Netlist.reference_area d in
            (a, a)
        | Ok d -> (
            match
              Span.run_ ~layer:"Advbist.Session_opt" "Session_opt.solve"
                (fun () -> Advbist.Session_opt.solve d ~k)
            with
            | Ok o ->
                ( Bist.Plan.area o.Advbist.Session_opt.plan,
                  Bist.Plan.objective_cost o.Advbist.Session_opt.plan )
            | Error _ -> (max_int, max_int))
      in
      ( (j.jname, k),
        {
          rows = Ilp.Model.n_constraints model;
          rows_after = Ilp.Model.n_constraints presolved;
          warm_area;
          warm_cost;
        } ))
    (job_ks j)

(* Returns the per-instance preparation of the synthesis jobs, and the wall
   time of each job's set-up or model's parse. *)
let setup w =
  let preps =
    List.map
      (fun j ->
        timed (fun () -> Span.run_ ~layer:"bench" j.jname (fun () -> setup_job j)))
      w.synth
  in
  let parses =
    List.map
      (fun m ->
        snd
          (timed (fun () ->
               Span.run_ ~layer:"Ilp.Lp_parse" "Lp_parse.of_string" (fun () ->
                   Ilp.Lp_parse.of_string m.text))))
      w.lp
  in
  (List.concat_map fst preps, List.map snd preps @ parses)

(* ---------------------------------------------------------------- *)
(* One pass *)

type design =
  | Ref_design of Advbist.Synth.reference
  | Bist_design of Advbist.Synth.outcome
  | Lp_solution of Ilp.Solver.outcome * Ilp.Model.t  (** the parsed model *)

type row = {
  inst : string;  (** "circuit/ref", "circuit/k2" *)
  circuit : string;
  k : int;
  result : (design, string) result;
}

let row_name circuit k =
  Printf.sprintf "%s/%s" circuit (if k = 0 then "ref" else Printf.sprintf "k%d" k)

let cost r =
  match r.result with
  | Ok (Ref_design d) -> d.Advbist.Synth.ref_area
  | Ok (Bist_design o) -> o.Advbist.Synth.area
  | Ok (Lp_solution (o, _)) -> Option.value ~default:0 o.Ilp.Solver.objective
  | Error _ -> 0

let proved r =
  match r.result with
  | Ok (Ref_design d) -> d.Advbist.Synth.ref_optimal
  | Ok (Bist_design o) -> o.Advbist.Synth.optimal
  | Ok (Lp_solution (o, _)) -> o.Ilp.Solver.status = Ilp.Solver.Optimal
  | Error _ -> false

let nodes r =
  match r.result with
  | Ok (Ref_design d) -> (
      match d.Advbist.Synth.ref_stats with
      | Some s -> Ilp.Stats.total_nodes s
      | None -> -1)
  | Ok (Bist_design o) -> o.Advbist.Synth.nodes
  | Ok (Lp_solution (o, _)) -> o.Ilp.Solver.nodes
  | Error _ -> -1

let stats r =
  match r.result with
  | Ok (Ref_design d) -> d.Advbist.Synth.ref_stats
  | Ok (Bist_design o) -> o.Advbist.Synth.stats
  | Ok (Lp_solution (o, _)) -> o.Ilp.Solver.stats
  | Error _ -> None

let solve_time r =
  match r.result with
  | Ok (Ref_design d) -> d.Advbist.Synth.ref_time
  | Ok (Bist_design o) -> o.Advbist.Synth.solve_time
  | Ok (Lp_solution (o, _)) -> o.Ilp.Solver.time_s
  | Error _ -> 0.0

(* Spans for one solver call's phases, derived from its stats record.
   [lp_s] and [probe_s] are summed over workers, so at jobs >= 2 they are
   scaled to fit inside the search wall clock. *)
let solver_spans ~parent ~start ~time_s (s : Ilp.Stats.t) =
  if !Span.on && parent >= 0 then begin
    let solver =
      Span.add ~parent ~layer:"Ilp.Solver" ~name:"Solver.solve" ~start
        ~stop:(start +. time_s)
    in
    let t = ref start in
    let phase layer name dur =
      let dur = Float.max 0.0 dur in
      let id = Span.add ~parent:solver ~layer ~name ~start:!t ~stop:(!t +. dur) in
      t := !t +. dur;
      id
    in
    ignore (phase "Ilp.Symmetry" "prepare" s.Ilp.Stats.prepare_s);
    ignore (phase "Ilp.Cuts" "cuts" s.Ilp.Stats.cuts_s);
    ignore (phase "Ilp.Solver.build" "build" s.Ilp.Stats.build_s);
    ignore (phase "Ilp.Solver.root" "root" s.Ilp.Stats.root_s);
    let search_start = !t in
    let search = phase "Ilp.Solver.search" "search" s.Ilp.Stats.search_s in
    let inner = s.Ilp.Stats.probe_s +. s.Ilp.Stats.lp_s in
    let scale =
      if inner > s.Ilp.Stats.search_s && inner > 0.0 then
        s.Ilp.Stats.search_s /. inner
      else 1.0
    in
    let probe_stop = search_start +. (scale *. s.Ilp.Stats.probe_s) in
    ignore
      (Span.add ~parent:search ~layer:"Ilp.Solver.probe" ~name:"probe"
         ~start:search_start ~stop:probe_stop);
    ignore
      (Span.add ~parent:search ~layer:"Ilp.Simplex" ~name:"lp" ~start:probe_stop
         ~stop:(probe_stop +. (scale *. s.Ilp.Stats.lp_s)))
  end

(* Children of a Synth call: per solve, the caller-side presolve and the
   solver call with its phases, laid back to back. *)
let synth_spans ~parent ~start rows =
  if !Span.on && parent >= 0 then begin
    let t = ref start in
    List.iter
      (fun r ->
        match stats r with
        | None -> ()
        | Some s ->
            let pre = s.Ilp.Stats.presolve_s in
            ignore
              (Span.add ~parent ~layer:"Ilp.Presolve" ~name:"presolve" ~start:!t
                 ~stop:(!t +. pre));
            t := !t +. pre;
            let time_s = solve_time r in
            solver_spans ~parent ~start:!t ~time_s s;
            t := !t +. time_s)
      rows
  end

let run_job w ~stats j =
  let node_limit = w.node_limit and jobs = w.jobs in
  let p = j.problem in
  let rows_of_error ks msg =
    List.map
      (fun k -> { inst = row_name j.jname k; circuit = j.jname; k; result = Error msg })
      ks
  in
  let ks = job_ks j in
  let run () =
    match j.ks with
    | None -> (
        match Advbist.Synth.sweep ?node_limit ~jobs ~stats p with
        | Error msg -> rows_of_error ks msg
        | Ok (r, rows) ->
            { inst = row_name j.jname 0; circuit = j.jname; k = 0; result = Ok (Ref_design r) }
            :: List.map
                 (fun (row : Advbist.Synth.sweep_row) ->
                   {
                     inst = row_name j.jname row.Advbist.Synth.k;
                     circuit = j.jname;
                     k = row.Advbist.Synth.k;
                     result = Ok (Bist_design row.Advbist.Synth.outcome);
                   })
                 rows)
    | Some bist_ks -> (
        match Advbist.Synth.reference ?node_limit ~jobs ~stats p with
        | Error msg -> rows_of_error ks msg
        | Ok r ->
            let ref_row =
              { inst = row_name j.jname 0; circuit = j.jname; k = 0; result = Ok (Ref_design r) }
            in
            (* seeded like Synth.sweep: each row from the previous design *)
            let _, rows =
              List.fold_left
                (fun (seed, acc) k ->
                  let result =
                    Result.map
                      (fun o -> Bist_design o)
                      (Advbist.Synth.synthesize ?node_limit ~jobs ~stats ~seed p ~k)
                  in
                  let seed =
                    match result with
                    | Ok (Bist_design o) -> o.Advbist.Synth.plan.Bist.Plan.netlist
                    | _ -> seed
                  in
                  (seed, { inst = row_name j.jname k; circuit = j.jname; k; result } :: acc))
                (r.Advbist.Synth.ref_netlist, [])
                bist_ks
            in
            ref_row :: List.rev rows)
  in
  let start = now () in
  let rows, id = Span.run ~layer:"Advbist.Synth" ("Synth:" ^ j.jname) run in
  synth_spans ~parent:id ~start rows;
  rows

(* The standalone path: parse the text, solve with the defaults. *)
let run_lp w ~stats m =
  let result =
    match
      Span.run_ ~layer:"Ilp.Lp_parse" "Lp_parse.of_string" (fun () ->
          Ilp.Lp_parse.of_string m.text)
    with
    | Error msg -> Error msg
    | Ok { Ilp.Lp_parse.model; _ } ->
        let options =
          { Ilp.Solver.default with Ilp.Solver.node_limit = w.node_limit; stats }
        in
        let start = now () in
        let o = Ilp.Solver.solve ~options model in
        Option.iter
          (solver_spans ~parent:(Span.current ()) ~start ~time_s:o.Ilp.Solver.time_s)
          o.Ilp.Solver.stats;
        Ok (Lp_solution (o, model))
  in
  { inst = m.lname; circuit = m.circuit; k = m.lk; result }

(* The pass's rows, and the wall time of each public call in it. *)
let run_pass w ~stats =
  let jobs =
    List.map
      (fun j ->
        timed (fun () -> Span.run_ ~layer:"bench" j.jname (fun () -> run_job w ~stats j)))
      w.synth
  and lps =
    List.map
      (fun m ->
        timed (fun () ->
            Span.run_ ~layer:"bench" m.lname (fun () -> run_lp w ~stats m)))
      w.lp
  in
  ( List.concat_map fst jobs @ List.map fst lps,
    List.map snd jobs @ List.map snd lps )

(* ---------------------------------------------------------------- *)
(* Correctness: audits and oracles, outside every metric *)

let baselines =
  [
    ("ADVAN", Baselines.Advan.synthesize);
    ("RALLOC", Baselines.Ralloc.synthesize);
    ("BITS", Baselines.Bits.synthesize);
  ]

let enum_cost ~max_leaves p k =
  if k = 0 then Advbist.Enum_engine.reference ~max_leaves p
  else
    Result.map
      (fun o -> Bist.Plan.objective_cost o.Advbist.Enum_engine.plan)
      (Advbist.Enum_engine.synthesize ~max_leaves p ~k)

(* Audits of one synthesis row: the design against its own area, the warm
   start, and for a proof the pinned optimum, Enum_engine and the
   baselines.  Returns the failures found. *)
let check_synth w preps (j : job) r =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let prep = List.assoc_opt (j.jname, r.k) preps in
  let certified = List.assoc_opt (j.jname, r.k) w.certified in
  (match r.result with
  | Error msg -> fail "error: %s" msg
  | Ok (Lp_solution _) -> fail "internal: LP result for a synthesis job"
  | Ok (Ref_design d) ->
      let area = d.Advbist.Synth.ref_area in
      let audited = Datapath.Netlist.reference_area d.Advbist.Synth.ref_netlist in
      if audited <> area then fail "reference area %d, netlist audits %d" area audited;
      (match prep with
      | Some p when area > p.warm_area ->
          fail "reference area %d worse than the heuristic's %d" area p.warm_area
      | _ -> ());
      if d.Advbist.Synth.ref_optimal then begin
        (match List.assoc_opt (j.jname, 0) pinned with
        | Some a when a <> area -> fail "proven reference area %d, expected %d" area a
        | _ -> ());
        match certified with
        | None -> ()
        | Some max_leaves -> (
          match enum_cost ~max_leaves j.problem 0 with
          | Ok a when a <> area -> fail "proven reference area %d, Enum_engine %d" area a
          | Ok _ | Error _ -> ())
      end
  | Ok (Bist_design o) ->
      let plan = o.Advbist.Synth.plan in
      let area = o.Advbist.Synth.area and obj = Bist.Plan.objective_cost plan in
      if Bist.Plan.area plan <> area then
        fail "reported area %d, plan audits %d" area (Bist.Plan.area plan);
      if plan.Bist.Plan.k <> r.k then fail "plan has k = %d" plan.Bist.Plan.k;
      (match prep with
      | Some p when obj > p.warm_cost ->
          fail "incumbent cost %d worse than the warm start's %d" obj p.warm_cost
      | _ -> ());
      if o.Advbist.Synth.optimal then begin
        (match List.assoc_opt (j.jname, r.k) pinned with
        | Some a when a <> area -> fail "proven area %d, expected %d" area a
        | _ -> ());
        (match certified with
        | None -> ()
        | Some max_leaves -> (
            match enum_cost ~max_leaves j.problem r.k with
            | Ok c when c <> obj -> fail "proven cost %d, Enum_engine %d" obj c
            | Ok _ | Error _ -> ()));
        (* dominance over the baselines that use the same register count *)
        List.iter
          (fun (bname, synth) ->
            match synth j.problem ~k:r.k with
            | Ok b
              when b.Bist.Plan.netlist.Datapath.Netlist.n_registers
                   = plan.Bist.Plan.netlist.Datapath.Netlist.n_registers
                   && Bist.Plan.objective_cost b < obj ->
                fail "proven cost %d beaten by %s's %d" obj bname
                  (Bist.Plan.objective_cost b)
            | Ok _ | Error _ -> ())
          baselines
      end);
  List.rev !errs

(* Audits of one LP-file solve against the model as built before export. *)
let check_lp (m : lp_model) r =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match r.result with
  | Error msg -> fail "error: %s" msg
  | Ok (Ref_design _ | Bist_design _) -> fail "internal: design for an LP job"
  | Ok (Lp_solution (o, parsed)) -> (
      match (o.Ilp.Solver.solution, o.Ilp.Solver.objective) with
      | None, _ | _, None -> fail "no incumbent within the node budget"
      | Some x, Some objective -> (
          (* back to the original variable indices, by name *)
          let index = Hashtbl.create 1024 in
          for v = 0 to Ilp.Model.n_vars parsed - 1 do
            Hashtbl.replace index (Ilp.Model.var_name parsed v) x.(v)
          done;
          let n = Ilp.Model.n_vars m.original in
          let missing = ref 0 in
          let y =
            Array.init n (fun v ->
                match Hashtbl.find_opt index (Ilp.Model.var_name m.original v) with
                | Some value -> value
                | None ->
                    incr missing;
                    0)
          in
          if !missing > 0 || n <> Ilp.Model.n_vars parsed then
            fail "%d of %d variables lost in the LP round trip" !missing n
          else
            match Ilp.Model.check m.original y with
            | Error why ->
                fail "incumbent violates the original model: %s"
                  (String.concat "; " (List.filteri (fun i _ -> i < 3) why))
            | Ok () ->
                let v = Ilp.Model.objective_value m.original y in
                if v <> objective then
                  fail "objective %d, original model evaluates %d" objective v;
                if o.Ilp.Solver.status = Ilp.Solver.Optimal then begin
                  (match List.assoc_opt (m.circuit, m.lk) pinned with
                  | Some a when a - m.base_area <> objective ->
                      fail "proven objective %d, expected %d" objective
                        (a - m.base_area)
                  | _ -> ());
                  if m.certify then
                    match enum_cost ~max_leaves:tiny_leaves m.lproblem m.lk with
                    | Ok c when c - m.base_area <> objective ->
                        fail "proven objective %d, Enum_engine %d" objective
                          (c - m.base_area)
                    | Ok _ | Error _ -> ()
                end)));
  List.rev !errs

let check w preps rows =
  List.map
    (fun r ->
      let errs =
        match List.find_opt (fun j -> j.jname = r.circuit) w.synth with
        | Some j -> check_synth w preps j r
        | None -> (
            match List.find_opt (fun m -> m.lname = r.inst) w.lp with
            | Some m -> check_lp m r
            | None -> [ "internal: unknown instance" ])
      in
      (r.inst, errs))
    rows

(* What must repeat exactly between passes and runs.  A reference solve
   reports its node count only through its stats record, so it is left out
   (statistics are off in the measured passes). *)
let signature rows =
  String.concat ";"
    (List.map
       (fun r ->
         Printf.sprintf "%s:%d:%b:%d" r.inst (cost r) (proved r)
           (if (match r.result with Ok (Ref_design _) -> true | _ -> false) then 0
            else nodes r))
       rows)

(* Instances whose results differ between two passes. *)
let diverging a b =
  List.filter_map
    (fun (x, y) ->
      let one r = signature [ r ] in
      if one x = one y then None else Some (x.inst, one x ^ " then " ^ one y))
    (List.combine a b)

(* ---------------------------------------------------------------- *)
(* Metrics *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Sum over calls of each call's median over repetitions: a slow spell of
   the machine then costs only the calls it hit in one repetition. *)
let sum_of_medians reps =
  match reps with
  | [] -> 0.0
  | first :: _ ->
      List.fold_left ( +. ) 0.0
        (List.mapi (fun i _ -> median (List.map (fun r -> List.nth r i) reps)) first)

(* Incumbent-versus-bound gap in percent: [Synth]'s own figure for BIST
   rows, the solver bound for LP files.  A reference solve reports no bound
   (and [Encoding.objective_lower_bound] covers only BIST encodings), so
   reference rows carry none. *)
let gap_pct r =
  match r.result with
  | Ok (Ref_design _) | Error _ -> None
  | Ok (Bist_design o) -> Some o.Advbist.Synth.gap_pct
  | Ok (Lp_solution (o, _)) -> (
      match (o.Ilp.Solver.status, o.Ilp.Solver.objective) with
      | Ilp.Solver.Optimal, _ -> Some 0.0
      | _, Some obj when o.Ilp.Solver.bound > min_int ->
          Some
            (Float.min 100.0
               (Float.max 0.0
                  (100.0 *. float_of_int (obj - o.Ilp.Solver.bound)
                  /. float_of_int (max 1 (abs obj)))))
      | _ -> Some 100.0)

let merged_stats rows =
  match List.filter_map stats rows with
  | [] -> Ilp.Stats.create ()
  | s :: rest -> List.fold_left Ilp.Stats.merge s rest

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b <= 0.0 then 0.0 else a /. b

let layer_time by_layer l = Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)

let shares =
  [
    ("share.bench_pct", "bench");
    ("share.synth_pct", "Advbist.Synth");
    ("share.lp_parse_pct", "Ilp.Lp_parse");
    ("share.presolve_pct", "Ilp.Presolve");
    ("share.symmetry_pct", "Ilp.Symmetry");
    ("share.cuts_pct", "Ilp.Cuts");
    ("share.build_pct", "Ilp.Solver.build");
    ("share.root_pct", "Ilp.Solver.root");
    ("share.search_pct", "Ilp.Solver.search");
    ("share.probe_pct", "Ilp.Solver.probe");
    ("share.lp_pct", "Ilp.Simplex");
    ("share.solver_other_pct", "Ilp.Solver");
  ]

(* Per-layer metrics of one traced set-up plus one traced pass. *)
let layer_metrics w ~preps ~setup_layers ~pass_layers ~pass_wall ~inflation rows =
  let s = merged_stats rows in
  let nodes = List.fold_left (fun acc r -> acc + max 0 (nodes r)) 0 rows in
  let synth_self = layer_time pass_layers "Advbist.Synth" in
  let parse_s = layer_time pass_layers "Ilp.Lp_parse" in
  let parse_bytes =
    List.fold_left (fun acc m -> acc + String.length m.text) 0 w.lp
  in
  let f name v unit = (name, v, unit) in
  let i name v unit = (name, float_of_int v, unit) in
  let setup_sum = List.fold_left (fun a l -> a +. layer_time setup_layers l) 0.0 in
  let sum_preps f = List.fold_left (fun a (_, p) -> a + f p) 0 preps in
  [
    f "encoding.build_s" (setup_sum [ "Advbist.Encoding" ]) "s";
    i "encoding.rows" (sum_preps (fun p -> p.rows)) "count";
    f "presolve.s" (setup_sum [ "Ilp.Presolve" ]) "s";
    i "presolve.rows_after" (sum_preps (fun p -> p.rows_after)) "count";
    f "warmstart.s" (setup_sum [ "Advbist.Heuristic"; "Advbist.Session_opt" ]) "s";
    i "warmstart.cost"
      (sum_preps (fun p -> if p.warm_area = max_int then 0 else p.warm_area))
      "area";
    f "synth.self_s" synth_self "s";
    f "lp_parse.s" parse_s "s";
    f "lp_parse.mb_per_s"
      (if w.lp = [] then 0.0 else fratio (float_of_int parse_bytes /. 1e6) parse_s)
      "MB/s";
    f "symmetry.prepare_s" s.Ilp.Stats.prepare_s "s";
    i "symmetry.orbit_fixings" s.Ilp.Stats.orbit_fixings "count";
    f "cuts.s" s.Ilp.Stats.cuts_s "s";
    i "cuts.rounds" s.Ilp.Stats.cut_rounds "count";
    i "cuts.kept" s.Ilp.Stats.cuts_kept "count";
    f "cuts.kept_ratio" (ratio s.Ilp.Stats.cuts_kept s.Ilp.Stats.cuts_generated) "ratio";
    f "lp.s" s.Ilp.Stats.lp_s "s";
    i "lp.iters" s.Ilp.Stats.lp_iters "count";
    i "lp.refactors" s.Ilp.Stats.lp_refactors "count";
    f "search.s" s.Ilp.Stats.search_s "s";
    i "search.nodes" nodes "count";
    f "search.nodes_per_s" (fratio (float_of_int nodes) s.Ilp.Stats.search_s) "1/s";
    f "root.s" s.Ilp.Stats.root_s "s";
    i "prop.ticks" s.Ilp.Stats.prop_ticks "count";
    f "prop.ticks_per_node" (ratio s.Ilp.Stats.prop_ticks nodes) "ratio";
    f "probe.s" s.Ilp.Stats.probe_s "s";
    i "probe.trials" s.Ilp.Stats.probe_trials "count";
    f "probe.hit_ratio" (ratio s.Ilp.Stats.probe_hits s.Ilp.Stats.probe_trials) "ratio";
    i "probe.skips" s.Ilp.Stats.probe_skips "count";
    i "conflict.conflicts" s.Ilp.Stats.conflicts "count";
    i "conflict.learned" s.Ilp.Stats.learned "count";
    i "conflict.backjumps" s.Ilp.Stats.backjumps "count";
  ]
  (* the work-stealing layer runs only at jobs >= 2 *)
  @ (if w.jobs < 2 then []
     else
       [
         i "parallel.subtrees" s.Ilp.Stats.subtrees "count";
         i "parallel.steals" s.Ilp.Stats.steals "count";
         f "parallel.node_inflation" inflation "ratio";
       ])
  @ List.map
      (fun (name, layer) ->
        f name (100.0 *. fratio (layer_time pass_layers layer) pass_wall) "%")
      shares

(* Count-type metrics must repeat exactly between passes and runs; only
   which worker ran a subtree depends on the schedule. *)
let is_count (name, _, unit) = unit = "count" && name <> "parallel.steals"

(* ---------------------------------------------------------------- *)
(* Driver *)

let out_dir = Filename.concat "perfbench" "out"

let write_file path contents =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path =
  match open_in path with
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some s
  | exception Sys_error _ -> None

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string name)
             (Span.json_float v) (Span.json_string unit))
         ms)
  ^ "}"

(* The benchmark's result: the last line of standard output. *)
let result_line ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (failed = 0) attempted failed (metrics_json metrics)

let allocated_mb () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)
  /. (1024.0 *. 1024.0)

(* Set-up repetitions, at least [reps] and for at least [secs] seconds of
   set-up calls (at most 100); each is the preparation and its call times. *)
let setup_reps w ~reps ~secs =
  let rec go acc elapsed =
    if List.length acc >= reps && (elapsed >= secs || List.length acc >= 100) then acc
    else begin
      Gc.compact ();
      let v, calls = setup w in
      go ((v, calls) :: acc) (elapsed +. List.fold_left ( +. ) 0.0 calls)
    end
  in
  go [] 0.0

type pass = { rows : row list; wall : float; alloc : float; calls : float list }

(* Measured passes, statistics and spans off: at least three, then while
   another one fits in [seconds].  Set-up is repeated for a second before
   the first pass and for a third of a second before each other one, so
   that [setup_s], too, samples the machine over the whole run and not
   only over its first seconds.  Returns the passes, the preparation and
   [setup_s]. *)
let measure_passes w ~seconds =
  let first = setup_reps w ~reps:5 ~secs:1.0 in
  let rec go acc setups elapsed =
    let n = List.length acc in
    let last = match acc with p :: _ -> p.wall | [] -> 0.0 in
    if n >= 3 && (elapsed +. last > seconds || n >= 50) then (List.rev acc, setups)
    else begin
      let setups = if n = 0 then setups else setup_reps w ~reps:1 ~secs:0.3 @ setups in
      Gc.compact ();
      let a0 = allocated_mb () in
      let (rows, calls), wall = timed (fun () -> run_pass w ~stats:false) in
      go ({ rows; wall; alloc = allocated_mb () -. a0; calls } :: acc) setups (elapsed +. wall)
    end
  in
  let passes, setups = go [] first 0.0 in
  (passes, fst (List.hd first), sum_of_medians (List.map snd setups))

(* Two traced passes.  Returns the per-layer metrics of the first, its
   spans, the rows of both, the metrics that did not repeat in the second,
   and the traced wall time. *)
let traced_layers w =
  let traced_pass () =
    Span.reset ();
    Span.on := true;
    let (preps, _), _ = Span.run ~layer:"bench" "setup" (fun () -> setup w) in
    let setup_layers = Span.self_by_layer () in
    Span.reset ();
    Gc.compact ();
    let ((rows, _), pass_wall), _ =
      Span.run ~layer:"bench" "pass" (fun () -> timed (fun () -> run_pass w ~stats:true))
    in
    let pass_layers = Span.self_by_layer () in
    let spans = Span.to_json () in
    Span.on := false;
    (rows, pass_wall, preps, setup_layers, pass_layers, spans)
  in
  let ((rows_a, wall_a, _, _, _, spans) as a) = traced_pass () in
  let ((rows_b, wall_b, _, _, _, _) as b) = traced_pass () in
  let total_nodes = List.fold_left (fun acc r -> acc + max 0 (nodes r)) 0 in
  let inflation =
    (* jobs = w.jobs nodes over jobs = 1 nodes, same instances *)
    if w.jobs < 2 then 0.0
    else ratio (total_nodes rows_a) (total_nodes (fst (run_pass { w with jobs = 1 } ~stats:true)))
  in
  let metrics (rows, pass_wall, preps, setup_layers, pass_layers, _) =
    layer_metrics w ~preps ~setup_layers ~pass_layers ~pass_wall ~inflation rows
  in
  let ma = metrics a and mb = metrics b in
  let unrepeated =
    List.filter_map
      (fun ((name, v, _) as m) ->
        match List.find_opt (fun (n, _, _) -> n = name) mb with
        | Some (_, v', _) when is_count m && v <> v' ->
            Some (Printf.sprintf "%s: %g then %g in the traced passes" name v v')
        | _ -> None)
      ma
  in
  (ma, spans, [ rows_a; rows_b ], unrepeated, median [ wall_a; wall_b ])

(* Determinism across runs: a later run of the same binary on the same seed
   must reproduce the counts the first one left in [out_dir]. *)
let fingerprint_differs path contents =
  match read_file path with
  | Some old
    when String.length old > 32 && String.sub old 0 32 = String.sub contents 0 32 ->
      old <> contents
  | Some _ | None ->
      write_file path contents;
      false

let report w ~seed ~passes ~rows ~failed_insts ~diverged ~problems metrics =
  Printf.eprintf "workload %s  seed %d  passes %d  instances %d\n" w.wname seed
    (List.length passes) (List.length rows);
  Printf.eprintf "  pass times: %s s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) passes));
  Printf.eprintf "  call medians: %s s\n"
    (String.concat " "
       (List.mapi
          (fun i name ->
            Printf.sprintf "%s=%.3f" name
              (median (List.map (fun p -> List.nth p.calls i) passes)))
          (List.map (fun j -> j.jname) w.synth @ List.map (fun m -> m.lname) w.lp)));
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-24s %14.4f %s\n" n v u) metrics;
  List.iter
    (fun r ->
      Printf.eprintf "    %-14s cost %6d %s nodes %7s gap %s\n" r.inst (cost r)
        (if proved r then "proved" else "      ")
        (if nodes r < 0 then "-" else string_of_int (nodes r))
        (match gap_pct r with Some g -> Printf.sprintf "%.1f%%" g | None -> "-"))
    rows;
  List.iter
    (fun (inst, errs) ->
      List.iter (fun e -> Printf.eprintf "  FAILED %s: %s\n" inst e) errs)
    failed_insts;
  List.iter
    (fun (inst, d) -> Printf.eprintf "  FAILED determinism %s: %s\n" inst d)
    diverged;
  List.iter (fun p -> Printf.eprintf "  FAILED determinism: %s\n" p) problems

let run_workload w ~seed ~seconds ~traced =
  (* a traced run spends half its time on the untraced passes, leaving
     room for the traced ones *)
  let passes, preps, setup_s =
    measure_passes w ~seconds:(if traced then seconds /. 2.0 else seconds)
  in
  let peak = peak_heap_mb () in
  let rows = (List.hd passes).rows in
  let wall_s = sum_of_medians (List.map (fun p -> p.calls) passes) in
  let alloc_mb = median (List.map (fun p -> p.alloc) passes) in
  let layer = if traced then Some (traced_layers w) else None in
  (* determinism: every pass, traced or not, against the first *)
  let diverged =
    List.concat
      (List.mapi
         (fun i r ->
           List.map
             (fun (inst, d) -> (inst, Printf.sprintf "pass %d vs pass 0: %s" i d))
             (diverging rows r))
         (List.map (fun p -> p.rows) passes
         @ match layer with Some (_, _, traced_rows, _, _) -> traced_rows | None -> []))
  in
  let counts =
    match layer with
    | None -> ""
    | Some (ms, _, _, _, _) ->
        "\n"
        ^ String.concat ";"
            (List.filter_map
               (fun ((n, v, _) as m) ->
                 if is_count m then Some (Printf.sprintf "%s=%g" n v) else None)
               ms)
  in
  let fp_path =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-trace%d.fingerprint" w.wname seed
         (if traced then 1 else 0))
  in
  let problems =
    (match layer with Some (_, _, _, unrepeated, _) -> unrepeated | None -> [])
    @
    if
      fingerprint_differs fp_path
        (Digest.to_hex (Digest.file Sys.executable_name) ^ "\n" ^ signature rows ^ counts)
    then [ "counts differ from an earlier run of this binary and seed" ]
    else []
  in
  let failed_insts =
    List.filter (fun (_, errs) -> errs <> []) (check w preps rows)
  in
  let n_passes = List.length passes in
  let attempted = List.length rows * n_passes in
  let failed =
    if problems <> [] then attempted
    else
      n_passes
      * List.length
          (List.sort_uniq compare (List.map fst failed_insts @ List.map fst diverged))
  in
  let gaps = List.filter_map gap_pct rows in
  let gap_mean =
    List.fold_left ( +. ) 0.0 gaps /. float_of_int (max 1 (List.length gaps))
  in
  let e2e =
    [
      ("wall_s", wall_s, "s");
      ("setup_s", setup_s, "s");
      ("cost_total", float_of_int (List.fold_left (fun a r -> a + cost r) 0 rows), "area");
      ("bound_pct_mean", 100.0 -. gap_mean, "%");
      ("alloc_mb", alloc_mb, "MB");
    ]
  and extra =
    [
      ("peak_heap_mb", peak, "MB");
      ("gap_pct_mean", gap_mean, "%");
      ("proved", float_of_int (List.length (List.filter proved rows)), "count");
      ("failed_frac", ratio failed attempted, "ratio");
    ]
  in
  report w ~seed ~passes ~rows ~failed_insts ~diverged ~problems (e2e @ extra);
  let metrics =
    match layer with
    | None -> e2e
    | Some (ms, spans, _, _, traced_wall) ->
        let overhead = 100.0 *. fratio (traced_wall -. wall_s) wall_s in
        let ms = ms @ [ ("trace.overhead_pct", overhead, "%") ] in
        List.iter (fun (n, v, u) -> Printf.eprintf "  %-24s %14.4f %s\n" n v u) ms;
        write_file
          (Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" w.wname seed))
          (Printf.sprintf
             "{\"workload\": %s, \"seed\": %d, \"trace.overhead_pct\": %s,\n \"spans\": %s}\n"
             (Span.json_string w.wname) seed (Span.json_float overhead) spans);
        ms
  in
  let line = result_line ~attempted ~failed metrics in
  write_file
    (Filename.concat out_dir
       (Printf.sprintf "%s-seed%d-trace%d.result.json" w.wname seed
          (if traced then 1 else 0)))
    (Printf.sprintf "{\"seed\": %d, \"summary\": %s,\n \"result\": %s}\n" seed
       (metrics_json (e2e @ extra)) line);
  (attempted, failed, metrics)

let () =
  let workload_name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, "NAME sweep-budget | prove | lp-file | prove-j2");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from traced passes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  (* "all" runs every workload in this one process; its metrics are
     prefixed with the workload's name *)
  let names =
    if !workload_name = "all" then [ "sweep-budget"; "prove"; "lp-file"; "prove-j2" ]
    else [ !workload_name ]
  in
  let results =
    List.map
      (fun name ->
        match workload name ~seed:!seed with
        | None ->
            prerr_endline ("unknown workload: " ^ name);
            exit 2
        | Some w ->
            let r = run_workload w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) in
            flush stderr;
            (name, r))
      names
  in
  let attempted = List.fold_left (fun a (_, (n, _, _)) -> a + n) 0 results
  and failed = List.fold_left (fun a (_, (_, n, _)) -> a + n) 0 results in
  let metrics =
    match results with
    | [ (_, (_, _, ms)) ] -> ms
    | _ ->
        List.concat_map
          (fun (name, (_, _, ms)) ->
            List.map (fun (n, v, u) -> (name ^ "." ^ n, v, u)) ms)
          results
  in
  print_endline (result_line ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)

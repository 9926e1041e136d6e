(** Solver bench snapshots: the on-disk JSON schema behind
    [BENCH_solver.json], and regression diffing between two snapshots.

    The writer emits schema version 7 ([advbist-solver-bench/7]).  Each
    row carries its area, optimality, gap, [nodes_per_sec] throughput,
    optional [phase_s] phase timings ({!Ilp.Stats.phases}), an optional
    search post-mortem from {!Ilp.Replay} ([waste_pct] — share of nodes
    an oracle incumbent would have skipped — and a [prune_shares] object
    mapping each prune reason to its percentage of the closed nodes,
    always emitted, possibly empty, on a row with a post-mortem) and the
    conflict-engine counters [conflicts], [learned], [deleted] from
    {!Ilp.Stats}, omitted when all zero.  Version 7 is version 6 without
    the per-row [restarts] counter and the [config.portfolio] flag; the
    parser reads versions 6 and 7 and ignores those two v6 fields.
    Parsing is restricted to the subset of JSON these snapshots use — it
    is a file format, not a general JSON library. *)

type row = {
  k : int;
  time_s : float;
  nodes : int;
  optimal : bool;
  area : int;
  overhead_pct : float;
  gap_pct : float;
  nodes_per_sec : float;  (** node throughput *)
  phase_s : (string * float) list;
      (** per-phase seconds, in emission order; [[]] when absent *)
  waste_pct : float option;
      (** {!Ilp.Replay.report.waste_pct} for this row's solve: percent
          of opened nodes whose parent bound already met the final
          incumbent; [None] when the bench ran without explain capture *)
  prune_shares : (string * float) list;
      (** per-reason percentage of all pruned nodes
          ({!Ilp.Replay.prune_shares}); [[]] on rows without a
          post-mortem *)
  conflicts : int;
      (** propagation conflicts analyzed by the conflict engine
          ({!Ilp.Stats.t.conflicts}) *)
  learned : int;  (** 1-UIP nogoods appended to the database *)
  deleted : int;  (** learned rows dropped by DB reduction *)
}

type circuit = {
  circuit : string;
  reference_area : int;
  reference_optimal : bool;
  wall_s : float;
  rows : row list;
}

type config = { cuts : bool; lp : string }

type t = {
  version : int;  (** schema version this snapshot was parsed from *)
  commit : string;
  budget_s : float;
  jobs : int;
  config : config;
  circuits : circuit list;
  total_wall_s : float;
}

val of_string : string -> (t, string) result
val of_file : string -> (t, string) result

val to_string : t -> string
(** Rendered as schema version 7, regardless of [version]; parsing the
    result back and rendering again is a fixpoint. *)

(** {2 Regression diffing} *)

type severity = Fail | Warn

type finding = {
  severity : severity;
  circuit : string;
  k : int option;  (** [None] for circuit-level findings *)
  what : string;
}

val diff : baseline:t -> current:t -> finding list
(** Row-by-row comparison, keyed on (circuit, k).

    [Fail]: a row's design area increased, a row lost proven optimality
    (optimal [true] -> [false]), or a baseline circuit/row is missing
    from [current].

    [Warn]: node count moved more than 20% in either direction (only on
    rows both snapshots prove optimal — on a budget-limited row the
    count is machine throughput, not tree size; when both rows carry
    [prune_shares] the finding names the prune reason whose share of
    the closed nodes moved most, localizing the regression to the
    pruning machinery responsible), wasted work ([waste_pct]) grew by
    more than 10 points of the node count, the
    conflict density ([conflicts] per node) grew by more than 20%
    (only when the baseline measured a nonzero rate), the
    optimality gap grew by more than 2 points, a row's solve time grew
    by more than 20% (and at least 0.1 s), node throughput
    ([nodes_per_sec]) dropped by more than 20% (only when both rows ran
    at least 0.05 s and the baseline measured a nonzero rate), a phase's
    share of the solve time shifted by more than 10 points (when both
    snapshots carry phase timings), or [current] has rows the baseline
    lacks.

    Findings are ordered circuit-by-circuit with failures first. *)

val has_failures : finding list -> bool

val render_report : baseline:t -> current:t -> finding list -> string
(** Human-readable report: header with both snapshots' commit/budget,
    one line per finding, and a PASS/FAIL summary line. *)

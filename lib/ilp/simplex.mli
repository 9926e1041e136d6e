(** Linear-programming relaxation solver: bounded-variable revised primal
    simplex with a two-phase start (artificial basis), Dantzig pricing with a
    Bland's-rule anti-cycling fallback, and periodic basis refactorization.

    All dense stores (basis inverse, bounds, costs, reduced costs, scratch
    vectors) live in flat unboxed [Bigarray.Array1] float64 buffers and the
    constraint matrix in a compressed sparse-column triplet, preallocated
    with the state, so the inner loops (pivot updates, ratio tests, dot
    products) are allocation-free and cache-linear.

    This is the LP oracle behind {!Solver}'s branch-and-bound bounding step
    and is usable on its own.  It works on floats; callers that need safe
    integer bounds should subtract a tolerance (see {!Solver}). *)

type result =
  | Optimal of { objective : float; primal : float array }
      (** [primal] has one entry per structural variable. *)
  | Infeasible
  | Unbounded
  | Iteration_limit

type problem = {
  n_vars : int;
  lower : float array;  (** per-variable lower bounds (finite) *)
  upper : float array;  (** per-variable upper bounds (may be [infinity]) *)
  objective : float array;  (** minimized *)
  rows : (Model.sense * (int * float) list * float) list;
      (** constraint sense, [(var, coef)] terms, right-hand side *)
}

val solve : ?max_iters:int -> problem -> result
(** [max_iters] defaults to [20_000]. *)

val relax :
  ?lower:int array -> ?upper:int array -> Model.t -> result
(** LP relaxation of an ILP model, optionally with tightened variable bounds
    (as maintained by branch-and-bound nodes). *)

val problem_of_model :
  ?lower:int array -> ?upper:int array -> Model.t -> problem
(** The LP relaxation as a {!problem}, without solving it. *)

(** {2 Persistent instances (warm-started dual simplex)}

    A persistent instance keeps the basis factorization alive across a
    branch-and-bound search.  Because reduced costs are independent of
    variable bounds, the optimal basis of a parent node stays dual feasible
    after any bound tightening, so {!resolve} re-optimizes child LPs in a
    handful of dual pivots instead of a two-phase solve from scratch. *)

type instance

type pricing =
  | Dantzig  (** most-violated basic bound leaves *)
  | Devex
      (** reference-weight pricing: largest violation^2 / weight leaves;
          weights grow with the pivot column and reset at refactorization.
          Cuts warm re-solve iteration counts on degenerate LPs. *)

val instance_of_problem : ?pricing:pricing -> problem -> instance option
(** [None] when some variable bound is infinite (the all-slack dual-feasible
    start needs every structural parked at a finite bound).  [pricing]
    defaults to [Devex]. *)

val instance_of_model :
  ?pricing:pricing ->
  ?lower:int array ->
  ?upper:int array ->
  Model.t ->
  instance option

val set_bounds : instance -> int -> lo:float -> up:float -> unit
(** Update one structural variable's bounds.  Preserves dual feasibility. *)

val resolve : ?max_iters:int -> instance -> result
(** Dual-simplex re-optimization from the current basis ([max_iters]
    defaults to [256]).  Leaving row by the instance's {!pricing} rule with
    a Bland's-rule fallback once the dual objective stalls — the stall
    counter is reset on every call, so a stalled parent solve never pins a
    child's warm re-solve to Bland.  Refactorizes every 512 pivots and
    audits the primal residual before declaring optimality.  [Infeasible]
    means the (dual unbounded) LP has no primal solution under the current
    bounds; [Iteration_limit] leaves the instance usable. *)

val add_row : instance -> (int * float) list -> float -> unit
(** [add_row t terms rhs] appends the cut [terms <= rhs] ([(var, coef)]
    pairs over structural variables).  The basis inverse is extended in
    O(m^2) with the new slack basic, keeping the basis dual feasible.
    {!save}d snapshots from before the call can no longer be restored. *)

val nonbasic_reduced_costs : instance -> (int * bool * float) list
(** After an [Optimal] {!resolve}: [(var, at_upper, d)] for each nonbasic
    structural with a significant reduced cost — the inputs to
    reduced-cost fixing.  [d > 0] at a lower bound, [d < 0] at an upper. *)

val dual_bound : instance -> float option
(** A weak-duality lower bound on the LP optimum from the current basis —
    valid even when {!resolve} stopped at its iteration cap with the basis
    still primal infeasible, so no capped solve is wasted.  [None] when no
    finite bound is available from the current prices. *)

val n_rows : instance -> int

val pivots : instance -> int
(** Cumulative dual pivots over the instance's lifetime (unaffected by
    refactorization and {!restore}). *)

val iters : instance -> int
(** Cumulative dual-simplex iterations over the instance's lifetime
    (pivots plus degenerate/repair iterations). *)

val refactors : instance -> int
(** Cumulative basis refactorizations over the instance's lifetime
    (periodic refreshes, drift audits, restores and cold restarts). *)

type snapshot
(** A saved basis (status + basic set) together with the variable bounds
    it was saved under. *)

val save : instance -> snapshot

val restore : instance -> snapshot -> bool
(** Reinstates the snapshot's bounds and refactorizes from its basis, so
    the instance's state afterwards does not depend on the bound changes
    and solves made since {!save}.  [false] if the snapshot predates an
    {!add_row} or the basis matrix has become singular. *)

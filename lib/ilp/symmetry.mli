(** Variable-interchangeability orbits: detection, exact verification, and
    lexicographic symmetry breaking.

    A model is {e symmetric} under a variable permutation when applying the
    permutation maps the constraint multiset onto itself and leaves bounds
    and objective coefficients unchanged — every feasible solution then maps
    to an equally-good feasible solution.  The branch-and-bound tree
    re-explores each symmetric image of a subtree unless told otherwise, so
    permutation-saturated models (the ADVBIST encodings are, per Section 3
    of the paper: interchangeable registers, interchangeable module
    instances, interchangeable sub-test sessions) pay an exponential tax.

    This module represents symmetry as {e orbits}:

    - a {!Scalar} orbit is a set of single variables on which the full
      symmetric group acts (any permutation of their values within a
      solution is again a solution);
    - a {!Blocks} orbit is a set of aligned variable {e columns} — swapping
      two whole columns component-wise is a model automorphism (e.g. all
      variables indexed by register [r] against those indexed by [r']).

    The canonical representative chosen is {e sorted-decreasing}: scalar
    orbit members satisfy [v_1 >= v_2 >= ...], block columns are
    lexicographically non-increasing.  {!add_lex_rows} materializes (a
    linear relaxation of) that ordering as root rows; the solver's orbit
    propagation pass enforces it exactly during search (orbital fixing).

    Every orbit handed to the solver must be a {e true} symmetry: orbits
    produced by {!detect} and those surviving {!filter_verified} are proven
    exactly (each adjacent transposition is checked to be a model
    automorphism; adjacent transpositions generate the full symmetric
    group, so sorting permutations are always automorphisms). *)

type orbit =
  | Scalar of int array
      (** interchangeable single variables, ascending variable index *)
  | Blocks of int array array
      (** interchangeable aligned columns: [cols.(j).(i)] is component [i]
          of column [j]; all columns have the same length, and component
          [i] of one column maps to component [i] of any other *)

val size : orbit -> int
(** Number of interchangeable objects (variables, or columns). *)

val vars : orbit -> int list
(** Every variable mentioned by the orbit. *)

type ctx
(** Preprocessed model view for repeated automorphism checks: the rows as
    CSR int arrays, their per-variable transpose, bounds and objective
    coefficients. *)

val make_ctx : Model.t -> ctx

val transposition_ok : ctx -> (int * int) list -> bool
(** [transposition_ok ctx pairs] — is the involution swapping each
    [(u, v)] of [pairs] a model automorphism?  Exact: bounds and objective
    coefficients must match pairwise and the constraint multiset must be
    invariant. *)

val verify : ctx -> orbit -> bool
(** Exact check that the orbit is a true symmetry: every adjacent
    transposition (of variables, or of whole columns component-wise) is an
    automorphism. *)

val filter_verified : Model.t -> orbit list -> orbit list
(** Keep only orbits that {!verify} accepts (and have at least two
    members).  Use on candidate orbits proposed from structural knowledge
    (e.g. {!Encoding}) before handing them to the solver. *)

val detect : ?max_vars:int -> ?max_nnz:int -> Model.t -> orbit list
(** Automatic scalar-orbit detection: iterative colour refinement over the
    variable/constraint incidence structure proposes candidate classes,
    which are then split into maximal runs of exactly-verified adjacent
    transpositions.  Only orbits of size >= 2 are returned, each ascending,
    the list ordered by smallest member.

    Colours are ints renumbered every pass from int keys: a variable by
    its previous colour and the multiset of (coefficient, row colour) over
    its occurrences, a row by sense, rhs and the multiset of (coefficient,
    variable colour).  Refinement stops once a pass leaves the number of
    variable classes unchanged — each pass refines the last, so that
    partition is the fixpoint — and after at most 8 passes.

    Returns [[]] immediately on models larger than [max_vars] variables
    (default 4000) or [max_nnz] constraint non-zeros (default 100_000) —
    detection is for small and mid-size models; large structured models
    should pass their known orbits explicitly. *)

val add_lex_rows : Model.t -> orbit list -> Model.t * int
(** A copy of the model with lexicographic ordering rows appended, and how
    many rows were added: [v_i >= v_{i+1}] for scalar orbits; for block
    orbits the exact binary-weighted lex row per adjacent column pair when
    the columns are all-binary and short enough, else the implied
    first-component ordering.  Returns the model unchanged (no copy) when
    [orbits] is empty.  Sound only when every orbit is a true symmetry. *)

val canonicalize : orbit list -> int array -> int array
(** Map a solution vector to its canonical symmetric image: scalar orbit
    values sorted decreasing, block columns sorted lexicographically
    non-increasing.  The result is feasible with the same objective
    whenever the orbits are true symmetries, and satisfies the
    {!add_lex_rows} ordering. *)

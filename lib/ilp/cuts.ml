(* Cutting-plane separation over the model's 0-1 rows.

   Every <=-row whose unfixed variables are all binary is normalized into a
   complemented knapsack  sum_j a_j y_j <= cap  with a_j > 0, where y_j is
   either x_j or its complement 1-x_j (variables entering with a negative
   coefficient are complemented; fixed variables are substituted into the
   right-hand side).  Two families of valid inequalities are separated
   against a fractional LP point:

   - extended cover cuts: a cover C (sum_C a_j > cap) gives
     sum_{C u E} y_j <= |C| - 1 with E = { j : a_j >= max_C a_i }.  The
     extension keeps the cut valid for any cover: if |C| items of C u E
     were 1, exchanging each chosen E-item for a distinct unchosen C-item
     only lowers the weight, which still exceeds cap.
   - clique cuts: sorting a knapsack's items by weight descending, the top
     t items are pairwise conflicting while a_{t-1} + a_t > cap, giving
     sum y <= 1 over the prefix; prefix cliques from all rows are merged
     through a conflict graph to catch cliques spanning rows.

   Cuts are returned over the original variables (complements expanded), as
   integer <=-rows ready for Model.add_le / Simplex.add_rows. *)

type cut = { terms : (int * int) list; rhs : int }

(* A literal is a variable or its complement, packed as 2v + (1 if
   complemented).  lv is the literal's value at the LP point. *)
let lit v comp = (2 * v) + if comp then 1 else 0
let lit_var l = l / 2
let lit_comp l = l land 1 = 1

type knapsack = {
  items : (int * int) array;  (* (weight a_j > 0, literal), any order *)
  cap : int;
}

let knapsacks_of_model (model : Model.t) =
  let n = Model.n_vars model in
  let fixed = Array.make n None in
  for v = 0 to n - 1 do
    let lb, ub = Model.bounds model v in
    if lb = ub then fixed.(v) <- Some lb
  done;
  let rows = ref [] in
  let consider terms rhs =
    (* terms: (coef, var) over the original row, <= rhs *)
    let cap = ref rhs in
    let items = ref [] in
    let ok = ref true in
    List.iter
      (fun (c, v) ->
        if c <> 0 then
          match fixed.(v) with
          | Some x -> cap := !cap - (c * x)
          | None ->
              if not (Model.is_binary model v) then ok := false
              else if c > 0 then items := (c, lit v false) :: !items
              else begin
                (* c x = -|c| x = |c| (1-x) - |c| *)
                cap := !cap + (-c);
                items := (-c, lit v true) :: !items
              end)
      terms;
    if !ok && List.compare_length_with !items 2 >= 0 then begin
      let items = Array.of_list !items in
      let total = Array.fold_left (fun acc (a, _) -> acc + a) 0 items in
      (* cap < 0 is an infeasible row (presolve's business, not ours);
         total <= cap is redundant *)
      if !cap >= 0 && total > !cap then
        rows := { items; cap = !cap } :: !rows
    end
  in
  Array.iter
    (fun (c : Model.constr) ->
      let terms = Linexpr.terms c.Model.expr in
      match c.Model.sense with
      | Model.Le -> consider terms c.Model.rhs
      | Model.Ge ->
          consider (List.map (fun (a, v) -> (-a, v)) terms) (-c.Model.rhs)
      | Model.Eq ->
          consider terms c.Model.rhs;
          consider (List.map (fun (a, v) -> (-a, v)) terms) (-c.Model.rhs))
    (Model.constraints model);
  !rows

let lit_value (x : float array) l =
  let v = x.(lit_var l) in
  if lit_comp l then 1.0 -. v else v

(* --- extended cover cuts ------------------------------------------------ *)

let cover_cut (x : float array) (k : knapsack) =
  (* Greedy cover: take items by (1 - lv)/a ascending (cheapest slack per
     unit weight first) until the weight exceeds cap, then minimalize. *)
  let scored =
    Array.map (fun (a, l) -> ((1.0 -. lit_value x l) /. float_of_int a, a, l))
      k.items
  in
  Array.sort (fun (s1, _, _) (s2, _, _) -> compare s1 s2) scored;
  let cover = ref [] and weight = ref 0 in
  (try
     Array.iter
       (fun (_, a, l) ->
         cover := (a, l) :: !cover;
         weight := !weight + a;
         if !weight > k.cap then raise Exit)
       scored
   with Exit -> ());
  if !weight <= k.cap then None
  else begin
    (* minimalize: drop any item whose removal keeps it a cover, lightest
       first, so the surviving max_C a_i stays small and E large *)
    let c =
      List.sort compare !cover
      |> List.filter (fun (a, _) ->
             if !weight - a > k.cap then begin
               weight := !weight - a;
               false
             end
             else true)
    in
    let size = List.length c in
    let amax = List.fold_left (fun acc (a, _) -> max acc a) 0 c in
    let in_c = Hashtbl.create 8 in
    List.iter (fun (_, l) -> Hashtbl.replace in_c l ()) c;
    let ext =
      Array.to_list k.items
      |> List.filter (fun (a, l) -> a >= amax && not (Hashtbl.mem in_c l))
    in
    let lits = List.map snd c @ List.map snd ext in
    let lhs =
      List.fold_left (fun acc l -> acc +. lit_value x l) 0.0 lits
    in
    let rhs = size - 1 in
    if lhs > float_of_int rhs +. 0.005 then
      Some (lits, rhs, lhs -. float_of_int rhs)
    else None
  end

(* --- conflict graph ----------------------------------------------------- *)

(* Conflict graph over literals: l1 -- l2 when y1 + y2 <= 1 is implied by
   some knapsack (the two heaviest of any prefix exceed cap together).
   Shared by the clique and odd-cycle separators. *)
let conflict_graph rows =
  let adj = Hashtbl.create 256 in
  let edge l1 l2 =
    if lit_var l1 <> lit_var l2 then begin
      let k = if l1 < l2 then (l1, l2) else (l2, l1) in
      Hashtbl.replace adj k ()
    end
  in
  List.iter
    (fun k ->
      let its = Array.copy k.items in
      Array.sort (fun (a1, _) (a2, _) -> compare a2 a1) its;
      let n = Array.length its in
      (* longest prefix that is pairwise conflicting: its two lightest
         members (the last two) must jointly exceed cap *)
      let t = ref n in
      while
        !t >= 2 && fst its.(!t - 2) + fst its.(!t - 1) <= k.cap
      do
        decr t
      done;
      let t = !t in
      if t >= 2 then begin
        for i = 0 to t - 2 do
          for j = i + 1 to t - 1 do
            edge (snd its.(i)) (snd its.(j))
          done
        done;
        (* items past the prefix still conflict with heavy prefix items *)
        for j = t to n - 1 do
          let i = ref 0 in
          while !i < t && fst its.(!i) + fst its.(j) > k.cap do
            edge (snd its.(!i)) (snd its.(j));
            incr i
          done
        done
      end)
    rows;
  adj

(* --- clique cuts -------------------------------------------------------- *)

let clique_cuts (x : float array) adj max_cuts =
  let conflict l1 l2 =
    Hashtbl.mem adj (if l1 < l2 then (l1, l2) else (l2, l1))
  in
  (* Grow cliques greedily from fractional literals, seeded by LP value. *)
  let cand =
    Hashtbl.fold (fun (l1, l2) () acc -> l1 :: l2 :: acc) adj []
    |> List.sort_uniq compare
    |> List.filter (fun l -> lit_value x l > 0.02)
    |> List.sort (fun l1 l2 -> compare (lit_value x l2) (lit_value x l1))
  in
  let cuts = ref [] and n_cuts = ref 0 in
  let used = Hashtbl.create 16 in
  List.iter
    (fun seed ->
      if !n_cuts < max_cuts && not (Hashtbl.mem used seed) then begin
        let clique = ref [ seed ] in
        let vars = Hashtbl.create 8 in
        Hashtbl.replace vars (lit_var seed) ();
        List.iter
          (fun l ->
            if
              (not (Hashtbl.mem vars (lit_var l)))
              && List.for_all (fun l' -> conflict l l') !clique
            then begin
              clique := l :: !clique;
              Hashtbl.replace vars (lit_var l) ()
            end)
          cand;
        let lhs =
          List.fold_left (fun acc l -> acc +. lit_value x l) 0.0 !clique
        in
        if List.compare_length_with !clique 2 >= 0 && lhs > 1.005 then begin
          List.iter (fun l -> Hashtbl.replace used l ()) !clique;
          cuts := (!clique, 1, lhs -. 1.0) :: !cuts;
          incr n_cuts
        end
      end)
    cand;
  !cuts

(* --- odd-cycle cuts ----------------------------------------------------- *)

(* An odd cycle C of the conflict graph gives sum_C y <= (|C| - 1) / 2.
   With edge weights w(u,v) = max 0 (1 - yu - yv), a simple odd cycle is
   violated exactly when its total weight is below 1, so separation is a
   minimum-weight odd closed walk per start vertex: Dijkstra over the
   doubled graph whose nodes are (literal, parity), every conflict edge
   connecting opposite parities.  Non-simple walks are discarded rather
   than decomposed — a violated simple cycle inside a violated walk is
   found again from another start vertex. *)
let odd_cycle_cuts (x : float array) adj max_cuts =
  (* adjacency restricted to fractional literals, as arrays for Dijkstra *)
  let nodes = Hashtbl.create 64 in
  let node_list = ref [] in
  let intern l =
    match Hashtbl.find_opt nodes l with
    | Some i -> i
    | None ->
        let i = Hashtbl.length nodes in
        Hashtbl.add nodes l i;
        node_list := l :: !node_list;
        i
  in
  let edges = ref [] in
  Hashtbl.iter
    (fun (l1, l2) () ->
      let y1 = lit_value x l1 and y2 = lit_value x l2 in
      if y1 > 0.02 && y2 > 0.02 then
        edges := (intern l1, intern l2, Float.max 0.0 (1.0 -. y1 -. y2)) :: !edges)
    adj;
  let n = Hashtbl.length nodes in
  if n < 3 then []
  else begin
    let lits = Array.of_list (List.rev !node_list) in
    let succ = Array.make n [] in
    List.iter
      (fun (u, v, w) ->
        succ.(u) <- (v, w) :: succ.(u);
        succ.(v) <- (u, w) :: succ.(v))
      !edges;
    (* doubled-graph Dijkstra from (s, even); target (s, odd) *)
    let dist = Array.make (2 * n) infinity in
    let prev = Array.make (2 * n) (-1) in
    let search s =
      Array.fill dist 0 (2 * n) infinity;
      Array.fill prev 0 (2 * n) (-1);
      let module Pq = Set.Make (struct
        type t = float * int

        let compare = compare
      end) in
      let pq = ref (Pq.singleton (0.0, 2 * s)) in
      dist.(2 * s) <- 0.0;
      while not (Pq.is_empty !pq) do
        let ((d, u) as m) = Pq.min_elt !pq in
        pq := Pq.remove m !pq;
        if d <= dist.(u) then
          List.iter
            (fun (v, w) ->
              (* crossing an edge flips parity *)
              let v' = (2 * v) lor (1 - (u land 1)) in
              let d' = d +. w in
              if d' < dist.(v') then begin
                dist.(v') <- d';
                prev.(v') <- u;
                pq := Pq.add (d', v') !pq
              end)
            succ.(u lsr 1)
      done;
      if dist.((2 * s) + 1) < 0.995 then begin
        (* walk back; keep only simple cycles *)
        let cycle = ref [] and u = ref ((2 * s) + 1) and ok = ref true in
        let seen = Hashtbl.create 8 in
        while !u >= 0 && !ok do
          let l = lits.(!u lsr 1) in
          if Hashtbl.mem seen l && !u <> (2 * s) + 1 && !u lsr 1 <> s then
            ok := false
          else begin
            Hashtbl.replace seen l ();
            cycle := l :: !cycle;
            u := prev.(!u)
          end
        done;
        match !cycle with
        | _ :: (_ :: _ :: _ as tail) when !ok && List.length tail mod 2 = 1 ->
            (* drop the duplicated start literal; an odd cycle remains *)
            let rhs = (List.length tail - 1) / 2 in
            let lhs =
              List.fold_left (fun acc l -> acc +. lit_value x l) 0.0 tail
            in
            if lhs > float_of_int rhs +. 0.005 then
              Some (tail, rhs, lhs -. float_of_int rhs)
            else None
        | _ -> None
      end
      else None
    in
    (* start from the most fractional literals: cycles through values near
       1/2 are where the inequality bites *)
    let starts =
      List.init n Fun.id
      |> List.sort (fun a b ->
             let f i = Float.abs (lit_value x lits.(i) -. 0.5) in
             compare (f a) (f b))
      |> List.filteri (fun i _ -> i < 32)
    in
    let cuts = ref [] and n_cuts = ref 0 in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun s ->
        if !n_cuts < max_cuts then
          match search s with
          | Some ((lits, _, _) as c) ->
              let key = List.sort compare lits in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                cuts := c :: !cuts;
                incr n_cuts
              end
          | None -> ())
      starts;
    !cuts
  end

(* --- {0,1/2}-Chvatal-Gomory cuts ---------------------------------------- *)

(* Weight-1/2 aggregation of two knapsack rows, coefficients and
   right-hand side rounded down: for integer a, b and nonnegative integer
   literals y,  sum floor((a_j + b_j) / 2) y_j <= floor((cap_a + cap_b) / 2)
   is valid (the unrounded half-sum dominates the floored left side, and
   an integer left side allows flooring the right).  The rounding gains
   strength only from odd entries, so candidate pairs are rows sharing a
   literal with odd combined coefficient or an odd combined cap. *)
let zero_half_cuts (x : float array) rows max_cuts =
  let rows = Array.of_list rows in
  let nr = Array.length rows in
  (* literal -> rows containing it with an odd coefficient *)
  let by_lit = Hashtbl.create 64 in
  Array.iteri
    (fun i k ->
      Array.iter
        (fun (a, l) ->
          if a land 1 = 1 then
            Hashtbl.replace by_lit l
              (i :: (match Hashtbl.find_opt by_lit l with Some r -> r | None -> [])))
        k.items)
    rows;
  let pairs = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ ris ->
      (* popular literals (shared by many rows) would contribute a
         quadratic pair blowup; the first few rows carry the signal *)
      let ris = List.filteri (fun i _ -> i < 16) ris in
      List.iter
        (fun i ->
          List.iter
            (fun j -> if i < j then Hashtbl.replace pairs (i, j) ())
            ris)
        ris)
    by_lit;
  let cuts = ref [] and n_cuts = ref 0 in
  let consider i j =
    if !n_cuts < max_cuts && i < nr && j < nr then begin
      let acc = Hashtbl.create 8 in
      let addk k =
        Array.iter
          (fun (a, l) ->
            Hashtbl.replace acc l
              (a + (match Hashtbl.find_opt acc l with Some c -> c | None -> 0)))
          k.items
      in
      addk rows.(i);
      addk rows.(j);
      (* a variable appearing as x in one row and 1-x in the other would
         need literal algebra to combine; skip those pairs *)
      let mixed = ref false in
      Hashtbl.iter
        (fun l _ -> if Hashtbl.mem acc (l lxor 1) then mixed := true)
        acc;
      if not !mixed then begin
        let cap2 = rows.(i).cap + rows.(j).cap in
        let lhs = ref 0.0 and terms = ref [] and odd = ref false in
        Hashtbl.iter
          (fun l a ->
            if a land 1 = 1 then odd := true;
            let c = a / 2 in
            if c > 0 then begin
              terms := (c, l) :: !terms;
              lhs := !lhs +. (float_of_int c *. lit_value x l)
            end)
          acc;
        let rhs = cap2 / 2 in
        if (!odd || cap2 land 1 = 1) && !lhs > float_of_int rhs +. 0.005 then begin
          cuts := (!terms, rhs, !lhs -. float_of_int rhs) :: !cuts;
          incr n_cuts
        end
      end
    end
  in
  Hashtbl.iter (fun (i, j) () -> consider i j) pairs;
  !cuts

(* --- assembly ----------------------------------------------------------- *)

(* sum of literals <= rhs, complements expanded back to variables:
   (1 - x) contributes coefficient -1 and shifts rhs down by 1. *)
let cut_of_lits (lits, rhs, violation) =
  let rhs = ref rhs in
  let terms =
    List.map
      (fun l ->
        if lit_comp l then begin
          decr rhs;
          (-1, lit_var l)
        end
        else (1, lit_var l))
      lits
  in
  let terms = List.sort (fun (_, v1) (_, v2) -> compare v1 v2) terms in
  ({ terms; rhs = !rhs }, violation)

(* Same expansion for weighted literal terms:  c * (1 - x) = c - c x. *)
let cut_of_weighted (terms, rhs, violation) =
  let rhs = ref rhs in
  let terms =
    List.map
      (fun (c, l) ->
        if lit_comp l then begin
          rhs := !rhs - c;
          (-c, lit_var l)
        end
        else (c, lit_var l))
      terms
  in
  let terms = List.sort (fun (_, v1) (_, v2) -> compare v1 v2) terms in
  ({ terms; rhs = !rhs }, violation)

let separate model ~x ~max_cuts =
  if max_cuts <= 0 then []
  else begin
    let rows = knapsacks_of_model model in
    let adj = conflict_graph rows in
    let covers = List.filter_map (cover_cut x) rows in
    let cliques = clique_cuts x adj max_cuts in
    let odd_cycles = odd_cycle_cuts x adj max_cuts in
    let zero_halves = zero_half_cuts x rows max_cuts in
    let all =
      List.map cut_of_lits (covers @ cliques @ odd_cycles)
      @ List.map cut_of_weighted zero_halves
    in
    (* drop duplicates (same literal set can surface as both families, or
       repeatedly across Eq expansions) *)
    let seen = Hashtbl.create 32 in
    let all =
      List.filter
        (fun (c, _) ->
          if Hashtbl.mem seen c.terms then false
          else begin
            Hashtbl.replace seen c.terms ();
            true
          end)
        all
    in
    List.sort (fun (_, v1) (_, v2) -> compare v2 v1) all
    |> List.filteri (fun i _ -> i < max_cuts)
    |> List.map fst
  end

type orbit =
  | Scalar of int array
  | Blocks of int array array

let size = function
  | Scalar vs -> Array.length vs
  | Blocks cols -> Array.length cols

let vars = function
  | Scalar vs -> Array.to_list vs
  | Blocks cols -> Array.to_list (Array.concat (Array.to_list cols))

(* Preprocessed view on flat int arrays: the constraints as CSR rows
   (terms ascending by variable, no repeated variable and no zero
   coefficient — the [Linexpr] invariant), the transpose as CSR
   occurrences (row, coefficient) per variable with rows ascending, and
   the per-variable bounds and objective coefficients. *)
type ctx = {
  n : int;
  objc : int array;
  lbs : int array;
  ubs : int array;
  sense : int array;  (* per row: 0 Le, 1 Ge, 2 Eq *)
  rhs : int array;
  row_start : int array;  (* m + 1 offsets into row_var / row_coef *)
  row_var : int array;
  row_coef : int array;
  occ_start : int array;  (* n + 1 offsets into occ_row / occ_coef *)
  occ_row : int array;
  occ_coef : int array;
}

let sense_code = function Model.Le -> 0 | Model.Ge -> 1 | Model.Eq -> 2

let make_ctx model =
  let n = Model.n_vars model in
  let objc = Array.make n 0 in
  Linexpr.iter (fun ~coef ~var -> objc.(var) <- coef) (Model.objective model);
  let cs = Model.constraints model in
  let m = Array.length cs in
  let row_start = Array.make (m + 1) 0 in
  Array.iteri
    (fun i (c : Model.constr) ->
      row_start.(i + 1) <- row_start.(i) + Linexpr.n_terms c.Model.expr)
    cs;
  let nnz = row_start.(m) in
  let row_var = Array.make nnz 0 and row_coef = Array.make nnz 0 in
  let occ_start = Array.make (n + 1) 0 in
  Array.iteri
    (fun i (c : Model.constr) ->
      let k = ref row_start.(i) in
      Linexpr.iter
        (fun ~coef ~var ->
          row_var.(!k) <- var;
          row_coef.(!k) <- coef;
          occ_start.(var + 1) <- occ_start.(var + 1) + 1;
          incr k)
        c.Model.expr)
    cs;
  for v = 0 to n - 1 do
    occ_start.(v + 1) <- occ_start.(v + 1) + occ_start.(v)
  done;
  (* transpose: rows are visited in order, so each variable's
     occurrences come out ascending by row *)
  let occ_row = Array.make nnz 0 and occ_coef = Array.make nnz 0 in
  let fill = Array.sub occ_start 0 n in
  for i = 0 to m - 1 do
    for t = row_start.(i) to row_start.(i + 1) - 1 do
      let v = row_var.(t) in
      occ_row.(fill.(v)) <- i;
      occ_coef.(fill.(v)) <- row_coef.(t);
      fill.(v) <- fill.(v) + 1
    done
  done;
  {
    n;
    objc;
    lbs = Model.lower_bounds model;
    ubs = Model.upper_bounds model;
    sense = Array.map (fun (c : Model.constr) -> sense_code c.Model.sense) cs;
    rhs = Array.map (fun (c : Model.constr) -> c.Model.rhs) cs;
    row_start;
    row_var;
    row_coef;
    occ_start;
    occ_row;
    occ_coef;
  }

(* Row [i] with its variables renamed by [image], as one flat key
   [| sense; rhs; v0; c0; v1; c1; ... |] with the terms re-sorted by
   variable.  Insertion sort: a renaming moves only the swapped
   variables' terms, so the rest of the row is already in order. *)
let row_key ctx image i =
  let s = ctx.row_start.(i) in
  let len = ctx.row_start.(i + 1) - s in
  let key = Array.make (2 + (2 * len)) 0 in
  key.(0) <- ctx.sense.(i);
  key.(1) <- ctx.rhs.(i);
  for j = 0 to len - 1 do
    let v = image ctx.row_var.(s + j) and c = ctx.row_coef.(s + j) in
    let p = ref (2 + (2 * j)) in
    while !p > 2 && key.(!p - 2) > v do
      key.(!p) <- key.(!p - 2);
      key.(!p + 1) <- key.(!p - 1);
      p := !p - 2
    done;
    key.(!p) <- v;
    key.(!p + 1) <- c
  done;
  key

(* Any total order on keys does: it only has to make equal multisets sort
   to equal sequences. *)
let compare_keys (a : int array) (b : int array) =
  let la = Array.length a in
  if la <> Array.length b then Int.compare la (Array.length b)
  else begin
    let j = ref 0 in
    while !j < la && a.(!j) = b.(!j) do
      incr j
    done;
    if !j = la then 0 else Int.compare a.(!j) b.(!j)
  end

let transposition_ok ctx pairs =
  let pairs = List.filter (fun (u, v) -> u <> v) pairs in
  let valid =
    List.for_all
      (fun (u, v) ->
        u >= 0 && v >= 0 && u < ctx.n && v < ctx.n
        && ctx.objc.(u) = ctx.objc.(v)
        && ctx.lbs.(u) = ctx.lbs.(v)
        && ctx.ubs.(u) = ctx.ubs.(v))
      pairs
  in
  if not valid then false
  else begin
    let map = Hashtbl.create (2 * List.length pairs) in
    (* The swaps must form an involution on distinct variables. *)
    let clash = ref false in
    List.iter
      (fun (u, v) ->
        if Hashtbl.mem map u || Hashtbl.mem map v then clash := true
        else begin
          Hashtbl.replace map u v;
          Hashtbl.replace map v u
        end)
      pairs;
    if !clash then false
    else begin
      let image v = match Hashtbl.find_opt map v with Some w -> w | None -> v in
      let affected =
        Hashtbl.fold
          (fun v _ acc ->
            let acc = ref acc in
            for k = ctx.occ_start.(v) to ctx.occ_start.(v + 1) - 1 do
              acc := ctx.occ_row.(k) :: !acc
            done;
            !acc)
          map []
        |> List.sort_uniq Int.compare |> Array.of_list
      in
      (* The permutation fixes every unaffected row, so invariance of the
         whole constraint multiset reduces to: the multiset of affected-row
         keys equals the multiset of their images. *)
      let originals = Array.map (row_key ctx Fun.id) affected in
      let images = Array.map (row_key ctx image) affected in
      Array.sort compare_keys originals;
      Array.sort compare_keys images;
      Array.for_all2 (fun a b -> compare_keys a b = 0) originals images
    end
  end

let verify ctx = function
  | Scalar vs ->
      Array.length vs >= 2
      && (let ok = ref true in
          for i = 0 to Array.length vs - 2 do
            if !ok then ok := transposition_ok ctx [ (vs.(i), vs.(i + 1)) ]
          done;
          !ok)
  | Blocks cols ->
      Array.length cols >= 2
      && Array.for_all
           (fun col -> Array.length col = Array.length cols.(0))
           cols
      && (let ok = ref true in
          for j = 0 to Array.length cols - 2 do
            if !ok then
              ok :=
                transposition_ok ctx
                  (Array.to_list
                     (Array.map2
                        (fun u v -> (u, v))
                        cols.(j)
                        cols.(j + 1)))
          done;
          !ok)

let filter_verified model orbits =
  match List.filter (fun o -> size o >= 2) orbits with
  | [] -> []
  | candidates ->
      let ctx = make_ctx model in
      List.filter (verify ctx) candidates

(* --- automatic scalar-orbit detection ---------------------------------- *)

(* Sort [a.(lo) .. a.(hi - 1)] ascending: in place by insertion for the
   short slices rows and occurrence lists mostly are, by a sorted copy
   for long ones. *)
let sort_slice a lo hi =
  if hi - lo <= 64 then
    for j = lo + 1 to hi - 1 do
      let x = a.(j) in
      let p = ref (j - 1) in
      while !p >= lo && a.(!p) > x do
        a.(!p + 1) <- a.(!p);
        decr p
      done;
      a.(!p + 1) <- x
    done
  else begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end

(* Hash mixing for the class tables below; only speed depends on it. *)
let mix h x = (h lxor x) * 0x2545F4914F6CDD1D

(* [h] mixed with [a.(s) .. a.(e - 1)]. *)
let hash_slice a s e h =
  let h = ref h in
  for t = s to e - 1 do
    h := mix !h a.(t)
  done;
  !h

let equal_slices (a : int array) s1 e1 s2 e2 =
  e1 - s1 = e2 - s2
  &&
  let i = ref s1 and d = s2 - s1 in
  while !i < e1 && a.(!i) = a.(!i + d) do
    incr i
  done;
  !i = e1

(* Colour items [0 .. k-1] by the classes of [equal]: colours number the
   classes in order of first occurrence and are written to [colour]; the
   result is the number of classes.  Items are bucketed by [hash] in an
   open-addressing table of class representatives.  [hs] (length >= k)
   and [table] (length >= the power of two at or above 2k) are work
   arrays, reused across calls. *)
let relabel k hash equal colour ~hs ~table =
  let size = ref 1 in
  while !size < 2 * k do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  Array.fill table 0 !size (-1);
  for i = 0 to k - 1 do
    let x = hash i in
    hs.(i) <- x lxor (x lsr 32)
  done;
  let classes = ref 0 in
  for i = 0 to k - 1 do
    let slot = ref (hs.(i) land mask) in
    while
      table.(!slot) >= 0
      && not (hs.(table.(!slot)) = hs.(i) && equal table.(!slot) i)
    do
      slot := (!slot + 1) land mask
    done;
    let rep = table.(!slot) in
    if rep < 0 then begin
      table.(!slot) <- i;
      colour.(i) <- !classes;
      incr classes
    end
    else colour.(i) <- colour.(rep)
  done;
  !classes

(* Index of [x] in [sorted.(lo) .. sorted.(hi - 1)], ascending and
   duplicate-free. *)
let rec rank_in (sorted : int array) lo hi x =
  let mid = (lo + hi) / 2 in
  if sorted.(mid) < x then rank_in sorted (mid + 1) hi x
  else if sorted.(mid) > x then rank_in sorted lo mid x
  else mid

let max_passes = 8

let detect ?(max_vars = 4000) ?(max_nnz = 100_000) model =
  let n = Model.n_vars model in
  if n < 2 || n > max_vars then []
  else begin
    let ctx = make_ctx model in
    let nnz = Array.length ctx.row_var in
    if nnz > max_nnz then []
    else begin
      (* Iterative colour refinement: a variable's colour is refined by the
         multiset of (coefficient, row colour) over its occurrences; a
         row's colour by its sense/rhs and the multiset of (coefficient,
         variable colour).  This only ever proposes candidates — exactness
         comes from the transposition verification below.

         Colours are dense ints, renumbered every pass.  A term's key
         packs (coefficient rank, colour) into one int, so each row's
         (each variable's) multiset is a sorted slice of a flat key array
         laid out like the CSR rows (occurrences), and equal slices get
         equal colours through a hash table. *)
      let coefs =
        let a = Array.copy ctx.row_coef in
        Array.sort Int.compare a;
        let k = ref 0 in
        Array.iter
          (fun c ->
            if !k = 0 || a.(!k - 1) <> c then begin
              a.(!k) <- c;
              incr k
            end)
          a;
        Array.sub a 0 !k
      in
      let rank = rank_in coefs 0 (Array.length coefs) in
      let row_crank = Array.map rank ctx.row_coef in
      let occ_crank = Array.map rank ctx.occ_coef in
      let m = Array.length ctx.rhs in
      let rkey = Array.make nnz 0 and vkey = Array.make nnz 0 in
      let rcolour = Array.make m 0 in
      let vcolour = ref (Array.make n 0) and spare = ref (Array.make n 0) in
      let relabel =
        let k = max n m in
        relabel ~hs:(Array.make k 0) ~table:(Array.make (4 * k) 0)
      in
      let nv =
        ref
          (relabel n
             (fun u -> mix (mix (mix 0 ctx.lbs.(u)) ctx.ubs.(u)) ctx.objc.(u))
             (fun u v ->
               ctx.lbs.(u) = ctx.lbs.(v)
               && ctx.ubs.(u) = ctx.ubs.(v)
               && ctx.objc.(u) = ctx.objc.(v))
             !vcolour)
      in
      (* Each pass refines the previous partition, so once a pass leaves
         the class count unchanged the partition is a fixpoint (as is the
         discrete one).  The pass cap bounds the work on models that keep
         splitting. *)
      let passes = ref 0 and growing = ref (!nv < n) in
      while !growing && !passes < max_passes do
        incr passes;
        let vc = !vcolour in
        for i = 0 to m - 1 do
          let s = ctx.row_start.(i) and e = ctx.row_start.(i + 1) in
          for t = s to e - 1 do
            rkey.(t) <- (row_crank.(t) * !nv) + vc.(ctx.row_var.(t))
          done;
          sort_slice rkey s e
        done;
        let nr =
          relabel m
            (fun i ->
              hash_slice rkey ctx.row_start.(i)
                ctx.row_start.(i + 1)
                (mix (mix 0 ctx.sense.(i)) ctx.rhs.(i)))
            (fun i j ->
              ctx.sense.(i) = ctx.sense.(j)
              && ctx.rhs.(i) = ctx.rhs.(j)
              && equal_slices rkey ctx.row_start.(i)
                   ctx.row_start.(i + 1)
                   ctx.row_start.(j)
                   ctx.row_start.(j + 1))
            rcolour
        in
        for v = 0 to n - 1 do
          let s = ctx.occ_start.(v) and e = ctx.occ_start.(v + 1) in
          for t = s to e - 1 do
            vkey.(t) <- (occ_crank.(t) * nr) + rcolour.(ctx.occ_row.(t))
          done;
          sort_slice vkey s e
        done;
        let fresh = !spare in
        let nv' =
          relabel n
            (fun u ->
              hash_slice vkey ctx.occ_start.(u) ctx.occ_start.(u + 1)
                (mix 0 vc.(u)))
            (fun u v ->
              vc.(u) = vc.(v)
              && equal_slices vkey ctx.occ_start.(u)
                   ctx.occ_start.(u + 1)
                   ctx.occ_start.(v)
                   ctx.occ_start.(v + 1))
            fresh
        in
        spare := vc;
        vcolour := fresh;
        growing := nv' > !nv && nv' < n;
        nv := nv'
      done;
      (* Group by final colour, members ascending, then split each class
         into maximal runs of verified adjacent transpositions (adjacent
         transpositions generate the full symmetric group on the run). *)
      let vc = !vcolour and nv = !nv in
      let cstart = Array.make (nv + 1) 0 in
      Array.iter (fun c -> cstart.(c + 1) <- cstart.(c + 1) + 1) vc;
      for c = 0 to nv - 1 do
        cstart.(c + 1) <- cstart.(c + 1) + cstart.(c)
      done;
      let members = Array.make n 0 and fill = Array.sub cstart 0 nv in
      for v = 0 to n - 1 do
        members.(fill.(vc.(v))) <- v;
        fill.(vc.(v)) <- fill.(vc.(v)) + 1
      done;
      let runs = ref [] in
      let flush run =
        match run with
        | _ :: _ :: _ -> runs := Array.of_list (List.rev run) :: !runs
        | [] | [ _ ] -> ()
      in
      for c = 0 to nv - 1 do
        if cstart.(c + 1) - cstart.(c) >= 2 then begin
          let run = ref [ members.(cstart.(c)) ] in
          for t = cstart.(c) + 1 to cstart.(c + 1) - 1 do
            let v = members.(t) in
            match !run with
            | last :: _ when transposition_ok ctx [ (last, v) ] ->
                run := v :: !run
            | _ ->
                flush !run;
                run := [ v ]
          done;
          flush !run
        end
      done;
      (* Deterministic output order: by smallest member. *)
      List.sort (fun a b -> Int.compare a.(0) b.(0)) !runs
      |> List.map (fun vs -> Scalar vs)
    end
  end

(* --- lexicographic ordering rows ---------------------------------------- *)

let add_lex_rows model orbits =
  if orbits = [] then (model, 0)
  else begin
    let m = Model.copy model in
    let count = ref 0 in
    let add name terms rhs =
      Model.add_le m ~name (Linexpr.of_list terms) rhs;
      incr count
    in
    List.iteri
      (fun oi orbit ->
        match orbit with
        | Scalar vs ->
            for i = 0 to Array.length vs - 2 do
              add
                (Printf.sprintf "sym%d_s%d" oi i)
                [ (1, vs.(i + 1)); (-1, vs.(i)) ]
                0
            done
        | Blocks cols ->
            let len = if Array.length cols = 0 then 0 else Array.length cols.(0) in
            let binary =
              Array.for_all
                (fun col ->
                  Array.for_all
                    (fun v ->
                      let l, u = Model.bounds model v in
                      l >= 0 && u <= 1)
                    col)
                cols
            in
            for j = 0 to Array.length cols - 2 do
              let a = cols.(j) and b = cols.(j + 1) in
              if binary && len >= 1 && len <= 30 then
                (* exact lex as one weighted row: value(b) <= value(a) when
                   columns are read as big-endian binary numbers *)
                add
                  (Printf.sprintf "sym%d_b%d" oi j)
                  (List.concat
                     (List.init len (fun i ->
                          let w = 1 lsl (len - 1 - i) in
                          [ (w, b.(i)); (-w, a.(i)) ])))
                  0
              else if len >= 1 then
                (* implied first-component ordering only *)
                add
                  (Printf.sprintf "sym%d_b%d" oi j)
                  [ (1, b.(0)); (-1, a.(0)) ]
                  0
            done)
      orbits;
    (m, !count)
  end

(* --- canonical representative ------------------------------------------ *)

let canonicalize orbits x =
  let x = Array.copy x in
  List.iter
    (fun orbit ->
      match orbit with
      | Scalar vs ->
          let values = Array.map (fun v -> x.(v)) vs in
          Array.sort (fun a b -> compare b a) values;
          Array.iteri (fun i v -> x.(v) <- values.(i)) vs
      | Blocks cols ->
          let values = Array.map (Array.map (fun v -> x.(v))) cols in
          let idx = Array.init (Array.length cols) Fun.id in
          (* lexicographically non-increasing columns; stable on ties *)
          let idx = Array.to_list idx in
          let idx =
            List.stable_sort (fun i j -> compare values.(j) values.(i)) idx
          in
          List.iteri
            (fun j orig ->
              Array.iteri (fun i v -> x.(v) <- values.(orig).(i)) cols.(j))
            idx)
    orbits;
  x

(* The seed dense two-phase tableau simplex, kept verbatim as the test
   oracle: the sparse revised-simplex path in {!Sherlock_lp.Simplex} is
   qcheck-tested for outcome equivalence against this implementation. *)

open Sherlock_lp.Simplex

let eps = 1e-9

(* Tableau layout: columns [0, num_vars) are structural, then one slack or
   surplus column per inequality, then one artificial column per Ge/Eq row,
   and finally the right-hand side.  [basis.(i)] is the column currently
   basic in row [i].  The tableau is kept canonical: basic columns are unit
   vectors, so reduced costs can be recomputed from any cost vector. *)
type tableau = {
  t : float array array;      (* m rows, ncols + 1 entries; last is rhs *)
  basis : int array;
  ncols : int;
  first_artificial : int;     (* columns >= this are artificial *)
}

let build num_vars constrs =
  let m = List.length constrs in
  (* Normalize to rhs >= 0. *)
  let normalized =
    List.map
      (fun c ->
        if c.rhs < 0.0 then
          {
            row = List.map (fun (v, k) -> (v, -.k)) c.row;
            relation = (match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
            rhs = -.c.rhs;
          }
        else c)
      constrs
  in
  let num_slack =
    List.length (List.filter (fun c -> c.relation <> Eq) normalized)
  in
  let num_artificial =
    List.length (List.filter (fun c -> c.relation <> Le) normalized)
  in
  let ncols = num_vars + num_slack + num_artificial in
  let t = Array.make_matrix m (ncols + 1) 0.0 in
  let basis = Array.make m 0 in
  let next_slack = ref num_vars in
  let next_art = ref (num_vars + num_slack) in
  List.iteri
    (fun i c ->
      List.iter (fun (v, k) -> t.(i).(v) <- t.(i).(v) +. k) c.row;
      t.(i).(ncols) <- c.rhs;
      (match c.relation with
      | Le ->
        t.(i).(!next_slack) <- 1.0;
        basis.(i) <- !next_slack;
        incr next_slack
      | Ge ->
        t.(i).(!next_slack) <- -1.0;
        incr next_slack;
        t.(i).(!next_art) <- 1.0;
        basis.(i) <- !next_art;
        incr next_art
      | Eq ->
        t.(i).(!next_art) <- 1.0;
        basis.(i) <- !next_art;
        incr next_art))
    normalized;
  { t; basis; ncols; first_artificial = num_vars + num_slack }

let pivot tab ~row ~col =
  let t = tab.t in
  let m = Array.length t in
  let width = tab.ncols + 1 in
  let pr = t.(row) in
  let inv = 1.0 /. pr.(col) in
  for j = 0 to width - 1 do
    pr.(j) <- pr.(j) *. inv
  done;
  pr.(col) <- 1.0;
  for i = 0 to m - 1 do
    if i <> row then begin
      let factor = t.(i).(col) in
      if factor <> 0.0 then begin
        let ri = t.(i) in
        for j = 0 to width - 1 do
          ri.(j) <- ri.(j) -. (factor *. pr.(j))
        done;
        ri.(col) <- 0.0
      end
    end
  done;
  tab.basis.(row) <- col

(* Reduced-cost row for the current basis under cost vector [cost]
   (length ncols).  Returns (d, obj) with d_j = c_j - c_B B^-1 A_j. *)
let reduced_costs tab cost =
  let m = Array.length tab.t in
  let d = Array.make tab.ncols 0.0 in
  Array.blit cost 0 d 0 tab.ncols;
  let obj = ref 0.0 in
  for i = 0 to m - 1 do
    let cb = cost.(tab.basis.(i)) in
    if cb <> 0.0 then begin
      obj := !obj +. (cb *. tab.t.(i).(tab.ncols));
      for j = 0 to tab.ncols - 1 do
        d.(j) <- d.(j) -. (cb *. tab.t.(i).(j))
      done
    end
  done;
  (d, !obj)

(* Minimize [cost] over the current tableau.  [allow] filters entering
   columns (used to forbid artificials in phase 2).  Bland's rule: the
   entering column is the smallest-index eligible one and ties in the
   ratio test break toward the smallest basis index, which precludes
   cycling.  Returns [None] if unbounded. *)
let optimize tab cost ~allow =
  let m = Array.length tab.t in
  let d, obj0 = reduced_costs tab cost in
  let obj = ref obj0 in
  let rec loop () =
    let entering = ref (-1) in
    (try
       for j = 0 to tab.ncols - 1 do
         if allow j && d.(j) < -.eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then Some !obj
    else begin
      let col = !entering in
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to m - 1 do
        let a = tab.t.(i).(col) in
        if a > eps then begin
          let ratio = tab.t.(i).(tab.ncols) /. a in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps
               && !best_row >= 0
               && tab.basis.(i) < tab.basis.(!best_row))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then None
      else begin
        let row = !best_row in
        pivot tab ~row ~col;
        (* Update the reduced-cost row by the same elimination. *)
        let dcol = d.(col) in
        if dcol <> 0.0 then begin
          let pr = tab.t.(row) in
          for j = 0 to tab.ncols - 1 do
            d.(j) <- d.(j) -. (dcol *. pr.(j))
          done;
          d.(col) <- 0.0;
          obj := !obj +. (dcol *. pr.(tab.ncols))
        end;
        loop ()
      end
    end
  in
  loop ()

(* After phase 1, pivot basic artificials out on any usable non-artificial
   column; rows that cannot be pivoted are redundant and remain inert
   (their every non-artificial entry is zero, so later pivots leave them
   untouched). *)
let expel_artificials tab =
  let m = Array.length tab.t in
  for i = 0 to m - 1 do
    if tab.basis.(i) >= tab.first_artificial then begin
      let found = ref (-1) in
      (try
         for j = 0 to tab.first_artificial - 1 do
           if abs_float tab.t.(i).(j) > eps then begin
             found := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !found >= 0 then pivot tab ~row:i ~col:!found
    end
  done

let phase2 tab num_vars objective =
  let cost2 = Array.make tab.ncols 0.0 in
  List.iter (fun (v, k) -> cost2.(v) <- cost2.(v) +. k) objective;
  match optimize tab cost2 ~allow:(fun j -> j < tab.first_artificial) with
  | None -> Unbounded
  | Some objective ->
    let solution = Array.make num_vars 0.0 in
    Array.iteri
      (fun i b -> if b < num_vars then solution.(b) <- tab.t.(i).(tab.ncols))
      tab.basis;
    Optimal { objective; solution }

let solve ~num_vars ~objective constrs =
  let tab = build num_vars constrs in
  if tab.first_artificial = tab.ncols then phase2 tab num_vars objective
  else begin
    let cost1 = Array.make tab.ncols 0.0 in
    for j = tab.first_artificial to tab.ncols - 1 do
      cost1.(j) <- 1.0
    done;
    match optimize tab cost1 ~allow:(fun _ -> true) with
    | None -> assert false (* phase-1 objective is bounded below by 0 *)
    | Some v when v > 1e-6 -> Infeasible
    | Some _ ->
      expel_artificials tab;
      phase2 tab num_vars objective
  end

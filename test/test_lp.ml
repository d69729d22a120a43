(* Tests for the LP layer: linear-expression algebra, the two-phase
   simplex, and the hinge/abs reductions used by SherLock's encoding. *)

open Sherlock_lp

let check = Alcotest.check

let feq = Alcotest.float 1e-6

(* --- Linexpr --- *)

let eval_at assign e = Linexpr.eval (fun v -> List.assoc v assign) e

let test_linexpr_basic () =
  let e = Linexpr.(add (var 0) (var ~coeff:2.0 1)) in
  check feq "eval" 8.0 (eval_at [ (0, 2.0); (1, 3.0) ] e);
  check feq "const" 0.0 (Linexpr.constant e);
  check feq "coeff" 2.0 (Linexpr.coeff e 1);
  check feq "absent coeff" 0.0 (Linexpr.coeff e 5)

let test_linexpr_merge () =
  let e = Linexpr.(add (var 0) (var ~coeff:(-1.0) 0)) in
  check Alcotest.int "cancelled terms dropped" 0 (List.length (Linexpr.terms e))

let test_linexpr_scale_neg () =
  let e = Linexpr.(scale 2.0 (sub (var 0) (const 3.0))) in
  check feq "scaled" 4.0 (eval_at [ (0, 5.0) ] e);
  check feq "neg" (-4.0) (eval_at [ (0, 5.0) ] (Linexpr.neg e))

let test_linexpr_sum () =
  let e = Linexpr.sum [ Linexpr.var 0; Linexpr.var 1; Linexpr.const 1.0 ] in
  check feq "sum" 6.0 (eval_at [ (0, 2.0); (1, 3.0) ] e)

let test_linexpr_zero_coeff () =
  check Alcotest.int "zero coeff var is zero" 0
    (List.length (Linexpr.terms (Linexpr.var ~coeff:0.0 3)))

(* --- Simplex on known programs --- *)

let solve_simple () =
  (* min -x - y s.t. x + 2y <= 4; 3x + y <= 6 => x=1.6 y=1.2 obj=-2.8 *)
  match
    Simplex.solve ~num_vars:2
      ~objective:[ (0, -1.0); (1, -1.0) ]
      [
        { Simplex.row = [ (0, 1.0); (1, 2.0) ]; relation = Simplex.Le; rhs = 4.0 };
        { Simplex.row = [ (0, 3.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 6.0 };
      ]
  with
  | Simplex.Optimal { objective; solution } ->
    check feq "objective" (-2.8) objective;
    check feq "x" 1.6 solution.(0);
    check feq "y" 1.2 solution.(1)
  | _ -> Alcotest.fail "expected optimum"

let solve_equality () =
  (* min x s.t. x + y = 3, y <= 2 => x = 1 *)
  match
    Simplex.solve ~num_vars:2 ~objective:[ (0, 1.0) ]
      [
        { Simplex.row = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Eq; rhs = 3.0 };
        { Simplex.row = [ (1, 1.0) ]; relation = Simplex.Le; rhs = 2.0 };
      ]
  with
  | Simplex.Optimal { objective; _ } -> check feq "objective" 1.0 objective
  | _ -> Alcotest.fail "expected optimum"

let solve_infeasible () =
  match
    Simplex.solve ~num_vars:1 ~objective:[ (0, 1.0) ]
      [
        { Simplex.row = [ (0, 1.0) ]; relation = Simplex.Ge; rhs = 5.0 };
        { Simplex.row = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
      ]
  with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let solve_unbounded () =
  match Simplex.solve ~num_vars:1 ~objective:[ (0, -1.0) ] [] with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let solve_negative_rhs () =
  (* min x s.t. -x <= -2 (i.e. x >= 2) *)
  match
    Simplex.solve ~num_vars:1 ~objective:[ (0, 1.0) ]
      [ { Simplex.row = [ (0, -1.0) ]; relation = Simplex.Le; rhs = -2.0 } ]
  with
  | Simplex.Optimal { objective; _ } -> check feq "objective" 2.0 objective
  | _ -> Alcotest.fail "expected optimum"

let solve_degenerate () =
  (* Redundant constraints must not cycle (Bland's rule). *)
  match
    Simplex.solve ~num_vars:2
      ~objective:[ (0, -1.0) ]
      [
        { Simplex.row = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
        { Simplex.row = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
        { Simplex.row = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
      ]
  with
  | Simplex.Optimal { objective; _ } -> check feq "objective" (-1.0) objective
  | _ -> Alcotest.fail "expected optimum"

(* --- Problem builder --- *)

let test_problem_hinge () =
  (* min h, h >= 1 - a, a <= 0.3 => h = 0.7 *)
  let p = Problem.create () in
  let a = Problem.add_var p ~ub:0.3 "a" in
  let _ = Problem.hinge p ~weight:1.0 "h" Linexpr.(sub (const 1.0) (var a)) in
  match Problem.solve_incremental p with
  | Problem.Solved obj, v ->
    check feq "objective" 0.7 obj;
    check feq "a at ub" 0.3 (v a)
  | _ -> Alcotest.fail "expected solution"

let test_problem_hinge_slack () =
  (* When the hinge argument is negative the hinge is 0. *)
  let p = Problem.create () in
  let a = Problem.add_var p ~ub:2.0 "a" in
  Problem.add_ge p (Linexpr.var a) 2.0;
  let _ = Problem.hinge p ~weight:1.0 "h" Linexpr.(sub (const 1.0) (var a)) in
  match Problem.solve_incremental p with
  | Problem.Solved obj, _ -> check feq "objective" 0.0 obj
  | _ -> Alcotest.fail "expected solution"

let test_problem_abs () =
  (* min |x - 2| + 0.1 x over x in [0, 5] => x = 2 *)
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:5.0 "x" in
  let _ = Problem.abs p ~weight:1.0 "t" Linexpr.(sub (var x) (const 2.0)) in
  Problem.add_objective p (Linexpr.var ~coeff:0.1 x);
  match Problem.solve_incremental p with
  | Problem.Solved obj, v ->
    check feq "x" 2.0 (v x);
    check feq "objective" 0.2 obj
  | _ -> Alcotest.fail "expected solution"

let test_problem_abs_negative_side () =
  (* min |x - 2| with x forced above 3 => value 1. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:10.0 "x" in
  Problem.add_ge p (Linexpr.var x) 3.0;
  let t = Problem.abs p ~weight:1.0 "t" Linexpr.(sub (var x) (const 2.0)) in
  match Problem.solve_incremental p with
  | Problem.Solved _, v -> check feq "abs value" 1.0 (v t)
  | _ -> Alcotest.fail "expected solution"

let test_problem_names () =
  let p = Problem.create () in
  let x = Problem.add_var p "myvar" in
  check Alcotest.string "name" "myvar" (Problem.name p x);
  check Alcotest.int "count" 1 (Problem.num_vars p)

let test_problem_eq () =
  let p = Problem.create () in
  let x = Problem.add_var p "x" in
  let y = Problem.add_var p ~ub:2.0 "y" in
  Problem.add_eq p Linexpr.(add (var x) (var y)) 3.0;
  Problem.add_objective p (Linexpr.var x);
  match Problem.solve_incremental p with
  | Problem.Solved obj, v ->
    check feq "objective" 1.0 obj;
    check feq "y" 2.0 (v y)
  | _ -> Alcotest.fail "expected solution"

let test_problem_constant_folding () =
  (* e <= rhs with a constant inside e. *)
  let p = Problem.create () in
  let x = Problem.add_var p "x" in
  Problem.add_ge p Linexpr.(add (var x) (const 1.0)) 3.0;
  Problem.add_objective p (Linexpr.var x);
  match Problem.solve_incremental p with
  | Problem.Solved obj, _ -> check feq "objective" 2.0 obj
  | _ -> Alcotest.fail "expected solution"

(* --- Properties --- *)

(* Random feasible LPs: the returned solution satisfies every constraint. *)
let prop_solution_feasible =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 1 4 in
      let* nconstrs = int_range 1 5 in
      let* rows =
        list_repeat nconstrs
          (let* coeffs = list_repeat nvars (float_range (-3.0) 3.0) in
           let* rhs = float_range 0.5 10.0 in
           return (coeffs, rhs))
      in
      let* obj = list_repeat nvars (float_range 0.0 2.0) in
      return (nvars, rows, obj))
  in
  QCheck.Test.make ~name:"simplex solution satisfies Le constraints" ~count:200
    (QCheck.make gen)
    (fun (nvars, rows, obj) ->
      (* All constraints are <= with positive rhs, so x = 0 is feasible and
         the minimization of a non-negative objective is bounded. *)
      let constrs =
        List.map
          (fun (coeffs, rhs) ->
            {
              Simplex.row = List.mapi (fun i c -> (i, c)) coeffs;
              relation = Simplex.Le;
              rhs;
            })
          rows
      in
      let objective = List.mapi (fun i c -> (i, c)) obj in
      match Simplex.solve ~num_vars:nvars ~objective constrs with
      | Simplex.Optimal { solution; _ } ->
        List.for_all
          (fun (coeffs, rhs) ->
            let lhs =
              List.fold_left ( +. ) 0.0
                (List.mapi (fun i c -> c *. solution.(i)) coeffs)
            in
            lhs <= rhs +. 1e-6)
          rows
        && Array.for_all (fun x -> x >= -1e-9) solution
      | Simplex.Infeasible | Simplex.Unbounded -> false)

(* A minimized non-negative objective over Le constraints with rhs >= 0 is
   zero (x = 0 is optimal). *)
let prop_zero_optimum =
  QCheck.Test.make ~name:"nonneg objective over Le cone solves to 0" ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size (QCheck.Gen.int_range 1 4) (float_range 0.0 5.0)))
    (fun (nvars, obj) ->
      let objective = List.mapi (fun i c -> (i, c)) (List.filteri (fun i _ -> i < nvars) obj) in
      match Simplex.solve ~num_vars:nvars ~objective [] with
      | Simplex.Optimal { objective = v; _ } -> abs_float v < 1e-9
      | _ -> false)

(* hinge computes max(0, c - x) at the optimum for fixed x. *)
let prop_hinge_exact =
  QCheck.Test.make ~name:"hinge equals max(0, e) at optimum" ~count:200
    QCheck.(pair (float_range 0.0 2.0) (float_range 0.0 2.0))
    (fun (c, xval) ->
      let p = Problem.create () in
      let x = Problem.add_var p ~ub:5.0 "x" in
      Problem.add_eq p (Linexpr.var x) xval;
      let h = Problem.hinge p ~weight:1.0 "h" Linexpr.(sub (const c) (var x)) in
      match Problem.solve_incremental p with
      | Problem.Solved _, v -> abs_float (v h -. Float.max 0.0 (c -. xval)) < 1e-6
      | _ -> false)

(* abs computes |e| at the optimum for fixed inputs. *)
let prop_abs_exact =
  QCheck.Test.make ~name:"abs equals |e| at optimum" ~count:200
    QCheck.(pair (float_range 0.0 4.0) (float_range 0.0 4.0))
    (fun (a, b) ->
      let p = Problem.create () in
      let x = Problem.add_var p ~ub:10.0 "x" in
      let y = Problem.add_var p ~ub:10.0 "y" in
      Problem.add_eq p (Linexpr.var x) a;
      Problem.add_eq p (Linexpr.var y) b;
      let t = Problem.abs p ~weight:1.0 "t" Linexpr.(sub (var x) (var y)) in
      match Problem.solve_incremental p with
      | Problem.Solved _, v -> abs_float (v t -. abs_float (a -. b)) < 1e-6
      | _ -> false)

let prop_linexpr_add_commutes =
  let gen_expr =
    QCheck.Gen.(
      let* terms = list_size (int_range 0 5) (pair (int_range 0 4) (float_range (-5.) 5.)) in
      let* c = float_range (-5.) 5. in
      return (terms, c))
  in
  let to_expr (terms, c) =
    Linexpr.add (Linexpr.const c)
      (Linexpr.sum (List.map (fun (v, k) -> Linexpr.var ~coeff:k v) terms))
  in
  QCheck.Test.make ~name:"linexpr addition commutes" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_expr gen_expr))
    (fun (e1, e2) ->
      let a = Linexpr.add (to_expr e1) (to_expr e2) in
      let b = Linexpr.add (to_expr e2) (to_expr e1) in
      let assign v = float_of_int (v + 1) in
      abs_float (Linexpr.eval assign a -. Linexpr.eval assign b) < 1e-9)

(* [Linexpr.add] against a key-by-key [merge] of the operands' terms, bit
   for bit.  Coefficients come from a small set closed under negation, and
   the right operand is often the left one negated in part, so exact
   cancellation (the zero-dropping path) is common. *)
let prop_linexpr_add_matches_merge =
  let coeffs = [| 1.0; -1.0; 0.5; -0.5; 0.1; -0.1; 3.0; -3.0 |] in
  let gen_terms =
    QCheck.Gen.(
      list_size (int_range 0 12)
        (pair (int_range 0 15)
           (oneof
              [ map (fun i -> coeffs.(i)) (int_range 0 7); float_range (-5.) 5. ])))
  in
  let gen =
    QCheck.Gen.(
      let* ta = gen_terms in
      let* tb = gen_terms in
      let* cancel = bool in
      let* ca = float_range (-5.) 5. in
      let* cb = float_range (-5.) 5. in
      let tb = if cancel then List.map (fun (v, k) -> (v, -.k)) ta @ tb else tb in
      return ((ta, ca), (tb, cb)))
  in
  let to_expr (terms, c) =
    List.fold_left
      (fun acc (v, k) -> Linexpr.add acc (Linexpr.var ~coeff:k v))
      (Linexpr.const c) terms
  in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  QCheck.Test.make ~name:"linexpr add matches the merge reference" ~count:500
    (QCheck.make gen)
    (fun (ea, eb) ->
      let a = to_expr ea and b = to_expr eb in
      let sum = Linexpr.add a b in
      let ref_terms, ref_const = Oracle.linexpr_add a b in
      let terms = Linexpr.terms sum in
      same (Linexpr.constant sum) ref_const
      && List.length terms = List.length ref_terms
      && List.for_all2
           (fun (v, k) (v', k') -> v = v' && same k k')
           terms ref_terms)

(* --- LU factorization --- *)

(* Dense reference basis: [cols.(k).(row)] is the column at position k. *)
let lu_col cols k f = Array.iteri (fun row v -> if v <> 0.0 then f row v) cols.(k)

let mul_b cols x =
  let m = Array.length cols in
  let r = Array.make m 0.0 in
  Array.iteri
    (fun k col ->
      Array.iteri (fun row v -> r.(row) <- r.(row) +. (v *. x.(k))) col)
    cols;
  r

let mul_bt cols y =
  Array.map
    (fun col ->
      let s = ref 0.0 in
      Array.iteri (fun row v -> s := !s +. (v *. y.(row))) col;
      !s)
    cols

let max_err a b =
  let e = ref 0.0 in
  Array.iteri (fun i v -> e := Float.max !e (abs_float (v -. b.(i)))) a;
  !e

let test_lu_roundtrip_known () =
  (* Zero on the leading diagonal forces a row permutation. *)
  let cols = [| [| 0.0; 2.0; 1.0 |]; [| 1.0; 1.0; 0.0 |]; [| 0.0; 3.0; 4.0 |] |] in
  match Lu.factorize ~m:3 ~col:(lu_col cols) with
  | None -> Alcotest.fail "nonsingular basis must factorize"
  | Some t ->
    check Alcotest.int "size" 3 (Lu.size t);
    let b = [| 1.0; -2.0; 3.0 |] in
    check Alcotest.bool "ftran solves B x = b" true
      (max_err (mul_b cols (Lu.ftran t b)) b < 1e-9);
    let c = [| 0.5; 1.0; -1.5 |] in
    check Alcotest.bool "btran solves B^T y = c" true
      (max_err (mul_bt cols (Lu.btran t c)) c < 1e-9)

let test_lu_eta_update () =
  let cols = [| [| 4.0; 1.0; 0.0 |]; [| 0.0; 3.0; 1.0 |]; [| 2.0; 0.0; 5.0 |] |] in
  match Lu.factorize ~m:3 ~col:(lu_col cols) with
  | None -> Alcotest.fail "factorize"
  | Some t ->
    let a = [| 1.0; 2.0; -1.0 |] in
    let w = Lu.ftran t a in
    check Alcotest.bool "pivot direction usable" true (abs_float w.(1) > 1e-9);
    Lu.update t ~r:1 ~w;
    check Alcotest.int "one eta term" 1 (Lu.eta_count t);
    let cols' = [| cols.(0); a; cols.(2) |] in
    let b = [| -1.0; 0.5; 2.0 |] in
    check Alcotest.bool "ftran tracks the replaced column" true
      (max_err (mul_b cols' (Lu.ftran t b)) b < 1e-9);
    let c = [| 2.0; -1.0; 0.25 |] in
    check Alcotest.bool "btran tracks the replaced column" true
      (max_err (mul_bt cols' (Lu.btran t c)) c < 1e-9)

let test_lu_singular () =
  let cols = [| [| 1.0; 0.0 |]; [| 2.0; 0.0 |] |] in
  match Lu.factorize ~m:2 ~col:(lu_col cols) with
  | None -> ()
  | Some _ -> Alcotest.fail "rank-deficient basis must not factorize"

let prop_lu_roundtrip =
  let gen =
    QCheck.Gen.(
      let* m = int_range 1 6 in
      let* entries = list_repeat (m * m) (float_range (-2.0) 2.0) in
      let* b = list_repeat m (float_range (-4.0) 4.0) in
      let* r = int_range 0 (m - 1) in
      let* newcol = list_repeat m (float_range (-2.0) 2.0) in
      return (m, entries, b, r, newcol))
  in
  QCheck.Test.make ~name:"lu ftran/btran invert random bases (incl. eta update)"
    ~count:300 (QCheck.make gen)
    (fun (m, entries, b, r, newcol) ->
      let e = Array.of_list entries in
      (* Diagonal dominance keeps the random basis far from singular. *)
      let cols =
        Array.init m (fun k ->
            Array.init m (fun row ->
                e.((k * m) + row) +. if row = k then 8.0 else 0.0))
      in
      let b = Array.of_list b in
      match Lu.factorize ~m ~col:(lu_col cols) with
      | None -> false
      | Some t ->
        let ok =
          max_err (mul_b cols (Lu.ftran t b)) b < 1e-6
          && max_err (mul_bt cols (Lu.btran t b)) b < 1e-6
        in
        let a =
          Array.init m (fun row ->
              List.nth newcol row +. if row = r then 8.0 else 0.0)
        in
        let w = Lu.ftran t a in
        if abs_float w.(r) < 1e-6 then ok
        else begin
          Lu.update t ~r ~w;
          let cols' = Array.mapi (fun k c -> if k = r then a else c) cols in
          ok
          && max_err (mul_b cols' (Lu.ftran t b)) b < 1e-6
          && max_err (mul_bt cols' (Lu.btran t b)) b < 1e-6
        end)

(* Random sparse bases, [m] up to 40: each position holds a singleton
   (hinge helper, half of them), a wide column over 3-12 rows (a
   probability variable shared by hinge rows), or a short one.  Each column
   carries a dominant entry on a shuffled row so most bases are
   nonsingular; the singular ones must be rejected alike. *)
let gen_sparse_basis =
  QCheck.Gen.(
    let* m = int_range 1 40 in
    let* diag_rows = shuffle_l (List.init m Fun.id) in
    let* cols =
      flatten_l
        (List.map
           (fun d ->
             let* len =
               frequency
                 [ (3, return 0); (1, int_range 3 12); (2, int_range 0 3) ]
             in
             let* dv = float_range 0.5 3.0 in
             let* sign = bool in
             let* extra =
               list_repeat len (pair (int_range 0 (m - 1)) (float_range (-1.5) 1.5))
             in
             return ((d, if sign then dv else -.dv) :: extra))
           diag_rows)
    in
    let* b = list_repeat m (float_range (-4.0) 4.0) in
    return (m, cols, b))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The reach-ordered factor performs the dense scan's floating-point
   operations in the same order, so both solves agree bit for bit. *)
let prop_lu_matches_dense_scan =
  QCheck.Test.make
    ~name:"reach-ordered lu solves equal the dense-scan oracle bit for bit" ~count:300
    (QCheck.make gen_sparse_basis)
    (fun (m, cols, b) ->
      let cols = Array.of_list cols in
      let col k f = List.iter (fun (r, v) -> f r v) cols.(k) in
      let b = Array.of_list b in
      match (Lu.factorize ~m ~col, Oracle.lu_factorize ~m ~col) with
      | None, None -> true
      | Some t, Some o ->
        Lu.factor_nnz t = Lu.factor_nnz o
        && same_bits (Lu.ftran t b) (Lu.ftran o b)
        && same_bits (Lu.btran t b) (Lu.btran o b)
      | _ -> false)

(* --- Engine behavior: refactorization, pivot cap, dual repair --- *)

(* min -sum x_i over a 6-cycle of pairwise caps: needs a handful of
   pivots under any pricing order, with optimum -3 (alternate 1, 0). *)
let pivoty_lp () =
  let n = 6 in
  let p = Problem.create () in
  let xs = Array.init n (fun i -> Problem.add_var p (Printf.sprintf "x%d" i)) in
  Array.iteri
    (fun i x ->
      Problem.add_le p Linexpr.(add (var x) (var xs.((i + 1) mod n))) 1.0)
    xs;
  Problem.add_objective p
    (Linexpr.sum
       (Array.to_list (Array.map (fun x -> Linexpr.var ~coeff:(-1.0) x) xs)));
  p

let test_refactor_threshold () =
  Fun.protect
    ~finally:(fun () ->
      Simplex.set_refactor_interval Simplex.default_refactor_interval)
    (fun () ->
      Simplex.set_refactor_interval 1;
      let p = pivoty_lp () in
      match Problem.solve_incremental p with
      | Problem.Solved obj, _ ->
        check feq "optimum unchanged by refactorization" (-3.0) obj;
        let info = Problem.last_info p in
        check Alcotest.bool "refactorized at least once" true
          (info.Problem.refactors >= 1);
        check Alcotest.bool "eta file never exceeds the interval" true
          (info.Problem.eta_len <= 1)
      | _ -> Alcotest.fail "expected solution")

(* The pivot cap surfaces as a non-raising [Aborted] status, and lifting
   the cap fully recovers — including on a state whose warm basis was
   invalidated by the abort. *)
let test_pivot_cap_aborts_and_recovers () =
  Fun.protect
    ~finally:(fun () -> Simplex.set_pivot_limit Simplex.default_pivot_limit)
    (fun () ->
      Simplex.set_pivot_limit 1;
      let p = pivoty_lp () in
      (match Problem.solve_incremental p with
      | Problem.Aborted, v -> check feq "aborted assignment is zero" 0.0 (v 0)
      | _ -> Alcotest.fail "expected Aborted under a 1-pivot cap");
      Simplex.set_pivot_limit Simplex.default_pivot_limit;
      (match Problem.solve_incremental p with
      | Problem.Solved obj, _ -> check feq "warm state recovered" (-3.0) obj
      | _ -> Alcotest.fail "expected recovery after lifting the cap");
      match Problem.solve_incremental (pivoty_lp ()) with
      | Problem.Solved obj, _ -> check feq "fresh problem recovered" (-3.0) obj
      | _ -> Alcotest.fail "expected fresh-problem recovery")

(* A fault-injected solve skips the simplex, so it must not leave the
   previous solve's statistics behind for callers that fold them. *)
let test_fault_resets_info () =
  Fun.protect
    ~finally:(fun () -> Problem.set_fault None)
    (fun () ->
      let p = pivoty_lp () in
      ignore (Problem.solve_incremental p);
      check Alcotest.bool "first solve pivots" true
        ((Problem.last_info p).Problem.pivots > 0);
      Problem.set_fault (Some Problem.Infeasible);
      (match Problem.solve_incremental p with
      | Problem.Infeasible, _ -> ()
      | _ -> Alcotest.fail "expected the injected status");
      let info = Problem.last_info p in
      check Alcotest.int "no pivots reported" 0 info.Problem.pivots;
      check Alcotest.bool "not warm" false info.Problem.warm;
      check Alcotest.int "no refactors" 0 info.Problem.refactors)

(* Appending a cut that chops off the optimum exercises the dual-simplex
   repair: the reoptimize must stay warm (no cold restart) and leave the
   basis dual-feasible under the certified cost vector. *)
let test_dual_repair_after_cut () =
  let outcome, _, s =
    Simplex.solve_tableau ~num_vars:2
      ~objective:[ (0, -1.0); (1, -1.0) ]
      [
        { Simplex.row = [ (0, 1.0); (1, 2.0) ]; relation = Simplex.Le; rhs = 4.0 };
        { Simplex.row = [ (0, 3.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 6.0 };
      ]
  in
  (match outcome with
  | Simplex.Optimal { objective; _ } -> check feq "initial optimum" (-2.8) objective
  | _ -> Alcotest.fail "expected optimum");
  ignore (Simplex.add_row s [ (0, 1.0); (1, 1.0) ] Simplex.Le 2.0);
  (match Simplex.reoptimize s with
  | `Optimal obj -> check feq "repaired optimum" (-2.0) obj
  | _ -> Alcotest.fail "expected optimum after the cut");
  let st = Simplex.last_stats s in
  check Alcotest.bool "solved warm" true st.Simplex.warm;
  check Alcotest.int "no cold restart" 0 st.Simplex.cold_restarts;
  check Alcotest.bool "dual feasible under the certified costs" true
    (Simplex.dual_feasible s)

let test_dual_repair_with_bounds () =
  let outcome, _, s =
    Simplex.solve_tableau
      ~ub:[| 1.0; infinity |]
      ~num_vars:2
      ~objective:[ (0, -2.0); (1, -1.0) ]
      [ { Simplex.row = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 1.5 } ]
  in
  (match outcome with
  | Simplex.Optimal { objective; solution } ->
    check feq "initial optimum" (-2.5) objective;
    check feq "x at its bound" 1.0 solution.(0)
  | _ -> Alcotest.fail "expected optimum");
  ignore (Simplex.add_row s [ (0, 1.0); (1, 1.0) ] Simplex.Le 1.2);
  (match Simplex.reoptimize s with
  | `Optimal obj -> check feq "repaired optimum" (-2.2) obj
  | _ -> Alcotest.fail "expected optimum after tightening");
  check Alcotest.bool "dual feasible with a column at its bound" true
    (Simplex.dual_feasible s);
  check feq "x still at its bound" 1.0 (Simplex.value s 0);
  check Alcotest.bool "x flagged at upper" true (Simplex.is_at_upper s 0)

(* A capped variable and no other rows: the sparse engine solves it with
   a bound flip on an empty basis; the dense oracle sees the cap as an
   explicit row. *)
let test_bound_only_program () =
  (match
     Dense.solve ~num_vars:1
       ~objective:[ (0, -1.0) ]
       [ { Simplex.row = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 2.0 } ]
   with
  | Simplex.Optimal { objective; _ } -> check feq "objective (dense)" (-2.0) objective
  | _ -> Alcotest.fail "expected dense solution");
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:2.0 "x" in
  Problem.add_objective p (Linexpr.var ~coeff:(-1.0) x);
  match Problem.solve_incremental p with
  | Problem.Solved obj, v ->
    check feq "objective" (-2.0) obj;
    check feq "x at cap" 2.0 (v x)
  | _ -> Alcotest.fail "expected solution"

let test_bound_rows_saved () =
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:1.0 "x" in
  let y = Problem.add_var p "y" in
  Problem.add_le p Linexpr.(add (var x) (var y)) 1.5;
  Problem.add_objective p
    Linexpr.(add (var ~coeff:(-2.0) x) (var ~coeff:(-1.0) y));
  (match Problem.solve_incremental p with
  | Problem.Solved _, _ -> ()
  | _ -> Alcotest.fail "expected solution");
  check Alcotest.int "cap kept out of the sparse matrix" 1
    (Problem.last_info p).Problem.bound_rows_saved;
  check Alcotest.int "but the cap is still a visible row" 2 (Problem.num_rows p)

(* --- Engine equivalence --- *)

let gen_lp =
  QCheck.Gen.(
    let* nvars = int_range 1 5 in
    let* nconstrs = int_range 1 6 in
    (* Finite caps exercise the bounded-variable path: column bounds in
       the sparse engines, explicit rows in the dense oracle. *)
    let* ubs =
      list_repeat nvars
        (frequency [ (2, return infinity); (1, float_range 0.2 2.5) ])
    in
    let* rows =
      list_repeat nconstrs
        (let* coeffs = list_repeat nvars (float_range (-3.0) 3.0) in
         let* rel = oneofl [ `Le; `Ge; `Eq ] in
         (* The occasional zero rhs lands on degenerate bases — the
            classic cycling trap for the ratio test. *)
         let* rhs = frequency [ (5, float_range (-2.0) 6.0); (1, return 0.0) ] in
         return (coeffs, rel, rhs))
    in
    (* Non-negative costs keep the minimum bounded, so outcomes are
       Solved or Infeasible (Ge/Eq rows can cut off the whole orthant). *)
    let* obj = list_repeat nvars (float_range 0.0 2.0) in
    return (nvars, ubs, rows, obj))

let build_problem (nvars, ubs, rows, obj) =
  let p = Problem.create () in
  let ubs = Array.of_list ubs in
  let xs =
    Array.init nvars (fun i ->
        let name = Printf.sprintf "x%d" i in
        if Float.is_finite ubs.(i) then Problem.add_var p ~ub:ubs.(i) name
        else Problem.add_var p name)
  in
  List.iter
    (fun (coeffs, rel, rhs) ->
      let e =
        Linexpr.sum (List.mapi (fun i c -> Linexpr.var ~coeff:c xs.(i)) coeffs)
      in
      match rel with
      | `Le -> Problem.add_le p e rhs
      | `Ge -> Problem.add_ge p e rhs
      | `Eq -> Problem.add_eq p e rhs)
    rows;
  Problem.add_objective p
    (Linexpr.sum (List.mapi (fun i c -> Linexpr.var ~coeff:c xs.(i)) obj));
  p

let same_status a b =
  match (a, b) with
  | Problem.Solved x, Problem.Solved y -> abs_float (x -. y) < 1e-6
  | Problem.Infeasible, Problem.Infeasible -> true
  | Problem.Unbounded, Problem.Unbounded -> true
  | _ -> false

let status_of_outcome = function
  | Simplex.Optimal { objective; _ } -> Problem.Solved objective
  | Simplex.Infeasible -> Problem.Infeasible
  | Simplex.Unbounded -> Problem.Unbounded

(* --- Optimality certificate --- *)

(* An independent LP-duality check of a claimed optimum of
   [minimize objective.x] over the problem's rows (cap rows included)
   and [x >= 0], read only through the public row and dual views:
   - primal feasibility of every row and of [x >= 0];
   - dual feasibility: a [<=] row's dual is [<= 0], a [>=] row's
     [>= 0], and every reduced cost [c_j - sum_i y_i a_ij] is [>= 0]
     and matches the reported one;
   - complementary slackness of rows and columns;
   - the reported objective equals both [c.x] and the dual objective
     [b.y].
   Returns the violations found, [[]] for a certified optimum.  Needs
   dual capture on for the solve. *)
let certificate ?(tol = 1e-6) p objective (status, assign) =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun e -> errs := e :: !errs) fmt in
  let near a b = abs_float (a -. b) <= tol *. (1.0 +. abs_float a +. abs_float b) in
  (match (status, Problem.last_duals p) with
  | Problem.Solved obj, Some d ->
    let n = Problem.num_vars p in
    let c = Array.make n 0.0 in
    List.iter (fun (v, k) -> c.(v) <- c.(v) +. k) objective;
    let rc = Array.copy c in
    let dual_obj = ref 0.0 in
    for i = 0 to Problem.num_rows p - 1 do
      let ri = Problem.row_info p i in
      let y = d.Problem.d_rows.(i) in
      let act = Problem.row_activity p i assign in
      let slack = act -. ri.Problem.ri_rhs in
      let scale = 1.0 +. abs_float ri.Problem.ri_rhs in
      (match ri.Problem.ri_rel with
      | Simplex.Le ->
        if slack > tol *. scale then fail "row %d: %g > %g" i act ri.ri_rhs;
        if y > tol then fail "row %d (<=): dual %g > 0" i y
      | Simplex.Ge ->
        if slack < -.tol *. scale then fail "row %d: %g < %g" i act ri.ri_rhs;
        if y < -.tol then fail "row %d (>=): dual %g < 0" i y
      | Simplex.Eq ->
        if abs_float slack > tol *. scale then
          fail "row %d: %g <> %g" i act ri.ri_rhs);
      if abs_float (y *. slack) > tol *. scale then
        fail "row %d: dual %g on slack %g" i y slack;
      dual_obj := !dual_obj +. (y *. ri.Problem.ri_rhs);
      List.iter (fun (v, k) -> rc.(v) <- rc.(v) -. (y *. k)) ri.Problem.ri_terms
    done;
    let primal_obj = ref 0.0 in
    for v = 0 to n - 1 do
      let x = assign v in
      primal_obj := !primal_obj +. (c.(v) *. x);
      if x < -.tol then fail "x%d = %g < 0" v x;
      if rc.(v) < -.tol then fail "x%d: reduced cost %g < 0" v rc.(v);
      if not (near rc.(v) d.Problem.d_vars.(v)) then
        fail "x%d: reduced cost %g, reported %g" v rc.(v) d.Problem.d_vars.(v);
      if abs_float (rc.(v) *. x) > tol *. (1.0 +. abs_float x) then
        fail "x%d: reduced cost %g on value %g" v rc.(v) x
    done;
    if not (near obj !primal_obj) then fail "objective %g, c.x %g" obj !primal_obj;
    if not (near obj !dual_obj) then fail "objective %g, b.y %g" obj !dual_obj
  | Problem.Solved _, None -> fail "no duals captured"
  | _ -> ());
  List.rev !errs

let check_certified p objective result =
  match certificate p objective result with
  | [] -> ()
  | errs -> Alcotest.failf "not certified: %s" (String.concat "; " errs)

let certified_prop p objective result =
  match certificate p objective result with
  | [] -> true
  | errs -> QCheck.Test.fail_reportf "not certified: %s" (String.concat "; " errs)

(* --- Engine equivalence --- *)

let objective_of (_, _, _, obj) = List.mapi (fun i c -> (i, c)) obj

let constrs_of rows =
  List.map
    (fun (coeffs, rel, rhs) ->
      let relation =
        match rel with `Le -> Simplex.Le | `Ge -> Simplex.Ge | `Eq -> Simplex.Eq
      in
      { Simplex.row = List.mapi (fun i c -> (i, c)) coeffs; relation; rhs })
    rows

(* The dense oracle's solve, with every finite cap an explicit row. *)
let dense_solve ~ubs ~num_vars ~objective constrs =
  let caps =
    List.concat
      (List.mapi
         (fun i u ->
           if Float.is_finite u then
             [ { Simplex.row = [ (i, 1.0) ]; relation = Simplex.Le; rhs = u } ]
           else [])
         ubs)
  in
  status_of_outcome (Dense.solve ~num_vars ~objective (constrs @ caps))

(* The dense seed oracle (caps as explicit rows), the sparse engine
   solved one-shot (caps as column bounds), and the problem builder's
   incremental solve agree on outcome and objective; the incremental
   optimum is also certified. *)
let engines_agree ((nvars, ubs, rows, _) as lp) =
  let objective = objective_of lp in
  let constrs = constrs_of rows in
  let dense = dense_solve ~ubs ~num_vars:nvars ~objective constrs in
  let sparse =
    status_of_outcome
      (Simplex.solve ~ub:(Array.of_list ubs) ~num_vars:nvars ~objective constrs)
  in
  let p = build_problem lp in
  Problem.set_capture_duals p true;
  let result = Problem.solve_incremental p in
  same_status dense sparse
  && same_status dense (fst result)
  && certified_prop p objective result

let prop_engines_agree =
  QCheck.Test.make ~name:"dense, sparse, and incremental engines agree"
    ~count:300 (QCheck.make gen_lp) engines_agree

(* --- Singleton crash basis --- *)

(* [gen_lp] with singleton columns injected: about half the rows gain a
   variable of their own (either sign, capped or not), the shape the
   cold start crashes into the basis in place of an artificial. *)
let gen_lp_singletons =
  QCheck.Gen.(
    let* nvars, ubs, rows, obj = gen_lp in
    let* singles =
      flatten_l
        (List.map
           (fun _ ->
             let* add = bool in
             let* a = float_range 0.5 3.0 in
             let* neg = bool in
             let* ub = frequency [ (2, return infinity); (1, float_range 0.2 2.5) ] in
             let* cost = float_range 0.0 2.0 in
             return (if add then Some ((if neg then -.a else a), ub, cost) else None))
           rows)
    in
    let added = List.filter_map Fun.id singles in
    let rows =
      List.mapi
        (fun i (coeffs, rel, rhs) ->
          let own =
            List.concat
              (List.mapi
                 (fun j s ->
                   match s with
                   | Some (a, _, _) -> [ (if i = j then a else 0.0) ]
                   | None -> [])
                 singles)
          in
          (coeffs @ own, rel, rhs))
        rows
    in
    return
      ( nvars + List.length added,
        ubs @ List.map (fun (_, u, _) -> u) added,
        rows,
        obj @ List.map (fun (_, _, c) -> c) added ))

let prop_crash_singletons =
  QCheck.Test.make ~name:"crash-basis singletons keep the dense optimum, certified"
    ~count:300 (QCheck.make gen_lp_singletons) engines_agree

(* Hinge rows [-(sum of x) - h <= -1] over probability variables capped
   at 1: every row's slack starts with the wrong sign and its hinge
   column appears in that row alone. *)
let test_crash_pure_hinge () =
  let t = Simplex.create () in
  let xs = Array.init 3 (fun _ -> Simplex.add_col ~ub:1.0 t) in
  let sides = [ [ 0; 1 ]; [ 1; 2 ]; [ 0 ]; [ 2 ] ] in
  let hs = List.map (fun _ -> Simplex.add_col t) sides in
  let constrs =
    List.map2
      (fun h side ->
        {
          Simplex.row = (h, -1.0) :: List.map (fun v -> (xs.(v), -1.0)) side;
          relation = Simplex.Le;
          rhs = -1.0;
        })
      hs sides
  in
  List.iter
    (fun c -> ignore (Simplex.add_row t c.Simplex.row c.relation c.rhs))
    constrs;
  let objective =
    [ (xs.(0), 0.5); (xs.(1), 0.7); (xs.(2), 0.9) ] @ List.map (fun h -> (h, 2.0)) hs
  in
  Simplex.set_objective t objective;
  let cols = Simplex.num_cols t in
  let got =
    match Simplex.reoptimize t with
    | `Optimal obj -> Problem.Solved obj
    | `Infeasible -> Problem.Infeasible
    | `Unbounded -> Problem.Unbounded
  in
  check Alcotest.int "no artificial column" cols (Simplex.num_cols t);
  let ubs = List.init cols (fun c -> if c < 3 then 1.0 else infinity) in
  check Alcotest.bool "dense oracle's optimum" true
    (same_status got (dense_solve ~ubs ~num_vars:cols ~objective constrs))

(* [-x - h <= -1] with [h <= 0.5], and [x] also in [x <= 1.5]: the
   only singleton, [h], would need the value 1, past its cap, so the row
   takes an artificial. *)
let test_crash_over_cap_falls_back () =
  let t = Simplex.create () in
  let x = Simplex.add_col ~ub:2.0 t in
  let h = Simplex.add_col ~ub:0.5 t in
  let constrs =
    [
      { Simplex.row = [ (x, -1.0); (h, -1.0) ]; relation = Simplex.Le; rhs = -1.0 };
      { Simplex.row = [ (x, 1.0) ]; relation = Simplex.Le; rhs = 1.5 };
    ]
  in
  List.iter
    (fun c -> ignore (Simplex.add_row t c.Simplex.row c.relation c.rhs))
    constrs;
  let objective = [ (x, 1.0); (h, 3.0) ] in
  Simplex.set_objective t objective;
  let cols = Simplex.num_cols t in
  let got =
    match Simplex.reoptimize t with
    | `Optimal obj -> Problem.Solved obj
    | `Infeasible -> Problem.Infeasible
    | `Unbounded -> Problem.Unbounded
  in
  check Alcotest.int "one artificial column" (cols + 1) (Simplex.num_cols t);
  check Alcotest.bool "dense oracle's optimum" true
    (same_status got (dense_solve ~ubs:[ 2.0; 0.5 ] ~num_vars:2 ~objective constrs))

(* Warm reoptimization after growing the program (new row, extra
   objective term) lands on the same optimum as a one-shot solve of the
   final program on a fresh problem; both optima are certified. *)
let prop_warm_matches_oneshot =
  let gen =
    QCheck.Gen.(
      let* lp = gen_lp in
      let* extra_coeffs = list_repeat 5 (float_range (-2.0) 2.0) in
      let* extra_rhs = float_range 0.0 4.0 in
      return (lp, extra_coeffs, extra_rhs))
  in
  QCheck.Test.make ~name:"warm reoptimize matches one-shot solve" ~count:300
    (QCheck.make gen)
    (fun (lp, extra_coeffs, extra_rhs) ->
      let nvars, _, _, _ = lp in
      let extra_expr () =
        Linexpr.sum
          (List.filteri (fun i _ -> i < nvars) extra_coeffs
          |> List.mapi (fun i c -> Linexpr.var ~coeff:c i))
      in
      let grow p =
        Problem.add_le p (extra_expr ()) extra_rhs;
        Problem.add_objective p (Linexpr.var ~coeff:0.5 0)
      in
      let objective = (0, 0.5) :: objective_of lp in
      let p = build_problem lp in
      Problem.set_capture_duals p true;
      ignore (Problem.solve_incremental p);
      grow p;
      let warm = Problem.solve_incremental p in
      let q = build_problem lp in
      Problem.set_capture_duals q true;
      grow q;
      let oneshot = Problem.solve_incremental q in
      same_status (fst warm) (fst oneshot)
      && certified_prop p objective warm
      && certified_prop q objective oneshot)

let qcheck = List.map QCheck_alcotest.to_alcotest

(* --- Dual values / reduced costs (provenance capture) --- *)

(* minimize -2x - y  s.t.  x <= 1 (ub row), x + y <= 1.5.  Optimum at
   x = 1, y = 0.5: both rows binding.  With y basic the shared row's dual
   is -1, and the ub cap's dual is -2 - (-1) = -1 — so the provenance
   margin (its negation) is 1. *)
let duals_objective x y = Linexpr.(add (var ~coeff:(-2.0) x) (var ~coeff:(-1.0) y))

let duals_problem () =
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:1.0 "x" in
  let y = Problem.add_var p "y" in
  Problem.add_le ~tag:"cap" p Linexpr.(add (var x) (var y)) 1.5;
  Problem.add_objective p (duals_objective x y);
  (p, x, y)

(* The same final program reached warm: first solved under [-2x] alone,
   then re-solved from that basis under the full objective. *)
let warm_duals_problem () =
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:1.0 "x" in
  let y = Problem.add_var p "y" in
  Problem.add_le ~tag:"cap" p Linexpr.(add (var x) (var y)) 1.5;
  Problem.set_capture_duals p true;
  Problem.set_objective p (Linexpr.var ~coeff:(-2.0) x);
  ignore (Problem.solve_incremental p);
  Problem.set_objective p (duals_objective x y);
  (p, x, y)

let check_ub_dual p x =
  match Problem.last_duals p with
  | None -> Alcotest.fail "expected captured duals"
  | Some d ->
    let ub =
      match Problem.ub_row p x with
      | Some r -> r
      | None -> Alcotest.fail "x has an ub row"
    in
    check feq "ub dual (margin = 1)" (-1.0) d.Problem.d_rows.(ub);
    check Alcotest.int "one dual per row" (Problem.num_rows p)
      (Array.length d.Problem.d_rows);
    check Alcotest.int "one reduced cost per var" (Problem.num_vars p)
      (Array.length d.Problem.d_vars)

let test_duals_oneshot () =
  let p, x, y = duals_problem () in
  Problem.set_capture_duals p true;
  let result = Problem.solve_incremental p in
  (match result with
  | Problem.Solved obj, v ->
    check feq "objective" (-2.5) obj;
    check feq "x" 1.0 (v x)
  | _ -> Alcotest.fail "expected solution");
  check_ub_dual p x;
  check_certified p (Linexpr.terms (duals_objective x y)) result

let test_duals_incremental () =
  let p, x, y = warm_duals_problem () in
  let result = Problem.solve_incremental p in
  (match result with
  | Problem.Solved obj, _ -> check feq "objective" (-2.5) obj
  | _ -> Alcotest.fail "expected solution");
  check Alcotest.bool "re-solved warm" true (Problem.last_info p).Problem.warm;
  check_ub_dual p x;
  check_certified p (Linexpr.terms (duals_objective x y)) result

let test_duals_reduced_cost () =
  (* minimize 2x + y  s.t.  x + y >= 1: the optimum takes y = 1 and
     leaves x nonbasic at 0 with reduced cost 2 - 1 = 1 (both columns
     hit only the shared row, so the value is convention-independent). *)
  let p = Problem.create () in
  let x = Problem.add_var p "x" in
  let y = Problem.add_var p "y" in
  Problem.add_ge p Linexpr.(add (var x) (var y)) 1.0;
  Problem.add_objective p Linexpr.(add (var ~coeff:2.0 x) (var y));
  Problem.set_capture_duals p true;
  let result = Problem.solve_incremental p in
  (match result with
  | Problem.Solved obj, v ->
    check feq "objective" 1.0 obj;
    check feq "x stays 0" 0.0 (v x);
    check feq "y" 1.0 (v y)
  | _ -> Alcotest.fail "expected solution");
  check_certified p [ (x, 2.0); (y, 1.0) ] result;
  match Problem.last_duals p with
  | None -> Alcotest.fail "expected captured duals"
  | Some d ->
    check feq "reduced cost of x" 1.0 d.Problem.d_vars.(x);
    check feq "reduced cost of basic y" 0.0 d.Problem.d_vars.(y)

let test_duals_capture_off () =
  let p, _, _ = duals_problem () in
  (match Problem.solve_incremental p with
  | Problem.Solved _, _ -> ()
  | _ -> Alcotest.fail "expected solution");
  check Alcotest.bool "no duals when capture off" true
    (Problem.last_duals p = None)

let test_duals_none_when_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var p ~ub:1.0 "x" in
  Problem.add_ge p (Linexpr.var x) 2.0;
  Problem.add_objective p (Linexpr.var x);
  Problem.set_capture_duals p true;
  (match Problem.solve_incremental p with
  | Problem.Infeasible, _ -> ()
  | _ -> Alcotest.fail "expected infeasible");
  check Alcotest.bool "no duals without an optimum" true
    (Problem.last_duals p = None)

(* Duals of a warm re-solve match those of a one-shot solve of the same
   final program on a fresh problem, and both are certified. *)
let test_duals_incremental_matches_oneshot () =
  let duals p x y =
    let result = Problem.solve_incremental p in
    check_certified p (Linexpr.terms (duals_objective x y)) result;
    match Problem.last_duals p with
    | Some d -> d
    | None -> Alcotest.fail "expected captured duals"
  in
  let p1, x1, y1 = duals_problem () in
  Problem.set_capture_duals p1 true;
  let p2, x2, y2 = warm_duals_problem () in
  let a = duals p1 x1 y1 in
  let b = duals p2 x2 y2 in
  Array.iteri
    (fun i v -> check feq (Printf.sprintf "row dual %d" i) v b.Problem.d_rows.(i))
    a.Problem.d_rows;
  Array.iteri
    (fun i v -> check feq (Printf.sprintf "reduced cost %d" i) v b.Problem.d_vars.(i))
    a.Problem.d_vars

let () =
  Alcotest.run "lp"
    [
      ( "linexpr",
        [
          Alcotest.test_case "basic" `Quick test_linexpr_basic;
          Alcotest.test_case "merge cancels" `Quick test_linexpr_merge;
          Alcotest.test_case "scale/neg" `Quick test_linexpr_scale_neg;
          Alcotest.test_case "sum" `Quick test_linexpr_sum;
          Alcotest.test_case "zero coeff" `Quick test_linexpr_zero_coeff;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "simple optimum" `Quick solve_simple;
          Alcotest.test_case "equality" `Quick solve_equality;
          Alcotest.test_case "infeasible" `Quick solve_infeasible;
          Alcotest.test_case "unbounded" `Quick solve_unbounded;
          Alcotest.test_case "negative rhs normalization" `Quick solve_negative_rhs;
          Alcotest.test_case "degenerate no-cycle" `Quick solve_degenerate;
        ] );
      ( "problem",
        [
          Alcotest.test_case "hinge active" `Quick test_problem_hinge;
          Alcotest.test_case "hinge slack" `Quick test_problem_hinge_slack;
          Alcotest.test_case "abs" `Quick test_problem_abs;
          Alcotest.test_case "abs negative side" `Quick test_problem_abs_negative_side;
          Alcotest.test_case "names" `Quick test_problem_names;
          Alcotest.test_case "equality" `Quick test_problem_eq;
          Alcotest.test_case "constant folding" `Quick test_problem_constant_folding;
        ] );
      ( "lu",
        Alcotest.test_case "ftran/btran round trip" `Quick test_lu_roundtrip_known
        :: Alcotest.test_case "eta update" `Quick test_lu_eta_update
        :: Alcotest.test_case "singular basis" `Quick test_lu_singular
        :: qcheck [ prop_lu_roundtrip; prop_lu_matches_dense_scan ] );
      ( "engine",
        [
          Alcotest.test_case "refactorization threshold" `Quick
            test_refactor_threshold;
          Alcotest.test_case "pivot cap aborts and recovers" `Quick
            test_pivot_cap_aborts_and_recovers;
          Alcotest.test_case "fault resets last_info" `Quick
            test_fault_resets_info;
          Alcotest.test_case "dual repair after a cut" `Quick
            test_dual_repair_after_cut;
          Alcotest.test_case "dual repair with bounds" `Quick
            test_dual_repair_with_bounds;
          Alcotest.test_case "bound-only program" `Quick test_bound_only_program;
          Alcotest.test_case "bound rows saved" `Quick test_bound_rows_saved;
          Alcotest.test_case "pure hinge lp crashes without artificials" `Quick
            test_crash_pure_hinge;
          Alcotest.test_case "over-cap singleton falls back to an artificial"
            `Quick test_crash_over_cap_falls_back;
        ] );
      ( "duals",
        [
          Alcotest.test_case "one-shot ub margin" `Quick test_duals_oneshot;
          Alcotest.test_case "incremental ub margin" `Quick test_duals_incremental;
          Alcotest.test_case "reduced cost" `Quick test_duals_reduced_cost;
          Alcotest.test_case "capture off" `Quick test_duals_capture_off;
          Alcotest.test_case "none when infeasible" `Quick
            test_duals_none_when_infeasible;
          Alcotest.test_case "incremental matches one-shot" `Quick
            test_duals_incremental_matches_oneshot;
        ] );
      ( "properties",
        qcheck
          [
            prop_solution_feasible; prop_zero_optimum; prop_hinge_exact;
            prop_abs_exact; prop_linexpr_add_commutes;
            prop_linexpr_add_matches_merge; prop_engines_agree;
            prop_crash_singletons; prop_warm_matches_oneshot;
          ] );
    ]

module Int_map = Map.Make (Int)

type t = { coeffs : float Int_map.t; const : float }

let zero = { coeffs = Int_map.empty; const = 0.0 }

let const c = { coeffs = Int_map.empty; const = c }

let var ?(coeff = 1.0) v =
  if coeff = 0.0 then zero else { coeffs = Int_map.singleton v coeff; const = 0.0 }

(* [union] splits the larger map only along the smaller one's keys, so
   adding a one-term expression to an [n]-term one costs O(log n) where
   [merge] would rebuild all [n] bindings.  Coefficients summing to
   exactly zero are dropped. *)
let add a b =
  {
    coeffs =
      Int_map.union
        (fun _ x y ->
          let s = x +. y in
          if s = 0.0 then None else Some s)
        a.coeffs b.coeffs;
    const = a.const +. b.const;
  }

let scale k e =
  if k = 0.0 then zero
  else { coeffs = Int_map.map (fun c -> k *. c) e.coeffs; const = k *. e.const }

let neg e = scale (-1.0) e

let sub a b = add a (neg b)

let sum es = List.fold_left add zero es

let constant e = e.const

let terms e = Int_map.bindings e.coeffs

let coeff e v = match Int_map.find_opt v e.coeffs with Some c -> c | None -> 0.0

let eval assign e =
  Int_map.fold (fun v c acc -> acc +. (c *. assign v)) e.coeffs e.const

let pp ~names ppf e =
  let first = ref true in
  let sep () =
    if !first then first := false else Format.fprintf ppf " + "
  in
  Int_map.iter
    (fun v c ->
      sep ();
      Format.fprintf ppf "%g*%s" c (names v))
    e.coeffs;
  if e.const <> 0.0 || !first then begin
    sep ();
    Format.fprintf ppf "%g" e.const
  end

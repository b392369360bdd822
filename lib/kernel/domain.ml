(** Finite carriers for sorts.

    Quantifiers are evaluated over finite domains: a [Domain.t] assigns to
    each sort the (finite) list of values inhabiting it. The [bool] sort
    always has carrier [{true, false}], supplied implicitly. *)

type t = Value.t list Sort.Map.t

let empty : t = Sort.Map.empty

let add sort values (d : t) : t =
  Sort.Map.add sort (List.sort_uniq Value.compare values) d

let of_list bindings =
  List.fold_left (fun d (s, vs) -> add s vs d) empty bindings

let carrier (d : t) sort =
  if Sort.is_bool sort then [ Value.Bool false; Value.Bool true ]
  else match Sort.Map.find_opt sort d with
    | Some vs -> vs
    | None -> []

let mem (d : t) sort v = List.exists (Value.equal v) (carrier d sort)

let sorts (d : t) = List.map fst (Sort.Map.bindings d)

let size (d : t) sort = List.length (carrier d sort)

(* On sorted, duplicate-free lists, tail-recursive: [missing xs ys] says
   some element of [ys] is absent from [xs]; [merge] is their union. *)
let rec missing xs ys =
  match (xs, ys) with
  | _, [] -> false
  | [], _ -> true
  | x :: xs', y :: ys' ->
    let c = Value.compare x y in
    if c < 0 then missing xs' ys else c > 0 || missing xs' ys'

let merge xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs', y :: ys' ->
      let c = Value.compare x y in
      if c <= 0 then go (x :: acc) xs' (if c = 0 then ys' else ys)
      else go (y :: acc) xs ys'
  in
  go [] xs ys

let extend sort values (d : t) : t =
  let old = carrier d sort and vs = List.sort_uniq Value.compare values in
  if Sort.Map.mem sort d && not (missing old vs) then d
  else Sort.Map.add sort (merge old vs) d

(** [union d1 d2] joins the carriers sort-wise. *)
let union (d1 : t) (d2 : t) : t =
  Sort.Map.union (fun _ vs1 vs2 -> Some (merge vs1 vs2)) d1 d2

let pp ppf (d : t) =
  let pp_binding ppf (s, vs) =
    Fmt.pf ppf "@[%a = {%a}@]" Sort.pp s Fmt.(list ~sep:(any ", ") Value.pp) vs
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_binding) (Sort.Map.bindings d)

(** Finite relations: sets of equal-length value tuples, the data
    structures of the relational model that RPR programs manipulate
    (paper Section 5.1).

    The representation is a canonical sorted set of tuples (so
    structural equality needs no re-sorting) carrying its cardinality
    and lazily built caches: a hash of the whole extension (for O(1)
    database-state hashing in fixpoint exploration), a tuple hash table
    (O(1) membership once enough probes have paid for it, e.g. antijoin
    probes), and per-column value indexes (O(n + m + |output|)
    composition instead of pairwise scanning). The caches never change
    what is observable: every operation is defined by the tuple set
    alone.

    {!add} and {!remove} keep the cardinality, so a point write costs
    O(log n) and a fresh relation version answers point reads by tree
    probes until they have paid for a table.

    Thread-safety: the membership table and column indexes live in
    [Atomic.t] cells and are built fully before being published, so
    concurrent {!Pool} worker domains may at worst duplicate a cache
    build — never observe a partial one. The cardinality, the hash and
    the probe count are plain [int] fields: the first two are
    deterministic, so a racing writer stores the value already there,
    and a lost probe-count update only delays a table build. *)

open Fdbs_kernel

module Tuple = struct
  type t = Value.t list

  let compare = List.compare Value.compare
  let equal a b = compare a b = 0

  (* Deterministic across runs (unlike the depth-limited generic
     [Hashtbl.hash] it folds every column). *)
  let hash (tu : t) =
    List.fold_left (fun h v -> (h * 33) + Value.hash v) 5381 tu land max_int

  let pp ppf tu = Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") Value.pp) tu
end

module Tuple_set = Set.Make (Tuple)

type index = (Value.t, Tuple.t list) Hashtbl.t

type t = {
  sorts : Sort.t list;  (** column sorts; the relation's arity is their length *)
  tuples : Tuple_set.t;
  mutable card : int;  (** [-1] until counted *)
  mutable hash_cache : int;  (** [-1] until computed *)
  mutable probes : int;  (** tree probes {!mem} has taken *)
  mem_cache : (Tuple.t, unit) Hashtbl.t option Atomic.t;
  col_cache : (int * index) list Atomic.t;  (** per-column value indexes *)
}

(* Every constructor goes through [make]: derived relations start with
   fresh (empty) caches. *)
let make ?(card = -1) sorts tuples =
  {
    sorts;
    tuples;
    card;
    hash_cache = -1;
    probes = 0;
    mem_cache = Atomic.make None;
    col_cache = Atomic.make [];
  }

(* A derived tuple set that is physically the input's (an operation
   that changed nothing) keeps the input and its caches. *)
let derive ?card (r : t) tuples =
  if tuples == r.tuples then r else make ?card r.sorts tuples

let empty sorts = make ~card:0 sorts Tuple_set.empty

let sorts (r : t) = r.sorts
let tuple_set (r : t) = r.tuples

let arity (r : t) = List.length r.sorts

let check_tuple (r : t) (tu : Tuple.t) =
  if List.length tu <> arity r then
    invalid_arg
      (Fmt.str "Relation: tuple of arity %d in relation of arity %d" (List.length tu)
         (arity r))

(* [Set.add] of a present tuple and [Set.remove] of an absent one
   return their argument, so a no-op write returns [r] itself. *)
let add tu (r : t) =
  check_tuple r tu;
  derive ~card:(if r.card < 0 then -1 else r.card + 1) r (Tuple_set.add tu r.tuples)

let remove tu (r : t) =
  check_tuple r tu;
  derive ~card:(if r.card < 0 then -1 else r.card - 1) r (Tuple_set.remove tu r.tuples)

(* [Set.cardinal] walks the tree: count once per relation value. *)
let cardinal (r : t) =
  if r.card >= 0 then r.card
  else begin
    let n = Tuple_set.cardinal r.tuples in
    r.card <- n;
    n
  end

let is_empty (r : t) = Tuple_set.is_empty r.tuples

(* Below this cardinality a tree probe is as cheap as hashing the
   tuple, so no membership table is ever built. *)
let small = 8

(* Index-build tallies: how often the lazy caches are actually
   materialized (a concurrent duplicate build counts twice — it did
   the work twice). *)
let c_mem_index_builds = Metrics.counter "relation.mem_index_builds"
let c_col_index_builds = Metrics.counter "relation.col_index_builds"

(* Build (or fetch) the membership table. Publication is a one-shot
   CAS: the first builder wins and every racing peer drops its build
   and adopts the published table, so concurrent domains end up probing
   the {e same} table — sharing cache lines instead of each carrying a
   private duplicate. *)
let mem_table (r : t) =
  match Atomic.get r.mem_cache with
  | Some tbl -> tbl
  | None ->
    Metrics.incr c_mem_index_builds;
    let tbl = Hashtbl.create (2 * cardinal r) in
    Tuple_set.iter (fun t -> Hashtbl.replace tbl t ()) r.tuples;
    if Atomic.compare_and_set r.mem_cache None (Some tbl) then tbl
    else begin
      match Atomic.get r.mem_cache with Some t -> t | None -> tbl
    end

let mem tu (r : t) =
  match Atomic.get r.mem_cache with
  | Some tbl -> Hashtbl.mem tbl tu
  | None when cardinal r < small -> Tuple_set.mem tu r.tuples
  | None ->
    (* Tree probes until more than a quarter of the cardinality of them
       has been taken: the table's O(n) build is then paid for by
       probes already served, and every later probe is O(1). A relation
       version read a few times before the next write never builds
       one. *)
    r.probes <- r.probes + 1;
    if r.probes > cardinal r / 4 then Hashtbl.mem (mem_table r) tu
    else Tuple_set.mem tu r.tuples

(** The value -> tuples index for column [col], built on first use and
    cached. The index is immutable once published. *)
let index_on (col : int) (r : t) : index =
  if col < 0 || col >= arity r then
    invalid_arg (Fmt.str "Relation.index_on: column %d of arity %d" col (arity r));
  match List.assoc_opt col (Atomic.get r.col_cache) with
  | Some idx -> idx
  | None ->
    Metrics.incr c_col_index_builds;
    let idx : index = Hashtbl.create (max 16 (2 * cardinal r)) in
    Tuple_set.iter
      (fun tu ->
        let key = List.nth tu col in
        Hashtbl.replace idx key
          (tu :: Option.value ~default:[] (Hashtbl.find_opt idx key)))
      r.tuples;
    (* One-shot publication: if a peer published this column first, its
       index wins and we adopt it — all domains probe one shared
       index. *)
    let rec publish () =
      let cur = Atomic.get r.col_cache in
      match List.assoc_opt col cur with
      | Some published -> published
      | None ->
        if Atomic.compare_and_set r.col_cache cur ((col, idx) :: cur) then idx
        else publish ()
    in
    publish ()

(** All tuples whose column [col] holds [value], via the cached
    index. *)
let find_by ~(col : int) (value : Value.t) (r : t) : Tuple.t list =
  Option.value ~default:[] (Hashtbl.find_opt (index_on col r) value)

let of_list sorts tuples = List.fold_left (fun r tu -> add tu r) (empty sorts) tuples
let to_list (r : t) = Tuple_set.elements r.tuples

let union (a : t) (b : t) = derive a (Tuple_set.union a.tuples b.tuples)
let inter (a : t) (b : t) = derive a (Tuple_set.inter a.tuples b.tuples)
let diff (a : t) (b : t) = derive a (Tuple_set.diff a.tuples b.tuples)

let filter f (r : t) = derive r (Tuple_set.filter f r.tuples)

let fold f (r : t) acc = Tuple_set.fold f r.tuples acc
let iter f (r : t) = Tuple_set.iter f r.tuples
let exists f (r : t) = Tuple_set.exists f r.tuples
let for_all f (r : t) = Tuple_set.for_all f r.tuples

(** A canonical hash of the extension (sorts contribute arity only),
    computed once per relation value. Consistent with {!equal}. *)
let hash (r : t) =
  if r.hash_cache >= 0 then r.hash_cache
  else begin
    let h =
      Tuple_set.fold
        (fun tu acc -> (acc * 33) + Tuple.hash tu)
        r.tuples
        ((arity r * 7) + 3)
      land max_int
    in
    r.hash_cache <- h;
    h
  end

(** Publish this relation's lazy caches eagerly: the extension hash and
    (from [small] tuples up) the membership table. Called once on
    a shared read-only snapshot {e before} handing it to parallel
    readers, so worker domains probe published indexes instead of
    racing to build duplicates. *)
let warm (r : t) =
  ignore (hash r : int);
  if cardinal r >= small then
    ignore (mem_table r : (Tuple.t, unit) Hashtbl.t)

let equal (a : t) (b : t) =
  a == b
  || (let ha = a.hash_cache and hb = b.hash_cache in
      (* cached hashes, when both present, give a cheap negative *)
      (ha < 0 || hb < 0 || ha = hb)
      && List.equal Sort.equal a.sorts b.sorts
      && Tuple_set.equal a.tuples b.tuples)

(** Composition of binary relations sharing their middle sort:
    [compose a b = {(x, z) | (x, y) ∈ a, (y, z) ∈ b}], evaluated
    through [b]'s first-column index — O(|a| + |b| + |output| log
    |output|) rather than the pairwise O(|a|·|b|) scan. *)
let compose (a : t) (b : t) : t =
  match (a.sorts, b.sorts) with
  | [ sa; mid_a ], [ mid_b; sb ] when Sort.equal mid_a mid_b ->
    let out = ref Tuple_set.empty in
    Tuple_set.iter
      (fun tu ->
        match tu with
        | [ x; y ] ->
          List.iter
            (fun tu' ->
              match tu' with
              | [ _; z ] -> out := Tuple_set.add [ x; z ] !out
              | _ -> assert false)
            (find_by ~col:0 y b)
        | _ -> assert false)
      a.tuples;
    make [ sa; sb ] !out
  | _ ->
    invalid_arg
      "Relation.compose: expects binary relations sharing their middle sort"

(** Transitive closure of a homogeneous binary relation, by semi-naive
    iteration: each round composes only the {e frontier} (pairs new in
    the previous round) with [r], so total work is proportional to the
    derivations actually produced instead of re-composing the whole
    accumulated closure every round. *)
let transitive_closure (r : t) : t =
  (match r.sorts with
   | [ s1; s2 ] when Sort.equal s1 s2 -> ()
   | _ ->
     invalid_arg
       "Relation.transitive_closure: expects a homogeneous binary relation");
  let rec go acc frontier =
    if is_empty frontier then acc
    else
      let next = diff (compose frontier r) acc in
      go (union acc next) next
  in
  go r r

(** Values appearing in each column, keyed by the column's sort: the
    relation's contribution to the active domain. *)
let active_domain (r : t) : Domain.t =
  if is_empty r then Domain.empty
  else
    fold (List.map2 List.cons) r (List.map (fun _ -> []) r.sorts)
    |> List.fold_left2 (fun d s c -> Domain.extend s c d) Domain.empty r.sorts

let pp ppf (r : t) =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Tuple.pp) (to_list r)

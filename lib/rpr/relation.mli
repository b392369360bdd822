(** Finite relations: sets of equal-length value tuples, the data
    structures of the relational model that RPR programs manipulate
    (paper Section 5.1).

    The representation is abstract: a canonical sorted tuple set
    carrying its cardinality and lazily built caches — a whole-extension
    hash, a membership table that a relation builds once enough probes
    have paid for it, and per-column value indexes that make {!compose}
    linear in its inputs. A point write ({!add}, {!remove}) and a point
    read ({!mem}) on a fresh relation version cost O(log n). All
    operations are defined by the tuple set alone; it is safe to share
    relation values across {!Fdbs_kernel.Pool} worker domains. *)

open Fdbs_kernel

module Tuple : sig
  type t = Value.t list

  val compare : t -> t -> int
  val equal : t -> t -> bool

  (** Deterministic across runs, consistent with {!equal}. *)
  val hash : t -> int

  val pp : t Fmt.t
end

module Tuple_set : Set.S with type elt = Tuple.t

type t

val empty : Sort.t list -> t

(** Column sorts; the relation's arity is their length. *)
val sorts : t -> Sort.t list

(** The underlying canonical tuple set. *)
val tuple_set : t -> Tuple_set.t

val arity : t -> int

(** O(log n); keeps the cardinality. Adding a tuple that is already
    present returns the relation itself ([==]), caches included.
    Raises [Invalid_argument] on arity mismatch. *)
val add : Tuple.t -> t -> t

(** O(log n); keeps the cardinality. Removing an absent tuple returns
    the relation itself ([==]). *)
val remove : Tuple.t -> t -> t

(** Self-amortizing membership: O(log n) tree probes until the
    relation has taken more than a quarter of its cardinality of them,
    then one O(n) hash-table build, published one-shot, and O(1) probes
    after it. A relation version that is probed a few times before the
    next write never builds the table, and neither does a relation of
    fewer than 8 tuples. *)
val mem : Tuple.t -> t -> bool

(** All tuples whose column [col] holds [value], via a cached
    per-column index. Raises [Invalid_argument] if [col] is out of
    range. *)
val find_by : col:int -> Value.t -> t -> Tuple.t list

val of_list : Sort.t list -> Tuple.t list -> t
val to_list : t -> Tuple.t list

(** O(1) after {!empty}, {!add} and {!remove}; other constructions
    count once, on first use, and cache the count. *)
val cardinal : t -> int

val is_empty : t -> bool

(** The set operations and {!filter} may return their first argument
    itself ([==], caches included) when the result equals it — always
    for an empty second argument of {!union} or {!diff}, and for a
    {!filter} that keeps every tuple. *)
val union : t -> t -> t

val inter : t -> t -> t
val diff : t -> t -> t

val filter : (Tuple.t -> bool) -> t -> t
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool

val equal : t -> t -> bool

(** A canonical hash of the extension, computed once per relation value
    and cached; consistent with {!equal}. *)
val hash : t -> int

(** Publish the lazy caches eagerly (extension hash, and the
    membership table for relations of 8 tuples or more). Call on a
    shared read-only snapshot before a parallel sweep so worker domains
    probe one published index instead of racing to build duplicates;
    cache publication is one-shot (first builder wins, peers adopt). *)
val warm : t -> unit

(** [compose a b = {(x, z) | (x, y) ∈ a, (y, z) ∈ b}] for binary
    relations sharing their middle sort, evaluated through [b]'s
    first-column index. Raises [Invalid_argument] otherwise. *)
val compose : t -> t -> t

(** Transitive closure of a homogeneous binary relation by iterated
    indexed composition. Raises [Invalid_argument] otherwise. *)
val transitive_closure : t -> t

(** Values appearing in each column, keyed by the column's sort: the
    relation's contribution to the active domain. *)
val active_domain : t -> Domain.t

val pp : t Fmt.t

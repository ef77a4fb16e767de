(** Shared vocabulary of the sensitivity algorithms.

    Tuple sensitivity δ(t, Q, D) is the maximum change in the bag-counted
    join output when one copy of tuple [t] is added to or removed from its
    relation (paper Definition 2.1); local sensitivity LS(Q, D) is the
    maximum tuple sensitivity over the whole domain (Definition 2.2). All
    algorithms in this library return a {!result}: the local sensitivity,
    a witness tuple attaining it, and the per-relation maxima.

    The conventions every algorithm shares live here too: the selected
    instance an algorithm runs on ({!instance}), the value a lonely
    attribute takes in a witness ({!lonely_value}, {!extender}), the
    heaviest-first row order and the unit relation. The decomposition of
    each connected component is chosen by {!Yannakakis.plan}. *)

open Tsens_relational
open Tsens_query

type selection = string -> Schema.t -> Tuple.t -> bool
(** [selection relation schema tuple] decides whether a tuple of
    [relation] satisfies the query's selection predicate (paper Section
    5.4: tuples that fail it have sensitivity 0). *)

type witness = {
  relation : string;  (** the relation the tuple belongs to *)
  schema : Schema.t;  (** that relation's schema *)
  tuple : Tuple.t;  (** a most sensitive tuple, over [schema] *)
  sensitivity : Count.t;
}

type result = {
  local_sensitivity : Count.t;
  witness : witness option;
      (** [None] only when every tuple of the domain has sensitivity 0 and
          no representative tuple exists (e.g. all relations empty). *)
  per_relation : (string * Count.t) list;
      (** maximum tuple sensitivity within each relation's domain, in atom
          order — the paper's Figure 6b view. *)
}

val result_of_per_relation :
  (string * (Tuple.t * Schema.t * Count.t) option) list -> result
(** Assembles a {!result} from per-relation best tuples ([None] when a
    relation's domain is entirely insensitive). Ties across relations are
    broken in list order. *)

val instance : ?selection:selection -> Cq.t -> Database.t -> Database.t
(** The query's atom relations, columns in atom-schema order; with
    [selection], each relation keeps only the tuples that pass it. Every
    algorithm runs on this instance. Raises {!Errors.Schema_error} if the
    database does not match the query. *)

val lonely_value : Relation.t -> Attr.t -> Value.t
(** The value a witness gives an attribute that no multiplicity table
    fixes (paper Section 5.4: any value will do): the smallest one in the
    relation's column, or the constant ["any"] when the relation is
    empty. *)

val extender : Cq.t -> Database.t -> string -> Schema.t -> Tuple.t -> Tuple.t
(** [extender cq db relation row_schema] extends rows over [row_schema]
    (a subset of the relation's atom schema) to full tuples over the
    atom schema, filling the other attributes with {!lonely_value} of
    [relation] in [db]. Apply it partially: the lonely values are picked
    once, not once per row. *)

val heaviest_first : Relation.t -> (Tuple.t * Count.t) array
(** A fresh array of the relation's rows, heaviest count first, ties by
    tuple order. *)

val unit_relation : Relation.t
(** The identity of the join: one nullary tuple with count 1. *)

val pp_witness : Format.formatter -> witness -> unit
val pp_result : Format.formatter -> result -> unit

(** Hash indexes over a sub-schema of a relation.

    An index sums the multiplicities of a relation's rows per projection
    onto a key schema. PrivSQL's frequency truncation probes it. *)

type t

val build : key:Schema.t -> Relation.t -> t
(** Raises {!Errors.Schema_error} if [key] is not a subset of the
    relation's schema. An empty [key] puts every row in one group. *)

val group_count : t -> Tuple.t -> Count.t
(** Summed multiplicity of the group, 0 if the key is absent. *)

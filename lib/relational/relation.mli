(** Bag-semantics relations.

    A relation is a schema plus a multiset of tuples, represented as
    distinct tuples each carrying a positive multiplicity ({!Count.t}).
    This is the representation the paper's Section 4.2 works with: every
    relation conceptually has an extra [cnt] column, joins multiply
    counts, and group-by sums them.

    Construction normalizes: duplicate tuples are merged (counts summed)
    and rows are sorted, so equal bags have equal rows and all iteration
    orders are deterministic. A kernel result ({!of_encoded}) stays in
    its columnar encoding until a reader needs its rows; readers that see
    only counts ({!cardinality}, {!distinct_count}, {!is_empty},
    {!max_frequency}, {!max_row}, {!project}, {!scale}) never decode it. *)

type t

(** {1 Construction} *)

val create : schema:Schema.t -> (Tuple.t * Count.t) list -> t
(** Raises {!Errors.Data_error} if a row's arity differs from the schema's
    or a count is not positive. *)

val of_tuples : schema:Schema.t -> Tuple.t list -> t
(** Each tuple gets multiplicity 1; duplicates accumulate. *)

val of_rows : schema:Schema.t -> Value.t list list -> t
(** Convenience for literal relations in tests and examples. *)

val empty : Schema.t -> t

(** {1 Access} *)

val schema : t -> Schema.t

val rows : t -> (Tuple.t * Count.t) array
(** The normalized rows, sorted by {!Tuple.compare}. A kernel result is
    decoded and sorted on the first call (counted by
    [relation.rows_decoded]) and keeps its rows. The returned array is
    owned by the relation: callers must not mutate it. *)

val cardinality : t -> Count.t
(** Bag cardinality: sum of multiplicities (saturating; a sum that
    saturates ticks [count.saturations]). *)

val distinct_count : t -> int
val is_empty : t -> bool
val mem : Tuple.t -> t -> bool

val count_of : Tuple.t -> t -> Count.t
(** Multiplicity of a tuple, 0 if absent. *)

val fold : (Tuple.t -> Count.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> Count.t -> unit) -> t -> unit

(** {1 Unary operators} *)

val project : Schema.t -> t -> t
(** [project target r] is the paper's γ: group rows by the [target]
    attributes (a subset of [r]'s schema, any order) and sum counts.
    Raises {!Errors.Schema_error} if [target] is not a subset. *)

val filter : (Schema.t -> Tuple.t -> bool) -> t -> t
(** Keep rows satisfying the predicate; counts are preserved. *)

val rename : (Attr.t * Attr.t) list -> t -> t

val scale : Count.t -> t -> t
(** Multiply every multiplicity by a positive factor (saturating). Raises
    {!Errors.Data_error} if the factor is not positive. *)

(** {1 Point updates (used by naive sensitivity)} *)

val add : ?count:Count.t -> Tuple.t -> t -> t
(** Insert [count] (default 1) copies of a tuple. *)

val remove : ?count:Count.t -> Tuple.t -> t -> t
(** Remove up to [count] (default 1) copies. The count clamps at the
    stored multiplicity: removing more copies than are present deletes
    the row and nothing else. Absent tuples are ignored. Raises
    {!Errors.Data_error} if [count] is not positive. *)

(** {1 Statistics} *)

val max_row : t -> (Tuple.t * Count.t) option
(** Row with the largest multiplicity; ties broken by {!Tuple.compare}
    (smallest tuple wins) for determinism. [None] on the empty relation.
    On an undecoded kernel result only the tied rows are decoded. *)

val max_frequency : over:Schema.t -> t -> Count.t
(** Largest multiplicity of any combination of values of the [over]
    attributes — the [mf] statistic of elastic sensitivity. With an empty
    [over] this is the bag cardinality (the cross-product extension used
    by the paper's experiments). 0 on an empty relation. *)

val active_domain : Attr.t -> t -> Value.t list
(** Distinct values of one attribute, sorted. *)

val min_value : Attr.t -> t -> Value.t option
(** The smallest value of one attribute ([None] when [r] is empty): the
    head of {!active_domain} without building it. *)

(** {1 Columnar boundary (storage layer)}

    The handshake between row relations and the dictionary-encoded
    columnar kernels ({!Colrel}, {!Join}, {!Index}). Operators call
    these; most library users never need to. *)

val encoded : t -> Colrel.t
(** The columnar encoding of the relation, computed on first use and
    kept on the value. Its row order is unspecified: nothing pairs row
    [i] of the encoding with [(rows r).(i)]. *)

val of_encoded : Colrel.t -> t
(** Wrap a kernel output without decoding it. The input rows must be
    distinct (which {!Colrel}'s constructors guarantee). When a reader
    needs rows they are decoded and sorted by {!Tuple.compare}, the only
    canonicalization applied, so every reader sees what it would after
    funneling the decoded rows through {!create}. *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Bag equality on identically-ordered schemas. *)

val equal_semantic : t -> t -> bool
(** Bag equality up to column reordering: [true] iff the schemas hold the
    same attribute set and reordering the second relation's columns to the
    first's order yields equal bags. *)

val reorder : Schema.t -> t -> t
(** Reorder columns to match the given schema (same attribute set).
    Returns the relation itself when the target equals the stored
    schema. Raises {!Errors.Schema_error} if the attribute sets
    differ. *)

val pp : Format.formatter -> t -> unit
(** Multi-line table rendering with a [cnt] column. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line rendering: schema, distinct size, cardinality. *)

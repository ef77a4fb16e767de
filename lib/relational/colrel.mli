(** Dictionary-encoded columnar relations.

    The storage format of the join and group-by kernels: one [int array]
    of {!Dict} ids per attribute plus a parallel multiplicity array.
    Invariant: the row set is distinct (one entry per distinct tuple);
    row *order* is unspecified and nothing relies on it — a kernel
    result is passed on encoded ({!Relation.of_encoded}) and decoded to
    [Value.t] rows, sorted, only when a reader needs rows. *)

type t

val make : schema:Schema.t -> cols:int array array -> counts:Count.t array -> t
(** Assemble a columnar relation from kernel output. The caller
    guarantees the distinct-rows invariant and positive counts; column
    count must match the schema arity and all arrays must share one
    length. *)

val of_pairs : Schema.t -> (Tuple.t * Count.t) array -> t
(** Encode rows verbatim, interning every value. The rows must be
    distinct. *)

val schema : t -> Schema.t
val nrows : t -> int
val arity : t -> int

val col : t -> int -> int array
(** Column [j] as dictionary ids. Owned by the relation: do not mutate. *)

val counts : t -> Count.t array
(** Per-row multiplicities. Owned by the relation: do not mutate. *)

val decode_row : t -> int -> Tuple.t
(** The tuple of row [i]. *)

val decode_rows : t -> (Tuple.t * Count.t) array
(** Every row, in storage order. *)

(** {1 Key signatures}

    One int per row standing for the row's key over the columns at
    [positions]: [0] for an empty key, the raw dictionary id for a
    one-column key (the column array itself, shared — do not mutate),
    and a dense {!Intkey.Keydict} id for wider keys. The hash joins and
    the index key their tables by these. *)

val key_signatures : t -> int array -> Intkey.Keydict.t option * int array
(** Signatures of the build side. Wider keys are interned into a fresh
    Keydict, returned for {!probe_signatures}; it is [Some] iff the key
    has two or more columns. *)

val probe_signatures : Intkey.Keydict.t option -> t -> int array -> int array
(** Signatures of a probe side under the build side's Keydict, with the
    key columns listed in the build side's key order. A key the build
    side never saw gets [-1]. *)

(** {1 Group-by}

    The γ kernel in the integer domain: a grouper sums multiplicities
    per key vector with {!Count.add_tracked}. *)

type grouper

val grouper : arity:int -> int -> grouper
(** [grouper ~arity hint] for keys of [arity] dictionary ids, sized for
    about [hint] groups. *)

val grouper_add : grouper -> int array -> Count.t -> unit
(** Add a count under a key. The key array is caller-owned scratch of
    length [arity]; its contents are copied. *)

val grouper_size : grouper -> int
(** Number of distinct keys seen. *)

val of_grouper : schema:Schema.t -> grouper -> t
(** One row per group; [schema] names the key components in order. *)

val group_by : schema:Schema.t -> int array -> t -> t
(** [group_by ~schema positions t] groups the rows by the listed source
    columns and sums their multiplicities. [schema] names the grouped
    columns, in [positions] order. *)

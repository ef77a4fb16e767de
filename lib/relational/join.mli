(** Bag-semantics join operators.

    These implement the paper's r⋈ operator family: natural joins that
    multiply multiplicities, optionally fused with a group-by that sums
    them (the γ of Section 4.2). With disjoint schemas [natural_join]
    degenerates to a counted cross product, which the sensitivity
    algorithms rely on. *)

val natural_join : Relation.t -> Relation.t -> Relation.t
(** Natural join on all common attributes; output schema is
    [Schema.union a b]; output multiplicities are products. Hash-based
    over dictionary ids: the right side is chained by join-key id and the
    left side streamed through it. *)

val join_project : group:Schema.t -> Relation.t -> Relation.t -> Relation.t
(** [join_project ~group a b] is [Relation.project group (natural_join a b)]
    computed without materializing the full join — the fused
    γ_group(r⋈(a, b)) used throughout the topjoin/botjoin passes. [group]
    must be a subset of the joined schema. *)

val join_all : Relation.t list -> Relation.t
(** Left-fold of {!natural_join}. Raises [Invalid_argument] on []. *)

val join_project_all : group:Schema.t -> Relation.t list -> Relation.t
(** Folds {!natural_join} but projects intermediate results onto the
    attributes still needed (those in [group] or in a yet-unjoined
    relation); the last join groups by [group] directly. Equivalent to
    [Relation.project group (join_all rels)] with smaller intermediates. *)

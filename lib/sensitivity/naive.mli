(** The naive polynomial-data-complexity algorithm (Theorem 3.1).

    Local sensitivity by exhaustive re-evaluation: every deletion of an
    existing tuple and every insertion of a tuple from the representative
    domain (Definition 3.1) is tried, re-counting |Q(D')| each time with
    {!Yannakakis.count}. O(m·n^k) — the correctness oracle for the tests
    and the "repeat query evaluation" baseline of Section 7.2; only run
    it on small instances. *)

open Tsens_relational
open Tsens_query

val representative_domain : Cq.t -> Database.t -> string -> Tuple.t list
(** Σ^Ai_repr: the cross product over the relation's attributes of, for a
    shared attribute, the intersection of its active domains in the other
    relations containing it; for a lonely attribute, the one value
    {!Sens_types.lonely_value}. Sorted. *)

val local_sensitivity :
  ?selection:Sens_types.selection ->
  ?max_candidates:int ->
  Cq.t ->
  Database.t ->
  Sens_types.result
(** Raises {!Errors.Data_error} when the number of insertion candidates
    of some relation exceeds [max_candidates] (default 100_000) — the
    guard against accidentally exploding a test.

    With [selection] (the Section 5.4 extension, mirroring
    {!Tsens.analyze}): the query runs on
    {!Sens_types.instance}[ ?selection cq db], deletions
    range over its tuples, and insertion candidates failing the predicate
    are skipped (their sensitivity is 0 by definition). *)

val tuple_sensitivity : Cq.t -> Database.t -> string -> Tuple.t -> Count.t
(** δ(t, Q, D) of a single tuple by direct re-evaluation:
    max(|Q(D ∪ t)| − |Q(D)|, |Q(D)| − |Q(D ∖ t)|). *)

(** Storage-engine selection: row-oriented (the seed representation and
    correctness oracle) or dictionary-encoded columnar.

    The toggle selects which kernel implementations the relational
    operators dispatch to; results are bit-identical in both modes (the
    equivalence property suite pins this), so flipping it only changes
    speed. The default comes from the [TSENS_STORAGE] environment
    variable ([columnar] or [row]), read once at load; [row] when unset
    or unparseable. *)

type mode = Row | Columnar

val mode : unit -> mode
val set_mode : mode -> unit

val is_columnar : unit -> bool
(** [is_columnar ()] is [mode () = Columnar] — the dispatch predicate the
    operators branch on. *)

val with_mode : mode -> (unit -> 'a) -> 'a
(** Run with the mode temporarily overridden; restores on exit (also on
    exceptions). For tests and the storage bench. *)

val of_string : string -> mode option
(** Parses ["row"] / ["columnar"] (case-insensitive, with common
    abbreviations); [None] otherwise. *)

(** The value dictionary of the columnar storage layer.

    Interns {!Value.t}s into dense immutable [int] ids; the columnar
    representation ({!Colrel}) stores relations as arrays of these ids
    and the integer-key join kernels compare and hash nothing else.
    Append-only: an id never changes meaning, so an encoding memoized on
    a relation stays valid by construction. *)

val intern : Value.t -> int
(** The id of a value, assigning the next dense id on first sight.
    Injective: distinct values get distinct ids. *)

val find_opt : Value.t -> int option
(** The id of a value if it has ever been interned, without interning
    it. [None] means no encoded relation contains the value — probe
    paths use this to answer "absent" without growing the dictionary. *)

val value : int -> Value.t
(** Decode an id. Only defined for ids returned by {!intern}. *)

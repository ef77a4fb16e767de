(* The value dictionary: an append-only intern table mapping every
   [Value.t] the columnar storage layer has seen to a dense immutable
   [int] id. Logically this is a per-database dictionary; because
   databases are persistent maps that freely share relations (and
   relations flow between databases through joins and truncation), the
   implementation is one process-wide store: a value→id hash table plus
   a growable id→value array.

   An id, once assigned, never changes meaning, so a memoized columnar
   artifact (the encoding cached on a relation, an integer-keyed index)
   can never decode to the wrong value. *)

let table : int Value.Tbl.t = Value.Tbl.create 1024
let values = ref (Array.make 256 (Value.Bool false))

let intern v =
  match Value.Tbl.find_opt table v with
  | Some id -> id
  | None ->
      let n = Value.Tbl.length table in
      if n = Array.length !values then begin
        let bigger = Array.make (2 * n) v in
        Array.blit !values 0 bigger 0 n;
        values := bigger
      end;
      !values.(n) <- v;
      Value.Tbl.add table v n;
      n

let find_opt v = Value.Tbl.find_opt table v
let value id = !values.(id)

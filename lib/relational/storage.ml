(* Storage-engine toggle. Reading TSENS_STORAGE once at load mirrors how
   lib/exec reads TSENS_JOBS; the CLI flips the ref afterwards for
   --storage. Row is the default and the
   correctness oracle: the columnar path must produce bit-identical
   results (pinned by test_storage's equivalence properties), so the
   toggle only ever changes speed. *)

type mode = Row | Columnar

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "columnar" | "column" | "col" -> Some Columnar
  | "row" | "rows" -> Some Row
  | _ -> None

let env_default =
  match Sys.getenv_opt "TSENS_STORAGE" with
  | None -> Row
  | Some s -> ( match of_string s with Some m -> m | None -> Row)

let current = ref env_default
let mode () = !current
let set_mode m = current := m
let is_columnar () = !current = Columnar

let with_mode m f =
  let saved = !current in
  current := m;
  Fun.protect ~finally:(fun () -> current := saved) f

let jobs () = 1

(** Clean PIR execution: the {!Engine} instantiated with
    {!Plain_policy}.  Same programs, same observations and step counts as
    {!Machine}, zero shadow bookkeeping — the reference side of the
    taint-vs-plain differential oracle and of the compiled tier's
    [Compiled.Plain]. *)

include Engine.Make (Plain_policy)

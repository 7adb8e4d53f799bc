(* Kernel-object id counters: one record per domain, one field per id
   space.  [restart] starts every space again at 1; workload
   realizations call it first, so two realizations of one scenario
   number their objects alike, and a process's first realization gets
   the ids a fresh process always had. *)

type t = {
  mutable sem : int;
  mutable waitq : int;
  mutable mailbox : int;
  mutable pool : int;
  mutable state : int;
}

let fresh () = { sem = 0; waitq = 0; mailbox = 0; pool = 0; state = 0 }
let key = Domain.DLS.new_key fresh
let get () = Domain.DLS.get key
let restart () = Domain.DLS.set key (fresh ())

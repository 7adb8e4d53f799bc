type t = { cv_mutex : Types.sem; cv_waitq : Types.waitq }

let create ~mutex () = { cv_mutex = mutex; cv_waitq = Objects.waitq () }

let mutex t = t.cv_mutex

let wait t = Program.condition_wait t.cv_waitq t.cv_mutex
let signal t = Program.signal t.cv_waitq
let broadcast t = Program.broadcast t.cv_waitq

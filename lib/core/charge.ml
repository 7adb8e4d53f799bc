type call =
  | User
  | Sem
  | Wait
  | Timed_wait
  | Signal
  | Send
  | Recv
  | State_write
  | State_read
  | Delay
  | Pool

let call : Types.instr -> call = function
  | Acquire _ | Release _ -> Sem
  | Wait _ -> Wait
  | Timed_wait _ -> Timed_wait
  | Signal _ | Broadcast _ -> Signal
  | Send _ -> Send
  | Recv _ -> Recv
  | State_write _ -> State_write
  | State_read _ -> State_read
  | Delay _ -> Delay
  | Alloc _ | Free _ -> Pool
  | Compute _ | If_input _ | Repeat _ | Br_input _ | Jump _ -> User

let entry (c : Sim.Cost.t) = function
  | User | Delay -> 0
  | Sem | Wait | Timed_wait | Signal | Send | Recv | State_write | State_read
  | Pool ->
    c.syscall_entry

let service (c : Sim.Cost.t) call ~words =
  match call with
  | User | Wait | Signal -> 0
  | Sem -> c.sem_admin
  | Timed_wait | Delay -> c.timer_service
  | Send | Recv -> Sim.Cost.mailbox_copy c ~words
  | State_write -> Sim.Cost.state_write c ~words
  | State_read -> Sim.Cost.state_read c ~words
  | Pool -> c.pool_admin

let service_floor (c : Sim.Cost.t) call ~words =
  match call with
  | Timed_wait -> 0 (* a pending signal completes it before the timer is armed *)
  | Recv -> c.mailbox_base (* a sender's hand-off skips the receiver's copy *)
  | User | Sem | Wait | Signal | Send | State_write | State_read | Delay | Pool ->
    service c call ~words

let lo c call ~words = entry c call + service_floor c call ~words
let hi c call ~words = entry c call + service c call ~words

let of_instr ~recv_words c (instr : Types.instr) =
  let words =
    match instr with
    | Send (_, data) -> Array.length data
    | Recv mb -> recv_words mb.mb_id
    | State_write (sm, _) | State_read sm -> State_msg.words sm
    | _ -> 0
  in
  let call = call instr in
  (lo c call ~words, hi c call ~words)

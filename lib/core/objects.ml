open Types

let sem ?(kind = Emeralds) ?(initial = 1) () =
  if initial < 1 then invalid_arg "Objects.sem: initial must be >= 1";
  let ids = Ids.get () in
  ids.sem <- ids.sem + 1;
  {
    sem_id = ids.sem;
    sem_kind = kind;
    sem_initial = initial;
    sem_value = initial;
    holder = None;
    approachers = Util.Dlist.create ();
  }

let waitq () =
  let ids = Ids.get () in
  ids.waitq <- ids.waitq + 1;
  { wq_id = ids.waitq; pending_signals = 0 }

let pool ~block_bytes ~capacity () =
  if block_bytes < 1 then invalid_arg "Objects.pool: block_bytes must be >= 1";
  if capacity < 1 then invalid_arg "Objects.pool: capacity must be >= 1";
  let ids = Ids.get () in
  ids.pool <- ids.pool + 1;
  {
    pool_id = ids.pool;
    pool_block_bytes = block_bytes;
    pool_capacity = capacity;
    pool_free = capacity;
    pool_high_water = 0;
    pool_failures = 0;
  }

let mailbox ~capacity () =
  if capacity < 1 then invalid_arg "Objects.mailbox: capacity must be >= 1";
  let ids = Ids.get () in
  ids.mailbox <- ids.mailbox + 1;
  {
    mb_id = ids.mailbox;
    mb_capacity = capacity;
    mb_queue = Queue.create ();
  }

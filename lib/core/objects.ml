open Types

let sem ?(kind = Emeralds) () =
  let ids = Ids.get () in
  ids.sem <- ids.sem + 1;
  {
    sem_id = ids.sem;
    sem_kind = kind;
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

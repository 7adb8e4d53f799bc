let tcb ?prio ?deadline ?(state = Types.Ready) ~tid () =
  let prio = match prio with Some p -> p | None -> tid in
  let deadline =
    match deadline with Some d -> d | None -> Model.Time.ms (tid + 1)
  in
  let task =
    Model.Task.make ~id:tid ~period:(Model.Time.ms 10)
      ~wcet:(Model.Time.ms 1) ()
  in
  {
    Types.tid;
    task;
    state;
    base_prio = prio;
    eff_prio = prio;
    abs_deadline = deadline;
    eff_deadline = deadline;
    release_time = 0;
    job_no = 0;
    program = [||];
    hints = [||];
    pc = 0;
    remaining = 0;
    node = None;
    heap_handle = None;
    queue_idx = 0;
    home_queue_idx = 0;
    placeholder = None;
    inherited = false;
    approaching = None;
    approach_node = None;
    wait_node = None;
    held_sems = [];
    waiting_on = None;
    mem_cells = [];
    has_branches = false;
    input_word = 0L;
    branch_idx = 0;
    inbox = None;
    completed_job = 0;
    pending_releases = Queue.create ();
    jobs_completed = 0;
    misses = 0;
    max_response = 0;
    total_response = 0;
    enf = Types.fresh_enf ();
  }

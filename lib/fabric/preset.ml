type t = {
  name : string;
  assignments : (int * Model.Task.t list) list;
  plan : Fault.Plan.t;
  migration : (Model.Time.t * int * int) option;
}

let all =
  let ms = Model.Time.ms in
  let task ~id ~period_ms ~wcet_ms =
    Model.Task.make ~id ~period:(ms period_ms) ~wcet:(ms wcet_ms) ()
  in
  (* three light shards; the storm preset adds a fourth *)
  let base =
    [
      (0, [ task ~id:1 ~period_ms:20 ~wcet_ms:2;
            task ~id:2 ~period_ms:40 ~wcet_ms:4 ]);
      (1, [ task ~id:3 ~period_ms:20 ~wcet_ms:2;
            task ~id:4 ~period_ms:50 ~wcet_ms:5 ]);
      (2, [ task ~id:5 ~period_ms:25 ~wcet_ms:2 ]);
    ]
  in
  let preset name assignments plan migration =
    { name; assignments; plan = Result.get_ok (Fault.Plan.parse plan);
      migration }
  in
  [
    preset "steady" base "" None;
    preset "migrate" base "" (Some (ms 50, 5, 0));
    preset "crash" base "node-crash:node=1,at=50ms" None;
    preset "crash-storm"
      (base @ [ (3, [ task ~id:6 ~period_ms:40 ~wcet_ms:2 ]) ])
      "frame-drop:one-in=16;frame-corrupt:one-in=64;\
       node-crash:node=1,at=60ms;node-crash:node=2,at=160ms"
      None;
    preset "partition" base
      "frame-drop:one-in=16;link-partition:a=0,b=2,from=30ms,until=90ms" None;
  ]

let run ~config ~seed ~horizon ~plan ~migration assignments =
  let engine = Sim.Engine.create () in
  let bus = Fieldbus.Bus.create ~engine ~bitrate_bps:1_000_000 () in
  let cluster =
    Cluster.create ~config ~engine ~bus ~cost:Sim.Cost.m68040
      ~spec:Emeralds.Sched.Edf ~seed ~assignments ()
  in
  Result.map
    (fun () ->
      Cluster.install_plan cluster plan;
      Option.iter
        (fun (at, tid, dst) ->
          let migrate () = ignore (Cluster.migrate cluster ~tid ~dst) in
          ignore (Sim.Engine.schedule engine ~at migrate))
        migration;
      Cluster.run cluster ~until:horizon;
      (cluster, Cluster.score cluster ~horizon))
    (Cluster.check_plan cluster plan)

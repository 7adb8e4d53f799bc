type t = {
  prop : string;
  message : string;
  at : int;
  horizon : int;
  choices : Step.choice list;
}

exception Divergence of string

let diverge fmt = Printf.ksprintf (fun s -> raise (Divergence s)) fmt

let replay m ~props cex =
  let trace = Sim.Trace.create () in
  let emit at e = Sim.Trace.emit trace ~at e in
  let check = Props.check_changed props m in
  let check_note = Props.check_note props m in
  let rec go st choice choices =
    let e =
      Step.expand ~emit ~check ~check_note ?choice ~horizon:cex.horizon m st
    in
    match (e.violation, choices) with
    | Some (p, _, _), [] ->
      if p <> cex.prop then
        diverge "replay violated %S where %S was recorded" p cex.prop
    | Some (p, _, _), _ :: _ ->
      diverge "replay violated %S with choices still unconsumed" p
    | None, [] -> diverge "replay reached no violation"
    | None, c :: rest -> (
      match e.next with
      | `Leaf -> diverge "replay hit a leaf with choices unconsumed"
      | `Branch offered ->
        if not (List.mem c offered) then
          diverge "recorded choice %s was not offered on replay"
            (Step.choice_to_string m c);
        go e.state (Some c) rest)
  in
  go (State.init m) None cex.choices;
  trace

let render m ~props cex =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "property %S violated at t=%dns (horizon %dns)@.  %s@.@."
    cex.prop cex.at cex.horizon cex.message;
  (match cex.choices with
  | [] -> Format.fprintf fmt "reached on the deterministic schedule.@."
  | cs ->
    Format.fprintf fmt "nondeterministic choices along the witness:@.";
    List.iteri
      (fun i c ->
        Format.fprintf fmt "  %2d. %s@." (i + 1) (Step.choice_to_string m c))
      cs);
  (match replay m ~props cex with
  | trace ->
    Format.fprintf fmt "@.schedule:@.";
    Sim.Trace.iter
      (fun stamped -> Format.fprintf fmt "  %a@." Sim.Trace.pp_stamped stamped)
      trace
  | exception Divergence msg ->
    Format.fprintf fmt "@.(replay diverged: %s)@." msg);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

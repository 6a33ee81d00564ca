(* The allocator exactly as it was before the indexed-snapshot /
   incremental-projection overhaul (modulo the shared canonical placement
   tiebreak, which lives in Projection.compare_placement). See the .mli
   for why this copy exists; keep its algorithmic shape frozen. *)

module Bgp = Ef_bgp
module Snapshot = Ef_collector.Snapshot
module Config = Edge_fabric.Config
module Projection = Edge_fabric.Projection
module Override = Edge_fabric.Override
module Allocator = Edge_fabric.Allocator
module Iface = Ef_netsim.Iface
module Trace = Ef_trace.Recorder

type state = {
  config : Config.t;
  snapshot : Snapshot.t;
  mutable proj : Projection.t;
  decide_proj : Projection.t; (* stale view used when iterative = false *)
  mutable overrides : Override.t list;
  mutable moves : int;
  mutable splits : int;
  split_parent : (Bgp.Prefix.t, Bgp.Prefix.t) Hashtbl.t;
  mutable gave_up : int list; (* iface ids we cannot relieve further *)
  trace : Trace.t;
}

let candidates st prefix =
  let key =
    Option.value (Hashtbl.find_opt st.split_parent prefix) ~default:prefix
  in
  Snapshot.routes st.snapshot key

let capacity_of st iface_id =
  match
    List.find_opt (fun i -> Iface.id i = iface_id) (Snapshot.ifaces st.snapshot)
  with
  | Some i -> Iface.capacity_bps i
  | None -> invalid_arg "Allocator_ref: unknown interface id"

let headroom st iface_id =
  let view = if st.config.Config.iterative then st.proj else st.decide_proj in
  (capacity_of st iface_id *. st.config.Config.overload_threshold)
  -. Projection.load_bps view ~iface_id

let find_target st (pl : Projection.placement) =
  let tracing = Trace.enabled st.trace in
  let verdicts = ref [] in
  let note level route iface_id verdict =
    if tracing then
      verdicts :=
        {
          Trace.cand_level = level;
          cand_peer_id = Bgp.Route.peer_id route;
          cand_iface_id = iface_id;
          cand_verdict = verdict;
        }
        :: !verdicts
  in
  let ranked = candidates st pl.Projection.placed_prefix in
  let rec go level = function
    | [] -> None
    | route :: rest -> (
        st.moves <- st.moves + 1;
        match Snapshot.iface_of_route st.snapshot route with
        | None ->
            note level route (-1) Trace.No_iface;
            go (level + 1) rest
        | Some iface ->
            let iface_id = Iface.id iface in
            if iface_id = pl.Projection.iface_id then begin
              note level route iface_id Trace.Same_iface;
              go (level + 1) rest
            end
            else
              let room = headroom st iface_id in
              if room >= pl.Projection.rate_bps then begin
                note level route iface_id Trace.Chosen;
                Some (route, iface_id, level)
              end
              else begin
                note level route iface_id
                  (Trace.No_headroom
                     {
                       needed_bps = pl.Projection.rate_bps;
                       headroom_bps = room;
                     });
                go (level + 1) rest
              end)
  in
  let target = go 0 ranked in
  (target, List.rev !verdicts)

let split_placement st (pl : Projection.placement) =
  let prefix = pl.Projection.placed_prefix in
  let parent_key =
    Option.value (Hashtbl.find_opt st.split_parent prefix) ~default:prefix
  in
  let children = Bgp.Prefix.subnets prefix 24 in
  match children with
  | [] | [ _ ] -> false
  | _ ->
      let share = pl.Projection.rate_bps /. float_of_int (List.length children) in
      st.proj <- Projection.remove_placement st.proj prefix;
      List.iter
        (fun child ->
          Hashtbl.replace st.split_parent child parent_key;
          st.proj <-
            Projection.add_placement st.proj ~prefix:child ~rate_bps:share
              ~route:pl.Projection.route ~iface_id:pl.Projection.iface_id
              ~overridden:false)
        children;
      st.splits <- st.splits + 1;
      if Trace.enabled st.trace then
        Trace.record_attempt st.trace
          {
            Trace.at_prefix = prefix;
            at_from_iface = pl.Projection.iface_id;
            at_rate_bps = pl.Projection.rate_bps;
            at_candidates = [];
            at_outcome = Trace.Split { children = List.length children };
          };
      true

let relieve_once st iface_id =
  let placements =
    Projection.placements_on st.proj ~iface_id
    |> List.filter (fun pl -> not pl.Projection.overridden)
  in
  let record_attempt pl candidates outcome =
    if Trace.enabled st.trace then
      Trace.record_attempt st.trace
        {
          Trace.at_prefix = pl.Projection.placed_prefix;
          at_from_iface = iface_id;
          at_rate_bps = pl.Projection.rate_bps;
          at_candidates = candidates;
          at_outcome = outcome;
        }
  in
  let try_move pl =
    match find_target st pl with
    | None, candidates ->
        record_attempt pl candidates Trace.No_target;
        false
    | Some (route, to_iface, level), candidates ->
        record_attempt pl candidates
          (Trace.Moved { to_iface; peer_id = Bgp.Route.peer_id route; level });
        st.proj <-
          Projection.move st.proj pl.Projection.placed_prefix ~to_route:route
            ~to_iface;
        st.overrides <-
          Override.make ~prefix:pl.Projection.placed_prefix ~target:route
            ~from_iface:iface_id ~to_iface ~preference_level:level
            ~rate_bps:pl.Projection.rate_bps
          :: st.overrides;
        true
  in
  let rec first_movable = function
    | [] -> None
    | pl :: rest -> if try_move pl then Some pl else first_movable rest
  in
  match first_movable placements with
  | Some _ -> true
  | None -> (
      match st.config.Config.granularity with
      | Config.Bgp_prefix -> false
      | Config.Split_24 -> (
          let splittable =
            List.find_opt
              (fun pl ->
                Bgp.Prefix.length pl.Projection.placed_prefix < 24
                && List.length (candidates st pl.Projection.placed_prefix) > 1)
              placements
          in
          match splittable with
          | None -> false
          | Some pl -> split_placement st pl))

let run ~config ?(trace = Trace.noop) snapshot =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Allocator_ref.run: bad config: " ^ msg));
  let before = Projection.project snapshot in
  let st =
    {
      config;
      snapshot;
      proj = before;
      decide_proj = before;
      overrides = [];
      moves = 0;
      splits = 0;
      split_parent = Hashtbl.create 64;
      gave_up = [];
      trace;
    }
  in
  let initially_over =
    List.map
      (fun (i, _) -> Iface.id i)
      (Projection.overloaded before ~threshold:config.Config.overload_threshold)
  in
  let progress = ref true in
  while !progress do
    progress := false;
    let over =
      Projection.overloaded st.proj ~threshold:config.Config.overload_threshold
      |> List.filter (fun (i, _) ->
             (not (List.mem (Iface.id i) st.gave_up))
             && (config.Config.iterative || List.mem (Iface.id i) initially_over))
    in
    match over with
    | [] -> ()
    | (iface, _) :: _ ->
        if relieve_once st (Iface.id iface) then progress := true
        else st.gave_up <- Iface.id iface :: st.gave_up
  done;
  let aggregate_children overrides =
    if Hashtbl.length st.split_parent = 0 then overrides
    else begin
      let is_child o = Hashtbl.mem st.split_parent o.Override.prefix in
      let children, whole = List.partition is_child overrides in
      let groups = Hashtbl.create 8 in
      List.iter
        (fun o ->
          let key =
            ( Override.target_peer_id o,
              o.Override.from_iface,
              o.Override.to_iface,
              o.Override.preference_level )
          in
          Hashtbl.replace groups key
            (o :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
        children;
      let merged =
        Hashtbl.fold
          (fun _ group acc ->
            let blocks =
              Bgp.Prefix_set.aggregate
                (List.map (fun o -> o.Override.prefix) group)
            in
            let sample = List.hd group in
            List.map
              (fun block ->
                let rate =
                  List.fold_left
                    (fun r o ->
                      if Bgp.Prefix.subsumes block o.Override.prefix then
                        r +. o.Override.rate_bps
                      else r)
                    0.0 group
                in
                Override.make ~prefix:block ~target:sample.Override.target
                  ~from_iface:sample.Override.from_iface
                  ~to_iface:sample.Override.to_iface
                  ~preference_level:sample.Override.preference_level
                  ~rate_bps:rate)
              blocks
            @ acc)
          groups []
      in
      whole @ merged
    end
  in
  {
    Allocator.overrides = aggregate_children (List.rev st.overrides);
    before;
    final = st.proj;
    residual =
      Projection.overloaded st.proj ~threshold:config.Config.overload_threshold;
    moves_considered = st.moves;
    splits = st.splits;
    (* predates the field; the differential tests never compare it *)
    split_keys = [];
  }

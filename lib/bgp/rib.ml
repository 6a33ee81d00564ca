type change = {
  prefix : Prefix.t;
  old_best : Route.t option;
  new_best : Route.t option;
}

type peer_state = {
  peer : Peer.t;
  policy : Policy.t;
  mutable adj_in : Attrs.t Ptrie.t;
}

type entry = {
  ranked : Route.t list; (* decision order, head = best *)
}

type t = {
  decision : Decision.config;
  self_asn : Asn.t option;
  peers : (int, peer_state) Hashtbl.t;
  mutable loc : entry Ptrie.t;
}

let create ?(decision = Decision.default_config) ?self_asn () =
  { decision; self_asn; peers = Hashtbl.create 16; loc = Ptrie.empty }

let add_peer t peer ~policy =
  let id = Peer.id peer in
  if Hashtbl.mem t.peers id then
    invalid_arg (Printf.sprintf "Rib.add_peer: duplicate peer id %d" id);
  Hashtbl.replace t.peers id { peer; policy; adj_in = Ptrie.empty }

let peer_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.peers [] |> List.sort compare
let peer t id = Option.map (fun ps -> ps.peer) (Hashtbl.find_opt t.peers id)

let peer_state t id =
  match Hashtbl.find_opt t.peers id with
  | Some ps -> ps
  | None -> invalid_arg (Printf.sprintf "Rib: unknown peer id %d" id)

let best_of_entry = function
  | None -> None
  | Some e -> (
      match e.ranked with
      | [] -> None
      | r :: _ -> Some r)

(* Replace (or remove, when [route = None]) the candidate from [peer_id]
   for [prefix], re-ranking the entry. Returns the best-path change. *)
let set_candidate t ~peer_id prefix route =
  let old_entry = Ptrie.find prefix t.loc in
  let others =
    match old_entry with
    | None -> []
    | Some e -> List.filter (fun r -> Route.peer_id r <> peer_id) e.ranked
  in
  let candidates =
    match route with
    | None -> others
    | Some r -> r :: others
  in
  let ranked = Decision.rank ~config:t.decision candidates in
  (match ranked with
  | [] -> t.loc <- Ptrie.remove prefix t.loc
  | _ -> t.loc <- Ptrie.add prefix { ranked } t.loc);
  let old_best = best_of_entry old_entry in
  let new_best =
    match ranked with
    | [] -> None
    | r :: _ -> Some r
  in
  match (old_best, new_best) with
  | None, None -> None
  | Some a, Some b when Route.equal a b -> None
  | _ -> Some { prefix; old_best; new_best }

let apply_withdraw t ps prefix =
  if Ptrie.mem prefix ps.adj_in then begin
    ps.adj_in <- Ptrie.remove prefix ps.adj_in;
    set_candidate t ~peer_id:(Peer.id ps.peer) prefix None
  end
  else None

let looped t attrs =
  match t.self_asn with
  | None -> false
  | Some asn -> As_path.mem asn attrs.Attrs.as_path

let apply_announce t ps prefix attrs =
  if looped t attrs then apply_withdraw t ps prefix
  else begin
    ps.adj_in <- Ptrie.add prefix attrs ps.adj_in;
    let raw = Route.make ~prefix ~attrs ~peer:ps.peer in
    let accepted = Policy.apply ps.policy raw in
    set_candidate t ~peer_id:(Peer.id ps.peer) prefix accepted
  end

let apply_update t ~peer_id (u : Msg.update) =
  let ps = peer_state t peer_id in
  let withdrawals =
    List.filter_map (fun p -> apply_withdraw t ps p) u.Msg.withdrawn
  in
  let announcements =
    match (u.Msg.attrs, u.Msg.nlri) with
    | _, [] -> []
    | None, _ :: _ -> invalid_arg "Rib.apply_update: NLRI without attributes"
    | Some attrs, nlri ->
        List.filter_map (fun p -> apply_announce t ps p attrs) nlri
  in
  withdrawals @ announcements

let announce t ~peer_id prefix attrs =
  apply_update t ~peer_id { Msg.withdrawn = []; attrs = Some attrs; nlri = [ prefix ] }

let withdraw t ~peer_id prefix =
  apply_update t ~peer_id { Msg.withdrawn = [ prefix ]; attrs = None; nlri = [] }

let drop_peer t ~peer_id =
  let ps = peer_state t peer_id in
  let prefixes = List.map fst (Ptrie.to_list ps.adj_in) in
  List.filter_map (fun p -> apply_withdraw t ps p) prefixes

let entry t prefix = Ptrie.find prefix t.loc

let best t prefix = best_of_entry (entry t prefix)

let ranked t prefix =
  match entry t prefix with
  | None -> []
  | Some e -> e.ranked

let candidates = ranked

let ranked_view t =
  let loc = t.loc in
  fun prefix ->
    match Ptrie.find prefix loc with None -> [] | Some e -> e.ranked

let lookup t addr =
  match Ptrie.longest_match addr t.loc with
  | None -> None
  | Some (p, e) -> (
      match e.ranked with
      | [] -> None
      | r :: _ -> Some (p, r))

let adj_rib_in t ~peer_id =
  let ps = peer_state t peer_id in
  Ptrie.to_list ps.adj_in

let prefixes t = List.map fst (Ptrie.to_list t.loc)
let prefix_count t = Ptrie.cardinal t.loc

let route_count t =
  Ptrie.fold (fun _ e acc -> acc + List.length e.ranked) t.loc 0

let fold f t acc = Ptrie.fold (fun p e acc -> f p e.ranked acc) t.loc acc

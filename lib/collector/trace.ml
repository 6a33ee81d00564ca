module Bgp = Ef_bgp

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let kind_to_token = function
  | Bgp.Peer.Transit -> "transit"
  | Bgp.Peer.Private_peer -> "private"
  | Bgp.Peer.Public_peer -> "public"
  | Bgp.Peer.Route_server -> "route-server"

let kind_of_token = function
  | "transit" -> Some Bgp.Peer.Transit
  | "private" -> Some Bgp.Peer.Private_peer
  | "public" -> Some Bgp.Peer.Public_peer
  | "route-server" -> Some Bgp.Peer.Route_server
  | _ -> None

let origin_to_token = function
  | Bgp.Attrs.Igp -> "IGP"
  | Bgp.Attrs.Egp -> "EGP"
  | Bgp.Attrs.Incomplete -> "INCOMPLETE"

let origin_of_token = function
  | "IGP" -> Some Bgp.Attrs.Igp
  | "EGP" -> Some Bgp.Attrs.Egp
  | "INCOMPLETE" -> Some Bgp.Attrs.Incomplete
  | _ -> None

let opt_int_to_token = function
  | None -> "-"
  | Some v -> string_of_int v

let record_route buf (r : Bgp.Route.t) =
  let a = Bgp.Route.attrs r in
  let path =
    String.concat ","
      (List.map
         (fun asn -> string_of_int (Bgp.Asn.to_int asn))
         (Bgp.As_path.to_list a.Bgp.Attrs.as_path))
  in
  let comms =
    match a.Bgp.Attrs.communities with
    | [] -> "-"
    | cs -> String.concat "," (List.map Bgp.Community.to_string cs)
  in
  Buffer.add_string buf
    (Printf.sprintf "ROUTE %s peer=%d origin=%s path=%s nh=%s med=%s lp=%s comms=%s\n"
       (Bgp.Prefix.to_string (Bgp.Route.prefix r))
       (Bgp.Route.peer_id r)
       (origin_to_token a.Bgp.Attrs.origin)
       (if path = "" then "-" else path)
       (Bgp.Ipv4.to_string a.Bgp.Attrs.next_hop)
       (opt_int_to_token a.Bgp.Attrs.med)
       (opt_int_to_token a.Bgp.Attrs.local_pref)
       comms)

let record snapshot =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "SNAPSHOT time=%d\n" (Snapshot.time_s snapshot));
  List.iter
    (fun iface ->
      Buffer.add_string buf
        (Printf.sprintf "IFACE id=%d name=%s capacity=%.0f shared=%b\n"
           (Ef_netsim.Iface.id iface)
           (Ef_netsim.Iface.name iface)
           (Ef_netsim.Iface.capacity_bps iface)
           (Ef_netsim.Iface.shared iface)))
    (Snapshot.ifaces snapshot);
  (* peers: collected from the routes of rated prefixes *)
  let peers = Hashtbl.create 32 in
  List.iter
    (fun (prefix, _) ->
      List.iter
        (fun r ->
          let peer = Bgp.Route.peer r in
          if not (Hashtbl.mem peers (Bgp.Peer.id peer)) then
            Hashtbl.replace peers (Bgp.Peer.id peer) peer)
        (Snapshot.routes snapshot prefix))
    (Snapshot.prefix_rates snapshot);
  Hashtbl.fold (fun id peer acc -> (id, peer) :: acc) peers []
  |> List.sort compare
  |> List.iter (fun (id, peer) ->
         let iface =
           match Snapshot.iface_of_peer snapshot ~peer_id:id with
           | Some i -> Ef_netsim.Iface.id i
           | None -> -1
         in
         Buffer.add_string buf
           (Printf.sprintf
              "PEER id=%d name=%s asn=%d kind=%s router-id=%s addr=%s iface=%d\n"
              id peer.Bgp.Peer.name
              (Bgp.Asn.to_int (Bgp.Peer.asn peer))
              (kind_to_token (Bgp.Peer.kind peer))
              (Bgp.Ipv4.to_string peer.Bgp.Peer.router_id)
              (Bgp.Ipv4.to_string peer.Bgp.Peer.session_addr)
              iface));
  List.iter
    (fun (prefix, rate) ->
      Buffer.add_string buf
        (Printf.sprintf "RATE %s %.3f\n" (Bgp.Prefix.to_string prefix) rate);
      List.iter (record_route buf) (Snapshot.routes snapshot prefix))
    (Snapshot.prefix_rates snapshot);
  Buffer.add_string buf "END\n";
  Buffer.contents buf

let record_many snapshots = String.concat "" (List.map record snapshots)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* "key=value" fields on a line *)
let fields_of tokens =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> None
      | Some i ->
          Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
    tokens

let field fields key ~line =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> failf "line %d: missing field %s" line key

let int_field fields key ~line =
  match int_of_string_opt (field fields key ~line) with
  | Some v -> v
  | None -> failf "line %d: field %s is not an integer" line key

module Ptbl = Bgp.Prefix.Tbl

type builder = {
  mutable b_time : int;
  mutable b_ifaces : Ef_netsim.Iface.t list; (* reversed *)
  b_peers : (int, Bgp.Peer.t) Hashtbl.t;
  b_peer_iface : (int, int) Hashtbl.t;
  mutable b_rates : (Bgp.Prefix.t * float) list; (* reversed *)
  b_routes : Bgp.Route.t list Ptbl.t; (* prefix -> reversed *)
}

let new_builder time =
  {
    b_time = time;
    b_ifaces = [];
    b_peers = Hashtbl.create 32;
    b_peer_iface = Hashtbl.create 32;
    b_rates = [];
    b_routes = Ptbl.create 256;
  }

let finish b =
  let ifaces = List.rev b.b_ifaces in
  let routes_tbl = Ptbl.create (Ptbl.length b.b_routes) in
  Ptbl.iter (fun k v -> Ptbl.replace routes_tbl k (List.rev v)) b.b_routes;
  Snapshot.assemble
    ~routes:(fun p ->
      Option.value (Ptbl.find_opt routes_tbl p) ~default:[])
    ~iface_of_peer:(fun peer_id ->
      match Hashtbl.find_opt b.b_peer_iface peer_id with
      | None -> None
      | Some iface_id ->
          List.find_opt (fun i -> Ef_netsim.Iface.id i = iface_id) ifaces)
    ~ifaces
    ~prefix_rates:(List.rev b.b_rates)
    ~time_s:b.b_time ()

let parse_ip ~line s =
  match Bgp.Ipv4.of_string_opt s with
  | Some ip -> ip
  | None -> failf "line %d: bad address %S" line s

let parse_prefix ~line s =
  match Bgp.Prefix.of_string_opt s with
  | Some p -> p
  | None -> failf "line %d: bad prefix %S" line s

let parse_opt_int ~line key s =
  if s = "-" then None
  else
    match int_of_string_opt s with
    | Some v -> Some v
    | None -> failf "line %d: bad %s %S" line key s

let parse_route b ~line tokens =
  match tokens with
  | prefix_s :: rest ->
      let prefix = parse_prefix ~line prefix_s in
      let fields = fields_of rest in
      let peer_id = int_field fields "peer" ~line in
      let peer =
        match Hashtbl.find_opt b.b_peers peer_id with
        | Some p -> p
        | None -> failf "line %d: ROUTE references unknown peer %d" line peer_id
      in
      let origin =
        match origin_of_token (field fields "origin" ~line) with
        | Some o -> o
        | None -> failf "line %d: bad origin" line
      in
      let path =
        match field fields "path" ~line with
        | "-" -> []
        | s ->
            List.map
              (fun t ->
                match int_of_string_opt t with
                | Some v -> Bgp.Asn.of_int v
                | None -> failf "line %d: bad path element %S" line t)
              (String.split_on_char ',' s)
      in
      let communities =
        match field fields "comms" ~line with
        | "-" -> []
        | s ->
            List.map
              (fun t ->
                try Bgp.Community.of_string t
                with Invalid_argument _ -> failf "line %d: bad community %S" line t)
              (String.split_on_char ',' s)
      in
      let attrs =
        Bgp.Attrs.make ~origin
          ~med:(parse_opt_int ~line "med" (field fields "med" ~line))
          ~local_pref:(parse_opt_int ~line "lp" (field fields "lp" ~line))
          ~communities
          ~as_path:(Bgp.As_path.of_list path)
          ~next_hop:(parse_ip ~line (field fields "nh" ~line))
          ()
      in
      let route = Bgp.Route.make ~prefix ~attrs ~peer in
      Ptbl.replace b.b_routes prefix
        (route :: Option.value (Ptbl.find_opt b.b_routes prefix) ~default:[])
  | [] -> failf "line %d: empty ROUTE" line

let parse_lines lines =
  let snapshots = ref [] in
  let current = ref None in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let trimmed = String.trim raw in
      if trimmed = "" || trimmed.[0] = '#' then ()
      else
        match String.split_on_char ' ' trimmed with
        | "SNAPSHOT" :: rest ->
            if !current <> None then failf "line %d: nested SNAPSHOT" line;
            let fields = fields_of rest in
            current := Some (new_builder (int_field fields "time" ~line))
        | "END" :: _ -> (
            match !current with
            | None -> failf "line %d: END without SNAPSHOT" line
            | Some b ->
                snapshots := finish b :: !snapshots;
                current := None)
        | keyword :: rest -> (
            let b =
              match !current with
              | Some b -> b
              | None -> failf "line %d: %s outside SNAPSHOT" line keyword
            in
            match keyword with
            | "IFACE" ->
                let fields = fields_of rest in
                let iface =
                  Ef_netsim.Iface.make
                    ~id:(int_field fields "id" ~line)
                    ~name:(field fields "name" ~line)
                    ~capacity_bps:
                      (let s = field fields "capacity" ~line in
                       match float_of_string_opt s with
                       | Some c -> c
                       | None -> failf "line %d: bad capacity %S" line s)
                    ~shared:
                      (let s = field fields "shared" ~line in
                       match bool_of_string_opt s with
                       | Some b -> b
                       | None -> failf "line %d: bad shared %S" line s)
                in
                b.b_ifaces <- iface :: b.b_ifaces
            | "PEER" ->
                let fields = fields_of rest in
                let id = int_field fields "id" ~line in
                let kind =
                  match kind_of_token (field fields "kind" ~line) with
                  | Some k -> k
                  | None -> failf "line %d: bad peer kind" line
                in
                let peer =
                  Bgp.Peer.make ~id
                    ~name:(field fields "name" ~line)
                    ~asn:(Bgp.Asn.of_int (int_field fields "asn" ~line))
                    ~kind
                    ~router_id:(parse_ip ~line (field fields "router-id" ~line))
                    ~session_addr:(parse_ip ~line (field fields "addr" ~line))
                in
                Hashtbl.replace b.b_peers id peer;
                Hashtbl.replace b.b_peer_iface id (int_field fields "iface" ~line)
            | "RATE" -> (
                match rest with
                | [ prefix_s; rate_s ] -> (
                    let prefix = parse_prefix ~line prefix_s in
                    match float_of_string_opt rate_s with
                    | Some rate -> b.b_rates <- (prefix, rate) :: b.b_rates
                    | None -> failf "line %d: bad rate %S" line rate_s)
                | _ -> failf "line %d: RATE wants <prefix> <bps>" line)
            | "ROUTE" -> parse_route b ~line rest
            | kw -> failf "line %d: unknown keyword %S" line kw)
        | [] -> ())
    lines;
  if !current <> None then failf "unterminated SNAPSHOT block";
  List.rev !snapshots

let parse_many text =
  match parse_lines (String.split_on_char '\n' text) with
  | snapshots -> Ok snapshots
  | exception Bad msg -> Error msg
  | exception (Failure _ | Invalid_argument _) -> Error "malformed trace"

let parse text =
  match parse_many text with
  | Ok [ s ] -> Ok s
  | Ok l -> Error (Printf.sprintf "expected one snapshot, found %d" (List.length l))
  | Error _ as e -> e

let save path snapshots =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (record_many snapshots))

let load path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> parse_many (In_channel.input_all ic))
  | exception Sys_error msg -> Error msg

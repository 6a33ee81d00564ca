module Bgp = Ef_bgp
module P = Bgp.Policy

let mfalse = P.Match_not P.Match_any
let is_false = function P.Match_not P.Match_any -> true | _ -> false
let is_true = function P.Match_any -> true | _ -> false

(* Constant folding over the matcher algebra, so lowered guards stay
   readable and statically-dead Seq combinations are dropped. *)
let rec simplify (m : P.matcher) =
  match m with
  | P.Match_all ms -> (
      let ms = List.map simplify ms in
      if List.exists is_false ms then mfalse
      else
        match List.filter (fun m -> not (is_true m)) ms with
        | [] -> P.Match_any
        | [ m ] -> m
        | ms -> P.Match_all ms)
  | P.Match_or ms -> (
      let ms = List.map simplify ms in
      if List.exists is_true ms then P.Match_any
      else
        match List.filter (fun m -> not (is_false m)) ms with
        | [] -> mfalse
        | [ m ] -> m
        | ms -> P.Match_or ms)
  | P.Match_not m -> (
      match simplify m with
      | P.Match_any -> mfalse
      | P.Match_not P.Match_any -> P.Match_any
      | m -> P.Match_not m)
  | m -> m

let rec lower_pred env (p : Dsl.pred) : P.matcher =
  match p with
  | Dsl.True -> P.Match_any
  | Dsl.False -> mfalse
  | Dsl.Prefix_in blocks ->
      simplify (P.Match_or (List.map (fun b -> P.Match_prefix b) blocks))
  | Dsl.Prefix_exact p -> P.Match_prefix_exact p
  | Dsl.Prefix_len_at_least n -> P.Match_prefix_len_at_least n
  | Dsl.Has_community c -> P.Match_community c
  | Dsl.Peer_kind k -> P.Match_peer_kind k
  | Dsl.Peer_asn a -> P.Match_peer_asn a
  | Dsl.Path_contains a -> P.Match_path_contains a
  | Dsl.In_region r ->
      simplify
        (P.Match_or
           (List.map (fun b -> P.Match_prefix b) (Dsl.region_blocks env r)))
  | Dsl.Shared_port -> mfalse
  | Dsl.And ps -> simplify (P.Match_all (List.map (lower_pred env) ps))
  | Dsl.Or ps -> simplify (P.Match_or (List.map (lower_pred env) ps))
  | Dsl.Not p -> simplify (P.Match_not (lower_pred env p))

let lower_actions actions =
  List.filter_map
    (function
      | Dsl.Set_local_pref n -> Some (P.Set_local_pref n)
      | Dsl.Set_med m -> Some (P.Set_med m)
      | Dsl.Add_community c -> Some (P.Add_community c)
      | Dsl.Remove_community c -> Some (P.Remove_community c)
      | Dsl.Prepend (a, n) -> Some (P.Prepend (a, n))
      | Dsl.Set_overload_threshold _ | Dsl.Set_detour_budget _
      | Dsl.Set_max_overrides _ | Dsl.Set_min_improvement_ms _
      | Dsl.Set_perf_guard _ | Dsl.Set_max_suggestions _ ->
          None)
    actions

(* wp_one a m: the matcher that holds before action [a] iff [m] holds
   after it. Actions only ever touch communities and the AS path among
   the matchable attributes, so this is exact, not an approximation. *)
let rec wp_one (a : P.action) (m : P.matcher) =
  match m with
  | P.Match_community c -> (
      match a with
      | P.Add_community c' when Bgp.Community.equal c c' -> P.Match_any
      | P.Remove_community c' when Bgp.Community.equal c c' -> mfalse
      | _ -> m)
  | P.Match_path_contains asn -> (
      match a with
      | P.Prepend (asn', n) when n > 0 && Bgp.Asn.equal asn asn' -> P.Match_any
      | _ -> m)
  | P.Match_all ms -> P.Match_all (List.map (wp_one a) ms)
  | P.Match_or ms -> P.Match_or (List.map (wp_one a) ms)
  | P.Match_not m -> P.Match_not (wp_one a m)
  | m -> m

(* wp of an action sequence: transform through the last action first *)
let wp actions m = simplify (List.fold_right wp_one actions m)

let rec clause_list env (t : Dsl.t) : P.clause list =
  match t with
  | Dsl.Rule r ->
      let guard = lower_pred env r.Dsl.rule_pred in
      if is_false guard then []
      else
        [
          {
            P.clause_name = r.Dsl.rule_name;
            guard;
            actions = lower_actions r.Dsl.rule_actions;
            verdict = r.Dsl.rule_verdict;
          };
        ]
  | Dsl.Union (p, q) -> clause_list env p @ clause_list env q
  | Dsl.Seq (p, q) ->
      let cp = clause_list env p and cq = clause_list env q in
      let expand (c : P.clause) =
        match c.P.verdict with
        | P.Reject -> [ c ]
        | P.Accept ->
            let merged =
              List.filter_map
                (fun (d : P.clause) ->
                  let g = simplify (P.Match_all [ c.P.guard; wp c.P.actions d.P.guard ]) in
                  if is_false g then None
                  else
                    Some
                      {
                        P.clause_name = c.P.clause_name ^ ">" ^ d.P.clause_name;
                        guard = g;
                        actions =
                          (match d.P.verdict with
                          | P.Accept -> c.P.actions @ d.P.actions
                          | P.Reject -> []);
                        verdict = d.P.verdict;
                      })
                cq
            in
            (* catch-all: p matched and acted, q matched nothing *)
            merged @ [ c ]
      in
      List.concat_map expand cp @ cq

let route_map ?(default = Dsl.Reject) env t = P.make ~default (clause_list env t)

let program_route_map env (p : Dsl.program) =
  route_map ~default:p.Dsl.program_default env p.Dsl.program_policy

let standard_import_map ~self_asn =
  route_map (Dsl.env ~self_asn ()) (Dsl.standard_import ~self_asn)

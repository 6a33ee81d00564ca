type order =
  | Largest_first
  | Smallest_first

type granularity =
  | Bgp_prefix
  | Split_24

type t = {
  overload_threshold : float;
  iface_thresholds : (int * float) list;
  release_margin : float;
  min_hold_s : int;
  order : order;
  iterative : bool;
  granularity : granularity;
  override_local_pref : int;
  guard : Guard.config;
  max_snapshot_age_s : int;
  min_rate_confidence : float;
}

let default =
  {
    overload_threshold = 0.95;
    iface_thresholds = [];
    release_margin = 0.10;
    min_hold_s = 60;
    order = Largest_first;
    iterative = true;
    granularity = Bgp_prefix;
    override_local_pref = 1000;
    guard = Guard.default;
    max_snapshot_age_s = 90;
    min_rate_confidence = 0.0;
  }

let make ?(overload_threshold = default.overload_threshold)
    ?(iface_thresholds = default.iface_thresholds)
    ?(release_margin = default.release_margin) ?(min_hold_s = default.min_hold_s)
    ?(order = default.order) ?(iterative = default.iterative)
    ?(granularity = default.granularity)
    ?(override_local_pref = default.override_local_pref)
    ?(guard = default.guard) ?(max_snapshot_age_s = default.max_snapshot_age_s)
    ?(min_rate_confidence = default.min_rate_confidence) () =
  {
    overload_threshold;
    iface_thresholds;
    release_margin;
    min_hold_s;
    order;
    iterative;
    granularity;
    override_local_pref;
    guard;
    max_snapshot_age_s;
    min_rate_confidence;
  }

let with_overload_threshold overload_threshold t = { t with overload_threshold }
let with_iface_thresholds iface_thresholds t = { t with iface_thresholds }
let with_release_margin release_margin t = { t with release_margin }
let with_min_hold_s min_hold_s t = { t with min_hold_s }
let with_order order t = { t with order }
let with_iterative iterative t = { t with iterative }
let with_granularity granularity t = { t with granularity }

let with_override_local_pref override_local_pref t = { t with override_local_pref }
let with_guard guard t = { t with guard }
let with_max_snapshot_age_s max_snapshot_age_s t = { t with max_snapshot_age_s }
let with_min_rate_confidence min_rate_confidence t = { t with min_rate_confidence }

let release_threshold t = t.overload_threshold -. t.release_margin

let threshold_for t ~iface_id =
  match List.assoc_opt iface_id t.iface_thresholds with
  | Some th -> th
  | None -> t.overload_threshold

let release_threshold_for t ~iface_id =
  threshold_for t ~iface_id -. t.release_margin

let rec ids_unique = function
  | [] -> true
  | (id, _) :: rest ->
      (not (List.mem_assoc id rest)) && ids_unique rest

let validate t =
  if t.overload_threshold <= 0.0 || t.overload_threshold > 1.0 then
    Error "overload_threshold must be in (0, 1]"
  else if
    List.exists (fun (_, th) -> th <= 0.0 || th > 1.0) t.iface_thresholds
  then Error "iface_thresholds values must be in (0, 1]"
  else if List.exists (fun (id, _) -> id < 0) t.iface_thresholds then
    Error "iface_thresholds ids must be non-negative"
  else if not (ids_unique t.iface_thresholds) then
    Error "iface_thresholds ids must be unique"
  else if
    t.release_margin < 0.0
    || List.exists
         (fun (_, th) -> t.release_margin >= th)
         ((-1, t.overload_threshold) :: t.iface_thresholds)
  then Error "release_margin must be in [0, every overload threshold)"
  else if t.min_hold_s < 0 then Error "min_hold_s must be non-negative"
  else if
    t.override_local_pref
    <= Ef_bgp.Policy.local_pref_for_kind Ef_bgp.Peer.Private_peer
  then Error "override_local_pref must exceed every policy tier"
  else if t.max_snapshot_age_s <= 0 then Error "max_snapshot_age_s must be positive"
  else if t.min_rate_confidence < 0.0 || t.min_rate_confidence >= 1.0 then
    Error "min_rate_confidence must be in [0, 1)"
  else Ok ()

let order_to_string = function
  | Largest_first -> "largest-first"
  | Smallest_first -> "smallest-first"

let granularity_to_string = function
  | Bgp_prefix -> "bgp-prefix"
  | Split_24 -> "split-24"

let pp fmt t =
  Format.fprintf fmt
    "threshold=%.2f release=%.2f hold=%ds order=%s iterative=%b gran=%s lp=%d"
    t.overload_threshold
    (release_threshold t)
    t.min_hold_s (order_to_string t.order) t.iterative
    (granularity_to_string t.granularity)
    t.override_local_pref;
  List.iter
    (fun (id, th) -> Format.fprintf fmt " if%d=%.2f" id th)
    t.iface_thresholds
